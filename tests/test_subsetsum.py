"""Subset sum pipeline: reduction, bundling, layered folding, end-to-end."""

from __future__ import annotations

import random

import pytest

from conftest import rand_subsetsum
from smallweight.intset import IntegerSet
from smallweight.model import (
    Counters,
    SubsetSumInstance,
    normalize_subsetsum,
)
from smallweight.oracles import bitset_subset_sums
from smallweight.subsetsum import (
    SubsetSumAnswer,
    fold_bundled_layers,
    binary_bundle,
    reduce_subset_sum,
    solve_subset_sum,
)


def oracle_answer(inst: SubsetSumInstance) -> SubsetSumAnswer:
    sums = bitset_subset_sums(inst.weights, inst.t)
    return SubsetSumAnswer(max(sums), inst.t in sums)


# -- reduction ----------------------------------------------------------------


def test_reduce_keeps_prefix_in_input_order():
    norm = normalize_subsetsum(SubsetSumInstance((4, 9, 2, 5), 11))
    res = reduce_subset_sum(norm)
    # greedy in input order takes 4, skips 9 (would hit 13), takes 2, takes 5
    assert res.prefix_sum == 11
    assert res.target == 0
    assert res.w_max == 9
    assert sorted(res.z_values) == [-5, -4, -2, 9]


def test_reduce_rejects_take_everything():
    with pytest.raises(ValueError):
        reduce_subset_sum(normalize_subsetsum(SubsetSumInstance((2, 3), 7)))


def test_reduce_caps_multiplicities():
    w_max = 3
    weights = tuple([3] * 50 + [1])
    norm = normalize_subsetsum(SubsetSumInstance(weights, 7))
    res = reduce_subset_sum(norm)
    for z in set(res.z_values):
        assert res.z_values.count(z) <= 2 * w_max


def test_reduce_residual_target_below_w_max():
    rng = random.Random(50)
    for _ in range(200):
        inst = rand_subsetsum(rng, n_max=15, w_max=12)
        norm = normalize_subsetsum(inst)
        if norm.total_weight <= inst.t:
            continue
        res = reduce_subset_sum(norm)
        assert 0 <= res.target < res.w_max
        assert res.prefix_sum + res.target == inst.t


# -- binary bundling ----------------------------------------------------------


def bundle_exponents(k: int) -> list[int]:
    """Layer indices assigned to a value of multiplicity k.

    w_max is chosen so the cap precondition k <= 2*w_max holds.
    """
    bundled = binary_bundle([1] * k, max(1, (k + 1) // 2))
    out = []
    for exp, layer in enumerate(bundled.layers):
        out.extend([exp] * layer.count(1))
    return out


def test_bundling_covers_every_count_exactly():
    for k in list(range(0, 300)) + [511, 512, 1000, 1023, 1024]:
        exps = bundle_exponents(k)
        assert all(exps.count(e) <= 2 for e in set(exps))
        sums = 1  # bitmask of attainable counts
        for e in exps:
            sums |= sums << (1 << e)
        assert sums == (1 << (k + 1)) - 1, k  # attainable counts == {0..k}


def test_bundling_preserves_attainable_sums_mixed():
    rng = random.Random(51)
    for _ in range(100):
        vals = []
        for _ in range(rng.randint(0, 4)):
            z = rng.randint(-6, 6) or 2
            vals.extend([z] * rng.randint(1, 6))
        rng.shuffle(vals)
        w_max = max((abs(z) for z in vals), default=1)
        bundled = binary_bundle(vals, w_max)
        original = {0}
        for z in vals:
            original |= {s + z for s in original}
        scaled = {0}
        for exp, layer in enumerate(bundled.layers):
            for z in layer:
                scaled |= {s + z * (1 << exp) for s in scaled}
        assert scaled == original


def test_bundle_layer_count_bound():
    res = binary_bundle([5] * 12 + [-2] * 9, 5)
    assert res.ell == (2 * 5).bit_length() - 1
    assert len(res.layers) == res.ell + 1


# -- layered folding ----------------------------------------------------------


def layered_oracle(bundled, beta: int) -> set[int]:
    """True attainable sums of layers >= beta, in scale-beta coordinates."""
    att = {0}
    for exp in range(bundled.ell, beta - 1, -1):
        att = {2 * a for a in att}
        for z in bundled.layers[exp]:
            att |= {a + z for a in att}
    return att


def test_layer_fold_intermediates_are_attainable():
    rng = random.Random(52)
    for _ in range(100):
        inst = rand_subsetsum(rng, n_max=14, w_max=10)
        norm = normalize_subsetsum(inst)
        if norm.total_weight <= inst.t:
            continue
        res = reduce_subset_sum(norm)
        bundled = binary_bundle(res.z_values, res.w_max)
        seen: list[tuple[int, list[int]]] = []
        fold_bundled_layers(bundled, res.w_max, trace=lambda b, s: seen.append((b, s.values())))
        assert seen, "trace never fired"
        for beta, values in seen:
            truth = layered_oracle(bundled, beta)
            for x in values:
                assert x in truth, (inst, beta, x)


# -- end to end ---------------------------------------------------------------


def test_solve_matches_bitset_oracle():
    rng = random.Random(53)
    for _ in range(600):
        inst = rand_subsetsum(rng, n_max=30, w_max=20)
        got = solve_subset_sum(inst)
        assert got == oracle_answer(inst)


def test_solve_edge_cases():
    assert solve_subset_sum(SubsetSumInstance((), 0)) == SubsetSumAnswer(0, True)
    assert solve_subset_sum(SubsetSumInstance((), 5)) == SubsetSumAnswer(0, False)
    assert solve_subset_sum(SubsetSumInstance((3, 4), 0)) == SubsetSumAnswer(0, True)
    assert solve_subset_sum(SubsetSumInstance((3, 4), 7)) == SubsetSumAnswer(7, True)
    assert solve_subset_sum(SubsetSumInstance((3, 4), 99)) == SubsetSumAnswer(7, False)
    assert solve_subset_sum(SubsetSumInstance((2, 2, 2), 5)) == SubsetSumAnswer(4, False)


def test_counters_record_convolution_lengths():
    counters = Counters()
    inst = SubsetSumInstance(tuple([7, 11, 5, 9, 3, 8, 6, 2] * 3), 40)
    solve_subset_sum(inst, counters=counters)
    assert counters.conv_output_len > 0
