"""Tie-breaking, greedy prefix, concave profiles, and base-solution tables."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_knapsack
from smallweight.model import (
    MAX_PROFIT,
    MAX_WEIGHT,
    ContractError,
    Counters,
    Item,
    KnapsackInstance,
    ProfitCodec,
    normalize_knapsack,
)
from smallweight.profiles import (
    BaseSolutions,
    ConcaveProfile,
    ProximityInstance,
    break_ties,
    build_proximity_instance,
    efficiency_order,
    maximal_prefix,
    prepare_base_solutions,
)


def normalized(items, t):
    return normalize_knapsack(KnapsackInstance(tuple(Item(w, p) for w, p in items), t))


# -- tie-breaking and the greedy prefix ----------------------------------------


def test_break_ties_distinct_profits_and_efficiencies():
    rng = random.Random(60)
    for _ in range(100):
        norm = normalize_knapsack(rand_knapsack(rng, n_max=20, w_max=12))
        codec, adjusted = break_ties(norm)
        packed = [it.packed for it in adjusted]
        assert len(set(packed)) == len(packed)
        effs = [Fraction(it.packed, it.weight) for it in adjusted]
        assert len(set(effs)) == len(effs)
        # packed sums decode to plain profit sums
        assert codec.main(sum(packed)) == sum(it.profit for it in norm.items)


def test_maximal_prefix_stops_at_first_overflow():
    norm = normalized([(5, 10), (6, 6), (1, 1)], 6)
    codec, adjusted = break_ties(norm)
    prefix = maximal_prefix(norm, adjusted)
    # efficiency order: item 1 (2.0), then item 3 (1.0 with the larger tie
    # per unit weight), then item 2; the prefix stops when item 2 overflows
    assert prefix.order == (1, 3, 2)
    assert prefix.prefix_ids == (1, 3)
    assert prefix.prefix_weight == 6
    assert prefix.t_star == 0


def test_maximal_prefix_is_a_prefix_not_a_greedy_subset():
    # item 2 overflows but item 3 would still fit; a prefix must not skip
    norm = normalized([(4, 100), (5, 10), (1, 1)], 5)
    codec, adjusted = break_ties(norm)
    prefix = maximal_prefix(norm, adjusted)
    assert prefix.order == (1, 2, 3)
    assert prefix.prefix_ids == (1,)
    assert prefix.t_star == 1


def test_prefix_weight_and_packed_are_consistent():
    rng = random.Random(61)
    for _ in range(100):
        norm = normalize_knapsack(rand_knapsack(rng, n_max=16, w_max=10))
        codec, adjusted = break_ties(norm)
        prefix = maximal_prefix(norm, adjusted)
        by_id = {it.index: it for it in adjusted}
        assert prefix.prefix_weight == sum(by_id[i].weight for i in prefix.prefix_ids)
        assert prefix.prefix_packed == sum(by_id[i].packed for i in prefix.prefix_ids)
        assert prefix.prefix_weight <= norm.t
        rest = [by_id[i] for i in prefix.order[len(prefix.prefix_ids):]]
        if rest:
            assert prefix.prefix_weight + rest[0].weight > norm.t


def _neighbours(rng: random.Random, top: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(x, w), (y, v) with x*v - y*w = 1 and w, v near 2^20, so x/w and y/v
    differ by 1/(w*v), about 2^-40; x, y <= top."""
    while True:
        w = rng.randint(MAX_WEIGHT - 4096, MAX_WEIGHT)
        v = rng.randint(MAX_WEIGHT - 4096, MAX_WEIGHT)
        if math.gcd(w, v) == 1:
            break
    x = pow(v, -1, w)
    y = (x * v - 1) // w
    k = rng.randint(0, (top - max(x, y)) // MAX_WEIGHT)
    return (x + k * w, w), (y + k * v, v)


def _tie_heavy(rng: random.Random) -> tuple[list[tuple[int, int]], list[int]]:
    """Items (weight, profit) and ties whose ratios tie exactly (scaled copies
    of a few ratios) or differ by about 2^-40 (neighbouring fractions)."""
    items: list[tuple[int, int]] = []
    ties: list[int] = []
    size = rng.randint(2, 120)
    while len(items) < size:
        shape = rng.randrange(4)
        if shape == 0:  # exact multiples of a small base ratio
            p0, w0 = rng.randint(0, 40), rng.randint(1, 40)
            k = rng.randint(1, MAX_WEIGHT // w0)
            items.append((w0 * k, min(p0 * k, MAX_PROFIT)))
            ties.append(rng.randint(1, 1 << 43))
        elif shape == 1:  # profit ratios 2^-40 apart
            (x, w), (y, v) = _neighbours(rng, MAX_PROFIT)
            items += [(w, x), (v, y)]
            ties += [rng.randint(1, 1 << 43), rng.randint(1, 1 << 43)]
        elif shape == 2:  # equal profit ratios, tie ratios 2^-40 apart
            (x, w), (y, v) = _neighbours(rng, 1 << 43)
            items += [(w, 0), (v, 0)]
            ties += [x, y]
        else:
            items.append((rng.randint(1, rng.choice((4, MAX_WEIGHT))),
                          rng.randint(0, rng.choice((8, MAX_PROFIT)))))
            ties.append(rng.randint(1, 1 << 43))
    return items, ties


def test_efficiency_order_matches_the_fraction_order_on_tie_heavy_instances():
    rng = random.Random(62)
    for _ in range(150):
        items, ties = _tie_heavy(rng)
        # The solver's own ties: the prefix order is the packed-fraction order.
        norm = normalized(items, rng.randint(0, sum(w for w, _ in items)))
        if norm.n:
            codec, adjusted = break_ties(norm)
            by_fraction = sorted(adjusted, key=lambda it: Fraction(it.packed, it.weight),
                                 reverse=True)
            assert maximal_prefix(norm, adjusted).order == tuple(
                it.index for it in by_fraction
            )
        # Arbitrary ties up to 2^43: the order is (p/w, tie/w) descending.
        keys = [(Fraction(p, w), Fraction(tie, w)) for (w, p), tie in zip(items, ties)]
        got = efficiency_order(
            np.array([w for w, _ in items], dtype=np.int64),
            np.array([p for _, p in items], dtype=np.int64),
            np.array(ties, dtype=np.int64),
        )
        assert [keys[i] for i in got.tolist()] == sorted(keys, reverse=True)


# -- concave profiles -----------------------------------------------------------


def test_profile_value_step_gain_identities():
    prof = ConcaveProfile(key=3, steps=(40, 30, 10), item_ids=(2, 5, 9),
                          penalty_base=100, shift=2)
    assert [prof.value(x) for x in range(4)] == [0, 40, 70, 80]
    assert [prof.step(x) for x in (1, 2, 3)] == [40, 30, 10]
    assert prof.gain(0) == 0
    assert prof.gain(2) == prof.value(3) - prof.value(1)
    assert prof.k == 3
    for x in range(1, 8):
        assert prof.value(x) == prof.value(x - 1) + prof.step(x)
        if x > 1:
            assert prof.step(x) < prof.step(x - 1)


def test_profile_penalty_steps_never_win():
    prof = ConcaveProfile(key=2, steps=(9,), item_ids=(1,), penalty_base=50, shift=3)
    # one step beyond k drops the main component below any legal total
    main = prof.value(2) >> 3
    assert main < -50


def test_profile_rejects_non_decreasing_steps():
    with pytest.raises(ContractError):
        ConcaveProfile(key=1, steps=(5, 5), item_ids=(1, 2), penalty_base=9, shift=1)
    with pytest.raises(ContractError):
        ConcaveProfile(key=1, steps=(5, 7), item_ids=(1, 2), penalty_base=9, shift=1)


def test_profile_negative_counts_rejected():
    prof = ConcaveProfile(key=1, steps=(5,), item_ids=(1,), penalty_base=9, shift=1)
    with pytest.raises(ValueError):
        prof.value(-1)
    with pytest.raises(ValueError):
        prof.step(0)


# -- building the residual instance --------------------------------------------


def test_build_rejects_take_everything():
    with pytest.raises(ValueError):
        build_proximity_instance(normalized([(2, 5), (3, 4)], 10))


def test_build_profile_shape():
    rng = random.Random(62)
    for _ in range(150):
        norm = normalize_knapsack(rand_knapsack(rng, n_max=24, w_max=10))
        if norm.trivial_all:
            continue
        prox = build_proximity_instance(norm)
        assert 0 <= prox.t_star < norm.w_max
        assert prox.b1 == min(norm.n, 2 * norm.w_max)
        expect_b0 = min(
            math.isqrt(64 * norm.w_max), prox.b1, max(len(prox.profiles), 1)
        )
        assert prox.b0 == expect_b0
        prefix = set(prox.prefix_ids)
        for key, prof in prox.profiles.items():
            assert key != 0
            assert 1 <= len(prof.steps) <= prox.b1
            assert len(prof.steps) == len(prof.item_ids)
            for item_id in prof.item_ids:
                item = norm.items[[it.index for it in norm.items].index(item_id)]
                assert item.weight == abs(key)
                assert (item_id in prefix) == (key < 0)


def test_build_picks_best_additions_and_cheapest_removals():
    # weight-2 items: profits 1, 9, 5; t keeps only the best one in the prefix
    norm = normalized([(2, 1), (2, 9), (2, 5)], 2)
    prox = build_proximity_instance(norm)
    assert prox.prefix_ids == (2,)
    add = prox.profiles[2]
    # additions outside the prefix, best packed first: profit 5 then 1
    assert [norm.items[i - 1].profit for i in add.item_ids] == [5, 1]
    drop = prox.profiles[-2]
    assert [norm.items[i - 1].profit for i in drop.item_ids] == [9]
    assert drop.steps[0] < 0 < add.steps[0]


def test_profile_truncation_keeps_b1_steps():
    items = [(1, p) for p in range(40)]
    norm = normalized(items, 3)
    prox = build_proximity_instance(norm)
    assert prox.b1 == 2  # min(n, 2*w_max) with w_max = 1
    for prof in prox.profiles.values():
        assert len(prof.steps) <= 2


# -- base solution tables --------------------------------------------------------


def reference_base(prox: ProximityInstance):
    """Sequential strict-improvement 0/1 DP, tracking supports explicitly."""
    keys = prox.keys_positive + prox.keys_negative
    width = prox.b0 * prox.w_max
    lo = max(-width, sum(k for k in keys if k < 0))
    hi = min(width, sum(k for k in keys if k > 0))
    table: dict[int, tuple[int, tuple[int, ...]]] = {0: (0, ())}
    for w in keys:
        step = prox.profiles[w].step(1)
        nxt = dict(table)
        for i, (val, supp) in table.items():
            j = i + w
            if lo <= j <= hi:
                cand = val + step
                if j not in table or cand > table[j][0]:
                    nxt[j] = (cand, supp + (w,))
        table = nxt
    return lo, hi, {
        i: (val, tuple(sorted(supp)))
        for i, (val, supp) in table.items()
        if len(supp) <= prox.b0
    }


def check_base_against_reference(prox: ProximityInstance):
    base = prepare_base_solutions(prox)
    lo, hi, ref = reference_base(prox)
    assert (base.lo, base.hi) == (lo, hi)
    live = base.indices()
    assert sorted(ref) == sorted(live)
    supports = base.supports_all()
    assert sorted(supports) == sorted(live)
    for i in live:
        val, supp = ref[i]
        assert base.value(i) == val
        assert supports[i] == supp
        assert sum(supp) == i
        assert base.in_window(i)
    assert base.value(hi + 1) is None
    assert base.value(lo - 1) is None


def test_base_solutions_match_reference_dp():
    rng = random.Random(63)
    checked = 0
    while checked < 120:
        norm = normalize_knapsack(rand_knapsack(rng, n_max=14, w_max=8))
        if norm.trivial_all:
            continue
        check_base_against_reference(build_proximity_instance(norm))
        checked += 1


def test_base_solutions_tiny_tables():
    codec = ProfitCodec(1)

    one = ProximityInstance(
        profiles={2: ConcaveProfile(2, (7,), (1,), 10**6, 1)},
        t_star=1, b0=1, b1=1, w_max=2, codec=codec,
        prefix_ids=(), prefix_packed=0, n=1,
    )
    base = prepare_base_solutions(one)
    assert base.supports_all() == {0: (), 2: (2,)}
    assert base.value(0) == 0 and base.value(2) == 7
    assert base.value(1) is None

    empty = ProximityInstance(
        profiles={}, t_star=0, b0=1, b1=1, w_max=1, codec=codec,
        prefix_ids=(), prefix_packed=0, n=0,
    )
    base = prepare_base_solutions(empty)
    assert base.supports_all() == {0: ()}
    assert base.value(0) == 0

    two = ProximityInstance(
        profiles={
            2: ConcaveProfile(2, (7,), (1,), 10**6, 1),
            -3: ConcaveProfile(-3, (-4,), (2,), 10**6, 1),
        },
        t_star=2, b0=2, b1=1, w_max=3, codec=codec,
        prefix_ids=(2,), prefix_packed=0, n=2,
    )
    base = prepare_base_solutions(two)
    assert base.supports_all() == {-3: (-3,), -1: (-3, 2), 0: (), 2: (2,)}
    assert base.value(-3) == -4 and base.value(-1) == 3
    assert base.value(0) == 0 and base.value(2) == 7


def synthetic_prox(step_scale: int) -> ProximityInstance:
    profiles = {
        2: ConcaveProfile(2, (7 * step_scale, 3 * step_scale), (1, 2), 10**6, 1),
        3: ConcaveProfile(3, (5 * step_scale,), (3,), 10**6, 1),
        -1: ConcaveProfile(-1, (-2 * step_scale,), (4,), 10**6, 1),
    }
    return ProximityInstance(
        profiles=profiles,
        t_star=1,
        b0=2,
        b1=2,
        w_max=3,
        codec=ProfitCodec(1),
        prefix_ids=(4,),
        prefix_packed=0,
        n=4,
    )


def test_base_solutions_python_fallback_matches_reference():
    small = synthetic_prox(1)
    huge = synthetic_prox(1 << 62)  # forces the arbitrary-precision path
    base_small = prepare_base_solutions(small)
    base_huge = prepare_base_solutions(huge)
    assert base_small.int64_mode
    assert not base_huge.int64_mode
    check_base_against_reference(small)
    check_base_against_reference(huge)
    for i in base_small.indices():
        assert base_huge.value(i) == (1 << 62) * base_small.value(i)
    assert base_huge.supports_all() == base_small.supports_all()


def test_base_solutions_erase_oversized_supports():
    # three positive keys, b0 = 2: the weight-6 entry needs all three keys
    profiles = {
        1: ConcaveProfile(1, (5,), (1,), 10**6, 1),
        2: ConcaveProfile(2, (4,), (2,), 10**6, 1),
        3: ConcaveProfile(3, (3,), (3,), 10**6, 1),
    }
    prox = ProximityInstance(
        profiles=profiles, t_star=0, b0=2, b1=3, w_max=3,
        codec=ProfitCodec(1), prefix_ids=(), prefix_packed=0, n=3,
    )
    base = prepare_base_solutions(prox)
    assert base.value(6) is None
    assert base.value(5) == 7  # keys 2+3
    supports = base.supports_all()
    assert supports[5] == (2, 3)
    assert 6 not in supports


def test_base_solutions_counter():
    counters = Counters()
    prepare_base_solutions(synthetic_prox(1), counters=counters)
    assert counters.entry_evals > 0
