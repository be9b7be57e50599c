"""Acceptance gate: every release-blocking behavior, one test per criterion.

Each test exercises one contract at the scale and tolerance it is stated at,
and writes a single summary line straight to the real stdout (bypassing
pytest's capture) so a scrolling log shows one pass line per criterion.  The
suites are seeded, so failures replay exactly.

Criteria 1-9 and 11 are hard gates.  Criterion 10 is a scaling report:
asymptotic speedups are not measurable at desk scale, so the bench table is
printed and sanity-checked structurally (all three routes must agree), but
relative timings are reported, not gated.
"""

from __future__ import annotations

import csv
import math
import random
import sys
import time
from collections import Counter

import numpy as np
import pytest

from conftest import KNAPSACK_FAMILIES, rand_knapsack, rand_subsetsum
from smallweight.cli import BENCH_HEADER, main
from smallweight.derandom import (
    SetSystem,
    _modulus,
    balls_and_bins,
    pairwise_hash_eval,
    pairwise_hash_sample,
    set_balancing,
)
from smallweight import knapsack
from smallweight.knapsack import solve_01_knapsack
from smallweight.model import Counters, normalize_knapsack, normalize_subsetsum
from smallweight.oracles import (
    bellman_dp,
    bitset_subset_sums,
    brute_force_knapsack,
    naive_row_maxima,
    proximity_check,
)
from smallweight.profiles import build_proximity_instance
from smallweight.smawk import expand_row_maxima, smawk_compact
from smallweight.subsetsum import (
    _power_decomposition,
    binary_bundle,
    fold_bundled_layers,
    reduce_subset_sum,
    solve_subset_sum,
)
from smallweight.weakextend import singleton_extend
from test_smawk import StaircaseView
from test_subsetsum import layered_oracle
from test_weakextend import check_solution, random_instance, reference_arrays

PROXIMITY_C = 4

# One summary line per criterion; conftest's pytest_terminal_summary prints
# these after the run, outside pytest's output capture.
REPORT_LINES: list[str] = []


def report(line: str) -> None:
    REPORT_LINES.append(f"[acceptance] {line}")
    sys.__stdout__.write(f"[acceptance] {line}\n")
    sys.__stdout__.flush()


def check_selection(inst, value, selection):
    assert list(selection) == sorted(set(selection))
    assert all(1 <= i <= inst.n for i in selection)
    assert sum(inst.items[i - 1].weight for i in selection) <= inst.t
    assert sum(inst.items[i - 1].profit for i in selection) == value


# -- criterion 1: exact agreement with exhaustive search ------------------------


def test_c01_matches_brute_force_on_10k_small_instances():
    rng = random.Random(101)
    t0 = time.perf_counter()
    for trial in range(10_000):
        inst = rand_knapsack(rng, n_max=16, w_max=30, t_max=200)
        want, _ = brute_force_knapsack(inst)
        value, selection = solve_01_knapsack(inst, algo="auto")
        assert value == want, f"trial {trial}: auto={value} brute={want} inst={inst}"
        check_selection(inst, value, selection)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(f"C1 ok: value == brute force on 10000/10000 instances "
           f"(n<=16, w<=30, t<=200) in {elapsed:.1f}s < 60s")


# -- criteria 2 + 4 share one 10k mid-size suite ---------------------------------


@pytest.fixture(scope="module")
def mid_suite():
    """Run the pipeline (forced) against the capacity DP on 10^4 instances.

    Records, per trial: whether the values agreed, and the distance between
    the returned selection and the efficiency-greedy prefix, together with
    the instance's effective w_max.  Criterion 2 consumes the agreement
    column, criterion 4 the distance columns.
    """
    rng = random.Random(202)
    mismatches: list[str] = []
    distances: list[tuple[int, int, int, int]] = []  # (trial, l1, l0, w_max)
    t0 = time.perf_counter()
    for trial in range(10_000):
        w_cap = rng.randint(1, 25)
        inst = rand_knapsack(
            rng, n_max=50, w_max=w_cap, t_max=600, dense=(trial % 4 == 0)
        )
        value, selection = solve_01_knapsack(inst, algo="proximity")
        check_selection(inst, value, selection)
        want = int(bellman_dp(inst)[inst.t]) if inst.t >= 0 else 0
        if value != want:
            mismatches.append(f"trial {trial}: proximity={value} dp={want} inst={inst}")
        norm = normalize_knapsack(inst)
        if norm.n == 0:
            prefix_ids: tuple[int, ...] = ()
        elif norm.trivial_all:
            prefix_ids = tuple(it.index for it in norm.items)
        else:
            prefix_ids = build_proximity_instance(norm).prefix_ids
        l1, l0 = proximity_check(prefix_ids, selection, inst)
        distances.append((trial, l1, l0, norm.w_max if norm.n else 1))
    elapsed = time.perf_counter() - t0
    return {"mismatches": mismatches, "distances": distances, "elapsed": elapsed}


def test_c02_matches_capacity_dp_on_10k_mid_instances(mid_suite):
    assert not mid_suite["mismatches"], mid_suite["mismatches"][:5]
    assert mid_suite["elapsed"] < 300.0
    report(f"C2 ok: forced pipeline == capacity DP on 10000/10000 instances "
           f"(n<=50, w<=25, t<=600, every 4th dense) in {mid_suite['elapsed']:.1f}s < 300s")


def test_c04_solutions_stay_near_the_greedy_prefix(mid_suite):
    violations = []
    worst_l1 = worst_l0 = 0.0
    for trial, l1, l0, w_max in mid_suite["distances"]:
        if l1 > 2 * w_max or l0 > 2 * PROXIMITY_C * math.sqrt(w_max):
            violations.append((trial, l1, l0, w_max))
        worst_l1 = max(worst_l1, l1 / (2 * w_max))
        worst_l0 = max(worst_l0, l0 / (2 * PROXIMITY_C * math.sqrt(w_max)))
    assert not violations, violations[:5]
    report(f"C4 ok: all 10000 selections within l1 <= 2*w_max and "
           f"l0 <= 8*sqrt(w_max) (worst fill: l1 {worst_l1:.2f}, l0 {worst_l0:.2f})")


# -- criterion 3: subset sum against the bitset oracle ---------------------------


def test_c03_subset_sum_matches_bitset_oracle_on_10k_instances():
    rng = random.Random(303)
    t0 = time.perf_counter()
    for trial in range(10_000):
        inst = rand_subsetsum(rng, n_max=60, w_max=40)
        sums = bitset_subset_sums(inst.weights, inst.t)
        want_value, want_decision = max(sums), inst.t in sums
        got = solve_subset_sum(inst)
        assert (got.value, got.attainable) == (want_value, want_decision), (
            f"trial {trial}: got {got} want ({want_value}, {want_decision}) inst={inst}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(f"C3 ok: (value, decision) == bitset oracle on 10000/10000 instances "
           f"(n<=60, w<=40) in {elapsed:.1f}s < 120s")


# -- criterion 5: compact row maxima on dense staircase views --------------------


class DenseStaircase(StaircaseView):
    """StaircaseView with a vectorized dense-row accessor for the oracle."""

    def __init__(self, base, first_row, gain, n_rows):
        super().__init__(base, first_row, gain, n_rows)
        self._base = np.asarray(base, dtype=np.int64)
        self._first = np.asarray(first_row, dtype=np.int64)
        self._gain = np.asarray(gain, dtype=np.int64)

    def row_dense(self, i):
        offs = i - self._first
        defined = offs >= 0
        values = self._base + self._gain[np.where(defined, offs, 0)]
        return values, defined


def dense_random_staircase(rng: random.Random, m: int, n: int) -> DenseStaircase:
    base = [rng.randint(-40, 40) for _ in range(n)]
    first = sorted(rng.randint(1, m + (m // 3) + 1) for _ in range(n))
    inc = rng.randint(-3, 9)
    gain = [0]
    for _ in range(m):
        gain.append(gain[-1] + inc)
        inc -= rng.randint(0, 4)
    return DenseStaircase(base, first, gain, m)


def test_c05_row_maxima_match_naive_with_linearithmic_entry_budget():
    rng = random.Random(505)
    t0 = time.perf_counter()
    worst_ratio = 0.0

    def run_one(view):
        nonlocal worst_ratio
        counters = Counters()
        got = expand_row_maxima(smawk_compact(view, counters=counters))
        assert got == naive_row_maxima(view)
        m, n = view.n_rows, view.n_cols
        budget = n * (1 + math.log2(math.ceil(m / n)) + 1)
        worst_ratio = max(worst_ratio, counters.entry_evals / budget)

    for _ in range(10_000):
        m = max(1, round(2 ** rng.uniform(0, 9)))
        n = max(1, round(2 ** rng.uniform(0, 9)))
        run_one(dense_random_staircase(rng, m, n))
    for _ in range(3):
        run_one(dense_random_staircase(rng, 512, 512))
    for _ in range(2):
        run_one(dense_random_staircase(rng, 100_000, 8))
    elapsed = time.perf_counter() - t0
    assert worst_ratio <= 16.0
    report(f"C5 ok: row maxima == naive on 10000 random views (<=512x512) "
           f"+ 3x 512x512 + 2x 100000x8; worst entry-evals/budget {worst_ratio:.2f} "
           f"<= 16 in {elapsed:.1f}s")


# -- criterion 6: single-key window extension is exact where promised ------------


def test_c06_singleton_extension_exact_at_support_contained_indices():
    rng = random.Random(606)
    checked = 0
    t0 = time.perf_counter()
    for _ in range(1_000):
        inst = random_instance(rng, L_max=50, max_set=1, key_pool=6, n_keys=5)
        opt, required = reference_arrays(inst)
        sol = singleton_extend(inst)
        check_solution(inst, sol, opt, required)
        checked += sum(1 for i, need in enumerate(required) if need and opt[i] is not None)
    elapsed = time.perf_counter() - t0
    report(f"C6 ok: r[i] == enumerated optimum at all {checked} support-contained "
           f"indices across 1000 instances (L<=50, |set|<=1) in {elapsed:.1f}s")


# -- criterion 7: derandomization toolkit is exact -------------------------------


def _random_system(rng: random.Random) -> SetSystem:
    n = rng.randint(0, 40)
    m = rng.randint(0, 12)
    sets = tuple(
        tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        for _ in range(m if n else 0)
    )
    return SetSystem(n, sets)


def _check_balancing(system: SetSystem) -> None:
    signs = set_balancing(system)
    assert all(s in (-1, 1) for s in signs)
    for s in system.sets:
        disc = abs(sum(signs[j - 1] for j in s))
        assert disc <= 2.0 * math.sqrt(len(s) * math.log(2 * system.m))


def _check_bins(rng: random.Random) -> None:
    m = rng.randint(1, 10)
    r = rng.choice([1, 2, 4, 8])
    limit = int(r * max(1.0, math.log2(m)))
    n = rng.randint(1, 60)
    sets = tuple(
        tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, min(n, limit)))))
        for _ in range(m)
    )
    system = SetSystem(n, sets)
    coloring = balls_and_bins(system, r)
    for s in system.sets:
        per_class = Counter(coloring.colors[j - 1] for j in s)
        assert all(c <= coloring.bound for c in per_class.values())


def hash_matrix(n: int, m: int) -> np.ndarray:
    """hv[seed, x] = hash value, for every seed in [0, n*m) and x in [0, n)."""
    bits = n.bit_length() - 1
    mod = _modulus(bits)
    shifted = np.empty((bits, n), dtype=np.int64)  # shifted[i][a] = a * x^i mod f
    v = np.arange(n, dtype=np.int64)
    for i in range(bits):
        shifted[i] = v
        v = v << 1
        v = np.where(v & n, v ^ mod, v)
    products = np.zeros((n, n), dtype=np.int64)  # products[a, x] = a * x mod f
    xs = np.arange(n)
    for i in range(bits):
        mask = ((xs >> i) & 1) == 1
        products[:, mask] ^= shifted[i][:, None]
    top = products >> (bits - (m.bit_length() - 1))
    return (top[:, None, :] ^ np.arange(m, dtype=np.int64)[None, :, None]).reshape(
        n * m, n
    )


def _check_pairwise(n: int, m: int, rng: random.Random) -> str:
    hv = hash_matrix(n, m)
    for _ in range(300):  # bind the bulk table to the reference evaluator
        seed, x = rng.randrange(n * m), rng.randrange(n)
        assert hv[seed, x] == pairwise_hash_eval(pairwise_hash_sample(n, m, seed), x)
    per_cell = (n * m) // (m * m)
    if n <= 256:
        for x1 in range(n - 1):
            cols = n - 1 - x1
            block = hv[:, x1][:, None] * m + hv[:, x1 + 1 :]
            flat = block + np.arange(cols, dtype=np.int64) * (m * m)
            counts = np.bincount(flat.ravel(), minlength=cols * m * m)
            assert np.all(counts.reshape(cols, m * m) == per_cell)
        return "all pairs"
    pairs = set()
    while len(pairs) < 4_000:
        x1, x2 = rng.randrange(n), rng.randrange(n)
        if x1 != x2:
            pairs.add((min(x1, x2), max(x1, x2)))
    x1s, x2s = map(np.array, zip(*sorted(pairs)))
    block = hv[:, x1s] * m + hv[:, x2s]
    flat = block + np.arange(len(pairs), dtype=np.int64) * (m * m)
    counts = np.bincount(flat.ravel(), minlength=len(pairs) * m * m)
    assert np.all(counts.reshape(len(pairs), m * m) == per_cell)
    return "4000 sampled pairs"


def test_c07_balancing_bins_and_hashing_hold_their_exact_bounds():
    rng = random.Random(707)
    t0 = time.perf_counter()
    for _ in range(1_000):
        _check_balancing(_random_system(rng))
    for _ in range(300):
        _check_bins(rng)
    combos = [
        (n, m)
        for n in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
        for m in (2, 4, 8, 16, 32, 64)
        if m <= n and n * m <= 4096
    ]
    assert len(combos) == 36
    sampled = 0
    for n, m in combos:
        if _check_pairwise(n, m, rng) != "all pairs":
            sampled += 1
    elapsed = time.perf_counter() - t0
    report(f"C7 ok: balancing bound exact on 1000 systems; bin intersections "
           f"<= certified bound on 300 systems; pairwise counts == n/m over all "
           f"seeds for 36 (domain, range) combos ({sampled} via sampled pairs) "
           f"in {elapsed:.1f}s")


# -- criterion 8: power decompositions, exhaustively to 2^16 ---------------------


def test_c08_power_decomposition_exhaustive_to_2_16():
    t0 = time.perf_counter()
    for k in range(1, (1 << 16) + 1):
        exps = _power_decomposition(k)
        mult = Counter(exps)
        assert max(mult.values()) <= 2, (k, exps)
        assert sum(1 << e for e in exps) == k, (k, exps)
        sums = 1
        for e in exps:
            sums |= sums << (1 << e)
        assert sums == (1 << (k + 1)) - 1, (k, exps)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(f"C8 ok: every k <= 65536 decomposes with multiplicity <= 2 and "
           f"subset sums == {{0..k}} in {elapsed:.1f}s < 10s")


# -- criterion 9: every intermediate sum is genuinely attainable -----------------


def test_c09_layer_fold_intermediates_attainable_on_1k_instances():
    rng = random.Random(909)
    done = 0
    layers = 0
    t0 = time.perf_counter()
    while done < 1_000:
        inst = rand_subsetsum(rng, n_max=16, w_max=12)
        norm = normalize_subsetsum(inst)
        if norm.total_weight <= inst.t:
            continue
        residual = reduce_subset_sum(norm)
        bundled = binary_bundle(residual.z_values, residual.w_max)
        seen: list[tuple[int, tuple[int, ...]]] = []
        fold_bundled_layers(
            bundled,
            residual.w_max,
            trace=lambda beta, s: seen.append((beta, tuple(s.values()))),
        )
        assert seen
        for beta, values in seen:
            truth = layered_oracle(bundled, beta)
            for x in values:
                assert x in truth, (inst, beta, x)
        layers += len(seen)
        done += 1
    elapsed = time.perf_counter() - t0
    report(f"C9 ok: every element of {layers} intermediate sets attainable on "
           f"1000/1000 residual instances in {elapsed:.1f}s")


# -- criterion 10: scaling report (not gated) ------------------------------------


def test_c10_scaling_report_from_bench(tmp_path):
    out = tmp_path / "bench.csv"
    t0 = time.perf_counter()
    assert main(["bench", "--suite", "knapsack-scaling", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == set(BENCH_HEADER)
    points: dict[tuple[str, str, str], dict[str, dict]] = {}
    for row in rows:
        points.setdefault((row["n"], row["w_max"], row["t"]), {})[row["algo"]] = row
    report(f"C10 scaling report (structural checks gated, timings reported only; "
           f"suite ran in {elapsed:.1f}s):")
    for (n, w_max, t), by_algo in sorted(points.items(), key=lambda kv: int(kv[0][1])):
        assert set(by_algo) == {"proximity", "bellman", "window"}
        values = {row["value"] for row in by_algo.values()}
        assert len(values) == 1, (n, w_max, t, by_algo)
        prox_ms = float(by_algo["proximity"]["millis"])
        bell_ms = float(by_algo["bellman"]["millis"])
        win_ms = float(by_algo["window"]["millis"])
        regime = int(t) >= 50 * int(n) * math.isqrt(int(w_max))
        tag = "t >= 50*n*sqrt(w_max)" if regime else "mid capacity"
        report(f"C10   n={n} w_max={w_max} t={t} [{tag}]: value {values.pop()}, "
               f"pipeline {prox_ms:.1f}ms vs capacity DP {bell_ms:.1f}ms "
               f"vs window DP {win_ms:.1f}ms")
    report("C10 note: at w_max <= 1024 the stated regime capacity exceeds the "
           "total weight, so the pipeline's reduction answers immediately while "
           "the raw capacity DP pays O(n*t); the mid-capacity row shows the "
           "constant-factor reality at desk scale, where the asymptotic "
           "separation is not reproducible.")


# -- criterion 11: the window DP against both knapsack oracles -------------------


def test_c11_window_dp_matches_brute_force_and_capacity_dp(monkeypatch):
    rng = random.Random(1111)
    t0 = time.perf_counter()
    worst_fill = 0.0
    over = 0

    def run_one(inst, want):
        nonlocal worst_fill, over
        value, selection = solve_01_knapsack(inst, algo="window")
        assert value == want, f"window={value} oracle={want} inst={inst}"
        check_selection(inst, value, selection)
        norm = normalize_knapsack(inst)
        if norm.n == 0 or norm.trivial_all:
            return
        prefix_ids = build_proximity_instance(norm).prefix_ids
        l1, _ = proximity_check(prefix_ids, selection, inst)
        worst_fill = max(worst_fill, l1 / (2 * norm.w_max))
        over += l1 > 2 * norm.w_max

    for _ in range(10_000):
        inst = rand_knapsack(rng, n_max=16, w_max=30, t_max=200)
        run_one(inst, brute_force_knapsack(inst)[0])
    for trial in range(10_000):
        inst = rand_knapsack(
            rng, n_max=50, w_max=rng.randint(1, 25), t_max=600, dense=(trial % 4 == 0)
        )
        run_one(inst, int(bellman_dp(inst)[inst.t]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(f"C11 ok: window DP == brute force on 10000/10000 instances (n<=16) and "
           f"== capacity DP on 10000/10000 (n<=50, every 4th dense), every witness "
           f"re-priced; realized l1 vs 2*w_max: worst fill {worst_fill:.2f}, "
           f"{over} above the bound, in {elapsed:.1f}s < 30s")

    # Pisinger's correlated families through auto, which runs the window alone.
    def forbidden(*args, **kwargs):
        raise AssertionError("auto must not run the capacity DP")

    monkeypatch.setattr(knapsack, "bellman_solve", forbidden)
    rng = random.Random(1112)
    t0 = time.perf_counter()
    windowed = 0
    for trial in range(5_000):
        family = KNAPSACK_FAMILIES[trial % len(KNAPSACK_FAMILIES)]
        inst = rand_knapsack(
            rng, n_max=50, w_max=rng.randint(1, 25), t_max=600, family=family
        )
        counters = Counters()
        value, selection = solve_01_knapsack(inst, algo="auto", counters=counters)
        assert value == int(bellman_dp(inst)[inst.t]), f"auto={value} inst={inst}"
        check_selection(inst, value, selection)
        norm = normalize_knapsack(inst)
        if norm.n and not norm.trivial_all:
            assert counters.window_cells > 0, f"auto skipped the window: {inst}"
            windowed += 1
    report(f"C11 families ok: auto == capacity DP on 5000/5000 instances of "
           f"{len(KNAPSACK_FAMILIES)} correlated families (n<=50, w<=25, t<=600), "
           f"every witness re-priced, {windowed} non-trivial ones all through the "
           f"window and none through bellman, in {time.perf_counter() - t0:.1f}s")
