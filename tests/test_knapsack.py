"""End-to-end 0-1 knapsack solving across every engine."""

from __future__ import annotations

import math
import random
import tracemalloc

import pytest

from conftest import rand_knapsack
from smallweight import knapsack
from smallweight.knapsack import (
    ALGO_CHOICES,
    MEMORY_BUDGET,
    choose_route,
    plan_window,
    prefer_proximity,
    solve_01_knapsack,
    solve_proximity,
)
from smallweight.model import (
    Counters,
    Item,
    KnapsackInstance,
    ProfitCodec,
    ResourceLimitError,
    normalize_knapsack,
)
from smallweight.oracles import (
    bellman_solve,
    brute_force_knapsack,
    proximity_check,
)
from smallweight.profiles import (
    ConcaveProfile,
    ProximityInstance,
    build_proximity_instance,
)


def inst_of(items, t):
    return KnapsackInstance(tuple(Item(w, p) for w, p in items), t)


def check_selection(instance, value, selection):
    assert list(selection) == sorted(set(selection))
    assert all(1 <= i <= len(instance.items) for i in selection)
    assert sum(instance.items[i - 1].weight for i in selection) <= instance.t
    assert sum(instance.items[i - 1].profit for i in selection) == value


# -- pinned examples -----------------------------------------------------------


def test_two_item_example_every_algo():
    tight = inst_of([(2, 3), (3, 4)], 4)
    loose = inst_of([(2, 3), (3, 4)], 5)
    for algo in ALGO_CHOICES:
        assert solve_01_knapsack(tight, algo=algo) == (4, (2,))
        assert solve_01_knapsack(loose, algo=algo) == (7, (1, 2))


def test_degenerate_instances():
    for algo in ALGO_CHOICES:
        assert solve_01_knapsack(inst_of([], 5), algo=algo) == (0, ())
        assert solve_01_knapsack(inst_of([(9, 100)], 5), algo=algo) == (0, ())
        assert solve_01_knapsack(inst_of([(2, 0)], 5), algo=algo)[0] == 0


def test_unknown_algo_rejected():
    with pytest.raises(ValueError):
        solve_01_knapsack(inst_of([(1, 1)], 1), algo="magic")


def test_residual_solver_single_key_counts_beyond_one():
    prox = ProximityInstance(
        profiles={2: ConcaveProfile(2, (7, 5), (1, 2), 10**6, 1)},
        t_star=5, b0=1, b1=2, w_max=2, codec=ProfitCodec(1),
        prefix_ids=(), prefix_packed=0, n=2,
    )
    assert solve_proximity(prox) == (12, {2: 2})


def test_residual_solver_mixed_keys():
    def mixed(t_star):
        return ProximityInstance(
            profiles={
                3: ConcaveProfile(3, (9, 4), (1, 2), 10**6, 1),
                -2: ConcaveProfile(-2, (-1, -6), (3, 4), 10**6, 1),
            },
            t_star=t_star, b0=2, b1=4, w_max=3, codec=ProfitCodec(1),
            prefix_ids=(3, 4), prefix_packed=0, n=4,
        )

    # Enumerated over all count vectors with the same caps: the best gain
    # with weight shift <= 2 is add-one-drop-one; with shift <= 4 a second
    # addition wins.
    assert solve_proximity(mixed(2)) == (8, {3: 1, -2: 1})
    assert solve_proximity(mixed(4)) == (12, {3: 2, -2: 1})


def test_residual_solver_enumerated_reference():
    rng = random.Random(97)
    for _ in range(200):
        n_keys = rng.randint(1, 3)
        pool = rng.sample(range(1, 5), n_keys)
        profiles = {}
        ids = 1
        for w in pool:
            sign = rng.choice((1, -1))
            cap = rng.randint(1, 3)
            steps, cur = [], rng.randint(-3, 12)
            for _ in range(cap):
                steps.append(cur)
                cur -= rng.randint(1, 5)
            profiles[sign * w] = ConcaveProfile(
                sign * w, tuple(steps), tuple(range(ids, ids + cap)), 10**9, 1
            )
            ids += cap
        w_max = max(abs(k) for k in profiles)
        caps = {k: p.k for k, p in profiles.items()}
        b1 = sum(caps.values())
        prox = ProximityInstance(
            profiles=profiles, t_star=rng.randint(0, 2 * w_max),
            b0=len(profiles), b1=b1, w_max=w_max, codec=ProfitCodec(1),
            prefix_ids=(), prefix_packed=0, n=ids - 1,
        )

        best = 0
        counts_list = [(k, c) for k in profiles for c in range(caps[k] + 1)]
        keys = sorted(profiles)

        def rec(idx, shift, gain):
            nonlocal best
            if idx == len(keys):
                if shift <= prox.t_star and gain > best:
                    best = gain
                return
            k = keys[idx]
            for c in range(caps[k] + 1):
                rec(idx + 1, shift + k * c, gain + profiles[k].value(c))

        rec(0, 0, 0)
        got, counts = solve_proximity(prox)
        assert got == best
        assert sum(k * c for k, c in counts.items()) <= prox.t_star
        assert sum(profiles[k].value(c) for k, c in counts.items()) == got


# -- randomized cross checks ----------------------------------------------------


def test_matches_brute_force_on_small_instances():
    rng = random.Random(41)
    for _ in range(300):
        inst = rand_knapsack(rng, n_max=10, w_max=12)
        want_value, _ = brute_force_knapsack(inst)
        for algo in ("proximity", "bellman", "window", "auto"):
            value, selection = solve_01_knapsack(inst, algo=algo)
            assert value == want_value
            check_selection(inst, value, selection)


def test_matches_capacity_dp_on_mid_instances():
    rng = random.Random(42)
    for trial in range(150):
        inst = rand_knapsack(
            rng, n_max=40, w_max=18, dense=(trial % 3 == 0)
        )
        want_value, _ = bellman_solve(inst)
        for algo in ("proximity", "window"):
            value, selection = solve_01_knapsack(inst, algo=algo)
            assert value == want_value
            check_selection(inst, value, selection)


def test_solution_stays_near_the_greedy_prefix():
    rng = random.Random(43)
    checked = 0
    while checked < 80:
        inst = rand_knapsack(rng, n_max=40, w_max=16)
        norm = normalize_knapsack(inst)
        if norm.n == 0 or norm.trivial_all:
            continue
        prox = build_proximity_instance(norm)
        value, selection = solve_01_knapsack(inst, algo="proximity")
        l1, l0 = proximity_check(prox.prefix_ids, selection, inst)
        w_max = norm.w_max
        assert l1 <= 2 * w_max
        assert l0 <= 2 * 4 * math.sqrt(w_max)
        checked += 1


def test_engine_estimate_prefers_the_pipeline_at_large_capacity():
    heavy = inst_of([(64, 1)] * 200, 64 * 200 - 1)
    assert prefer_proximity(normalize_knapsack(heavy))
    tiny = inst_of([(64, 1)] * 200, 100)
    assert not prefer_proximity(normalize_knapsack(tiny))
    trivial = inst_of([(64, 1)] * 3, 1000)
    assert not prefer_proximity(normalize_knapsack(trivial))
    # auto must match the forced engines on both regimes
    for inst in (heavy, tiny):
        assert (
            solve_01_knapsack(inst, algo="auto")[0]
            == solve_01_knapsack(inst, algo="bellman")[0]
        )


def random_instance(seed, n, w_max, t_ratio):
    rng = random.Random(seed)
    items = [(rng.randint(1, w_max), rng.randint(0, 4 * w_max)) for _ in range(n)]
    return inst_of(items, int(t_ratio * sum(w for w, _ in items)))


def solve_recording_route(inst, monkeypatch):
    """Solve with auto; the route shows in the counters or a bellman call."""
    calls = []
    real = knapsack.bellman_solve
    monkeypatch.setattr(knapsack, "bellman_solve", lambda i: calls.append(i) or real(i))
    counters = Counters()
    value, selection = solve_01_knapsack(inst, counters=counters)
    check_selection(inst, value, selection)
    if calls:
        return "bellman", value
    return ("window" if counters.window_cells else "proximity"), value


def test_auto_routes_by_measured_cost(monkeypatch):
    # Mid capacity: the window DP wins (pipeline ~11 s, bellman and window
    # tens of ms on a 2-core VM); auto must not take the pipeline.
    mid = random_instance(1, 1024, 64, 0.45)
    assert choose_route(normalize_knapsack(mid))[0] == "window"
    route, value = solve_recording_route(mid, monkeypatch)
    assert route == "window"
    assert value == bellman_solve(mid)[0]
    # Tiny capacity: about 2e4 bellman cells beat the window's per-row set-up.
    tiny = random_instance(2, 256, 32, 0.02)
    route, value = solve_recording_route(tiny, monkeypatch)
    assert route == "bellman"
    assert value == solve_01_knapsack(tiny, algo="window")[0]


def test_auto_takes_the_window_where_bellman_does_not_fit(monkeypatch):
    big = random_instance(3, 1 << 16, 16, 0.45)
    assert not knapsack._bellman_fits(big.n, big.t)
    route, value = solve_recording_route(big, monkeypatch)
    assert route == "window"
    assert value == solve_01_knapsack(big, algo="proximity")[0]


def test_routes_over_budget_raise_before_allocating():
    rng = random.Random(5)
    items = [(rng.randint(1 << 19, 1 << 20), rng.randint(0, 1 << 32)) for _ in range(128)]
    heavy = inst_of(items, sum(w for w, _ in items) // 2)
    norm = normalize_knapsack(heavy)
    assert plan_window(norm).nbytes > MEMORY_BUDGET
    assert not knapsack._bellman_fits(heavy.n, heavy.t)
    assert knapsack._pipeline_nbytes(build_proximity_instance(norm)) > MEMORY_BUDGET
    # Every route is over budget, so auto raises too, as does each forced route.
    for algo in ("window", "bellman", "proximity", "auto"):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                solve_01_knapsack(heavy, algo=algo)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, algo


def test_auto_falls_back_by_budget_when_the_window_does_not_fit(monkeypatch):
    # Bellman fits where the window does not: auto runs bellman.
    tiny = random_instance(2, 256, 32, 0.02)
    norm = normalize_knapsack(tiny)
    bellman = knapsack._bellman_nbytes(tiny.n, tiny.t)
    assert bellman < plan_window(norm).nbytes
    want = solve_01_knapsack(tiny, algo="window")[0]
    monkeypatch.setattr(knapsack, "MEMORY_BUDGET", bellman)
    assert choose_route(norm) == ("bellman", None)
    assert solve_recording_route(tiny, monkeypatch) == ("bellman", want)

    # Neither fits: auto raises before allocating, even where the pipeline's
    # lower bound fits, and the forced pipeline still solves.
    rng = random.Random(9)
    items = [(rng.randint(254, 256), rng.randint(0, 1024)) for _ in range(256)]
    small = inst_of(items, sum(w for w, _ in items) // 2)
    norm = normalize_knapsack(small)
    pipeline = knapsack._pipeline_nbytes(build_proximity_instance(norm))
    assert pipeline < plan_window(norm).nbytes < knapsack._bellman_nbytes(small.n, small.t)
    monkeypatch.setattr(knapsack, "MEMORY_BUDGET", pipeline)
    assert solve_01_knapsack(small, algo="proximity")[0] == bellman_solve(small)[0]

    # At w_max=1024, n=4096 the pipeline's bound (~180 MB) fits the real
    # budget, but the pipeline itself grew past 3 GB: auto must not touch it.
    big = random_instance(10, 4096, 1024, 0.45)

    def forbidden(*args, **kwargs):
        raise AssertionError("auto must not price the pipeline")

    for name in ("build_proximity_instance", "prefer_proximity", "_pipeline_nbytes"):
        monkeypatch.setattr(knapsack, name, forbidden)
    for inst, budget in ((small, pipeline), (big, MEMORY_BUDGET)):
        monkeypatch.setattr(knapsack, "MEMORY_BUDGET", budget)
        norm = normalize_knapsack(inst)
        need = (
            f"window needs {plan_window(norm).nbytes} bytes, "
            f"bellman {knapsack._bellman_nbytes(inst.n, inst.t)}$"
        )
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=need):
                choose_route(norm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        with pytest.raises(ResourceLimitError):
            solve_01_knapsack(inst)


def test_counters_populated_by_the_pipeline():
    rng = random.Random(45)
    counters = Counters()
    while True:
        inst = rand_knapsack(rng, n_max=25, w_max=12)
        norm = normalize_knapsack(inst)
        if norm.n >= 4 and not norm.trivial_all:
            break
    solve_01_knapsack(inst, algo="proximity", counters=counters)
    assert counters.entry_evals > 0
    assert counters.window_cells == 0
    plan = plan_window(normalize_knapsack(inst))
    for _ in range(2):
        solve_01_knapsack(inst, algo="window", counters=counters)
    assert counters.window_cells == 2 * plan.cells > 0
