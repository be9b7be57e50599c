"""Tests of the benchmark itself, on its tiny smoke grids::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import LayerTrace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke_plan(workload: str, seed: int = 2, round_index: int = 0):
    import smallweight

    spec = workloads.WORKLOADS[workload]
    cases = workloads.catalogue(workload, seed, smoke=True, round_index=round_index)
    expected = run.load_expected(workload, cases, smoke=True)
    plan = [(c, workloads.program_input(smallweight, spec, c)) for c in cases]
    return plan, expected, workloads.solve_call(smallweight, spec)


def one_round(plan, call, expected, cap_s=run.CAP_S) -> run.Phase:
    return run.run_phase(lambda r: plan, call, expected, seconds=0, min_samples=1,
                         rng=random.Random(0), cap_s=cap_s, rounds=1)


def test_benchmark_json_matches_the_workload_table():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert any(line.startswith("# env ") and '"seed": 5' in line for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_wrong_value_and_mispriced_selection_count_as_failed():
    plan, expected, call = smoke_plan("knap-auto")
    assert one_round(plan, call, expected).failed == 0

    def off_by_one(prog):
        value, selection = call(prog)
        return value + 1, selection

    wrong = one_round(plan, off_by_one, expected)
    assert wrong.wrong == wrong.failed == len(plan)

    n_items = {id(prog): len(case.items) for case, prog in plan}

    def take_all(prog):  # right value, but every item: over the capacity
        value, _ = call(prog)
        return value, tuple(range(1, n_items[id(prog)] + 1))

    take_all = one_round(plan, take_all, expected)
    assert take_all.wrong == len(plan)
    assert all("exceeds capacity" in s.error for s in take_all.samples)


def test_wrong_subset_sum_counts_as_failed():
    plan, expected, call = smoke_plan("subsetsum")

    def short_by_one(prog):
        answer = call(prog)
        return dataclasses.replace(answer, value=answer.value - 1)

    lying = one_round(plan, short_by_one, expected)
    assert lying.wrong == lying.failed == len(plan)


def test_timeout_counts_as_failed_and_the_run_continues():
    plan, expected, call = smoke_plan("subsetsum")
    stuck_case, stuck_prog = plan[0]

    def sometimes_stuck(prog):
        if prog is stuck_prog:
            time.sleep(5)
        return call(prog)

    start = time.perf_counter()
    phase = one_round(plan, sometimes_stuck, expected, cap_s=0.05)
    assert time.perf_counter() - start < 3
    assert len(phase.samples) == len(plan)
    errors = {s.key: s.error for s in phase.samples}
    assert errors[stuck_case.key] == "timeout"
    assert phase.failed == 1 and phase.wrong == 0


def test_traced_answer_that_differs_from_untraced_is_wrong():
    untraced = run.Phase([run.Sample("a", 0.1, 11, None), run.Sample("b", 0.1, 22, None),
                          run.Sample("a", 0.1, 33, None, round=1)], [0.2, 0.1])
    traced = run.Phase([run.Sample("a", 0.1, 11, None), run.Sample("b", 0.1, 23, None),
                        run.Sample("a", 0.1, 33, None, round=1)], [0.2, 0.1])
    run.compare_traced(untraced, traced)
    assert [s.wrong for s in traced.samples] == [False, True, False]
    assert traced.failed == 1


def _bindings() -> dict:
    import smallweight.profiles

    out = {}
    for name, module in list(sys.modules.items()):
        if name == "smallweight" or name.startswith("smallweight."):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(name, attr)] = value
    out[("BaseSolutions", "supports_all")] = smallweight.profiles.BaseSolutions.supports_all
    return out


def test_trace_rebinds_every_importer_and_restores_them():
    import smallweight
    from smallweight import intset, knapsack, smawk, subsetsum, weakextend

    before = _bindings()
    original_sumset = intset.sumset
    counters = smallweight.Counters()
    with LayerTrace(counters) as trace:
        assert subsetsum.sumset is intset.sumset
        assert intset.sumset.__wrapped__ is original_sumset
        assert weakextend.smawk_compact is smawk.smawk_compact
        assert weakextend.smawk_compact.__wrapped__ is before[("smallweight.smawk", "smawk_compact")]
        assert knapsack.large_b_extend is weakextend.large_b_extend
        for (name, attr), value in _bindings().items():
            if value is not before[(name, attr)]:
                assert value.__wrapped__ is before[(name, attr)]
        plan, _, _ = smoke_plan("knap-auto")
        instance = smallweight.parse_instance(plan[0][1])
        smallweight.solve_01_knapsack(instance, algo="proximity", counters=counters)
        ss_plan, _, _ = smoke_plan("subsetsum")
        smallweight.solve_subset_sum(ss_plan[0][1], counters=counters)
    metrics = trace.metrics()
    assert metrics["knapsack.route_proximity"][0] == 1
    assert metrics["instio.parse_s"][0] > 0
    assert metrics["intset.sumset_calls"][0] > 0
    assert metrics["weakextend.phase1_s"][0] > 0 and metrics["weakextend.phase2_s"][0] > 0
    assert len(trace.rebound) == 0
    assert _bindings() == before


def test_trace_restores_bindings_when_a_solve_raises():
    import smallweight

    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with LayerTrace(smallweight.Counters()):
            1 / 0
    assert _bindings() == before


def test_generator_is_deterministic_and_seed_only_permutes():
    a = workloads.catalogue("knap-auto", 11)
    b = workloads.catalogue("knap-auto", 11)
    c = workloads.catalogue("knap-auto", 12)
    assert a == b
    assert [x.digest() for x in a] == [x.digest() for x in c]
    assert [x.items for x in a] != [x.items for x in c]
    d = workloads.catalogue("knap-auto", 11, round_index=1)
    assert [x.digest() for x in a] == [x.digest() for x in d]
    assert [x.items for x in a] != [x.items for x in d]


def test_each_round_draws_its_own_permutations():
    plan, expected, call = smoke_plan("subsetsum")
    other, _, _ = smoke_plan("subsetsum", round_index=1)
    drawn = []

    def plan_for(r):
        drawn.append(r)
        return (plan, other)[r]

    phase = run.run_phase(plan_for, call, expected, seconds=0, min_samples=1,
                          rng=random.Random(0), rounds=2)
    assert drawn == [0, 1]
    assert phase.failed == 0
    assert [s.round for s in phase.samples] == [0] * len(plan) + [1] * len(other)
    assert phase.solves_per_s == len(phase.samples) / phase.wall_s


def test_generator_rejects_trivial_instances():
    with pytest.raises(workloads.TrivialInstanceError):
        workloads.check_nontrivial([(3, 1), (4, 1), (9, 5)], 7, "tiny")
    workloads.check_nontrivial([(3, 1), (5, 1)], 7, "fine")


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_expected_table_covers_every_case(workload):
    cases = workloads.catalogue(workload, 3)
    expected = run.load_expected(workload, cases, smoke=False)
    assert set(expected) == {c.key for c in cases}


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "subsetsum", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
