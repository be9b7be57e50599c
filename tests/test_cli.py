"""Command-line behavior: generation, solving, verification, benchmarks."""

from __future__ import annotations

import csv
import io
import sys

import pytest

from smallweight import cli
from smallweight.cli import BENCH_HEADER, FAIL_ARTIFACT, RunReport, main
from smallweight.instio import parse_instance, serialize_instance
from smallweight.model import (
    ContractError,
    Item,
    KnapsackInstance,
    SubsetSumInstance,
)

TWO_ITEMS_T4 = "knapsack 2 4\n2 3\n3 4\n"
TWO_ITEMS_T5 = "knapsack 2 5\n2 3\n3 4\n"
SUBSET = "subsetsum 4 11\n4\n9\n2\n5\n"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- generate -------------------------------------------------------------------


def test_generate_is_deterministic_per_seed(capsys):
    argv = ["generate", "knapsack", "--n", "30", "--w-max", "9", "--seed", "7"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    inst = parse_instance(out1)
    assert isinstance(inst, KnapsackInstance)
    assert inst.n == 30
    assert all(1 <= it.weight <= 9 for it in inst.items)
    assert all(0 <= it.profit <= 36 for it in inst.items)  # default p-max = 4*w-max
    _, out3, _ = run(capsys, argv[:-1] + ["8"])
    assert out3 != out1


def test_generate_subsetsum_and_dense_kinds(capsys):
    code, out, _ = run(
        capsys, ["generate", "subsetsum", "--n", "20", "--w-max", "6", "--seed", "3"]
    )
    assert code == 0
    inst = parse_instance(out)
    assert isinstance(inst, SubsetSumInstance)
    assert inst.n == 20 and all(1 <= w <= 6 for w in inst.weights)

    code, out, _ = run(
        capsys,
        ["generate", "adversarial-dense", "--n", "40", "--w-max", "50", "--seed", "1"],
    )
    assert code == 0
    dense = parse_instance(out)
    assert len({it.weight for it in dense.items}) <= 3


def test_generate_target_flags(capsys):
    code, out, _ = run(
        capsys, ["generate", "knapsack", "--n", "5", "--w-max", "4", "--t", "7"]
    )
    assert code == 0 and parse_instance(out).t == 7

    code, out, _ = run(
        capsys,
        ["generate", "knapsack", "--n", "8", "--w-max", "4", "--t-ratio", "0.5"],
    )
    assert code == 0
    inst = parse_instance(out)
    assert inst.t == int(0.5 * sum(it.weight for it in inst.items))

    with pytest.raises(SystemExit) as err:
        main(["generate", "knapsack", "--t", "3", "--t-ratio", "0.5"])
    assert err.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit):
        main(["generate", "party"])
    capsys.readouterr()

    code, _, errtext = run(capsys, ["generate", "knapsack", "--n", "-4"])
    assert code == 2 and "error:" in errtext
    code, _, errtext = run(capsys, ["generate", "knapsack", "--w-max", "0"])
    assert code == 2 and "error:" in errtext
    code, _, errtext = run(capsys, ["generate", "knapsack", "--t", "-1"])
    assert code == 2 and "error:" in errtext


# -- solve ----------------------------------------------------------------------


def test_solve_from_file_and_stdin(capsys, tmp_path, monkeypatch):
    path = tmp_path / "a.txt"
    path.write_text(TWO_ITEMS_T4)
    for algo in ("auto", "brute", "bellman", "proximity", "window"):
        code, out, _ = run(capsys, ["solve", str(path), "--algo", algo])
        assert code == 0 and out == "value 4\n"
    for algo in ("brute", "window"):
        code, out, _ = run(capsys, ["solve", str(path), "--witness", "--algo", algo])
        assert code == 0 and out == "value 4\nitems 2\n"

    monkeypatch.setattr(sys, "stdin", io.StringIO(TWO_ITEMS_T5))
    code, out, _ = run(capsys, ["solve", "--witness"])
    assert code == 0 and out == "value 7\nitems 1 2\n"


def test_solve_subsetsum_algos(capsys, tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(SUBSET)
    for algo in ("auto", "subsetsum-fast", "subsetsum-bitset"):
        code, out, _ = run(capsys, ["solve", str(path), "--algo", algo])
        assert code == 0 and out == "value 11\n"

    code, _, errtext = run(capsys, ["solve", str(path), "--witness"])
    assert code == 2 and "witness" in errtext

    code, _, errtext = run(capsys, ["solve", str(path), "--algo", "bellman"])
    assert code == 2 and "expects a knapsack instance" in errtext


def test_solve_algo_kind_mismatch(capsys, tmp_path):
    path = tmp_path / "k.txt"
    path.write_text(TWO_ITEMS_T4)
    code, _, errtext = run(capsys, ["solve", str(path), "--algo", "subsetsum-fast"])
    assert code == 2 and "expects a subsetsum instance" in errtext


def test_solve_malformed_and_missing_inputs(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("knapsack 2 4\n2 3\n"))
    code, _, errtext = run(capsys, ["solve"])
    assert code == 2 and "error:" in errtext

    code, _, errtext = run(capsys, ["solve", str(tmp_path / "missing.txt")])
    assert code == 2 and "error:" in errtext

    big = KnapsackInstance(tuple(Item(1, 1) for _ in range(30)), 5)
    path = tmp_path / "big.txt"
    path.write_text(serialize_instance(big))
    code, _, errtext = run(capsys, ["solve", str(path), "--algo", "brute"])
    assert code == 3 and "error:" in errtext


# -- verify ---------------------------------------------------------------------


def test_verify_agreeing_algorithms(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--algos", "brute,bellman", "--trials", "25", "--n", "10",
         "--wmax", "12", "--seed", "5"],
    )
    assert code == 0 and out == "25/25 ok\n"

    code, out, _ = run(
        capsys,
        ["verify", "--algos", "window,bellman", "--trials", "200", "--n", "40",
         "--wmax", "20", "--seed", "6"],
    )
    assert code == 0 and out == "200/200 ok\n"

    code, out, _ = run(
        capsys,
        ["verify", "--algos", "subsetsum-fast,subsetsum-bitset", "--trials", "10",
         "--n", "14", "--wmax", "9", "--seed", "2"],
    )
    assert code == 0 and out == "10/10 ok\n"


def test_verify_parameter_validation(capsys):
    cases = [
        ["verify", "--algos", "brute"],
        ["verify", "--algos", "brute,,bellman"],
        ["verify", "--algos", "brute,quantum"],
        ["verify", "--algos", "brute,subsetsum-fast"],
        ["verify", "--algos", "brute,bellman", "--trials", "0"],
    ]
    for argv in cases:
        code, _, errtext = run(capsys, argv)
        assert code == 2 and "error:" in errtext


def test_verify_mismatch_writes_a_replayable_artifact(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    real = cli.solve_01_knapsack

    def buggy(instance, *, algo="auto", counters=None):
        value, selection = real(instance, algo="bellman", counters=counters)
        if algo == "bellman":
            return value + 1, selection
        return value, selection

    monkeypatch.setattr(cli, "solve_01_knapsack", buggy)
    code, out, errtext = run(
        capsys,
        ["verify", "--algos", "brute,bellman", "--trials", "5", "--n", "6",
         "--wmax", "8", "--seed", "11"],
    )
    assert code == 1 and out == ""
    assert "trial 0" in errtext and FAIL_ARTIFACT in errtext

    artifact = tmp_path / FAIL_ARTIFACT
    assert artifact.exists()
    replayed = parse_instance(artifact.read_text())
    assert isinstance(replayed, KnapsackInstance)

    monkeypatch.setattr(cli, "solve_01_knapsack", real)
    code, out, _ = run(capsys, ["solve", str(artifact), "--algo", "brute"])
    assert code == 0 and out.startswith("value ")


# -- bench ----------------------------------------------------------------------


def tiny_knapsack_rows():
    inst = KnapsackInstance((Item(2, 3), Item(3, 4), Item(1, 2)), 4)
    return [("knapsack-scaling", 16, inst, ("proximity", "bellman"))]


def tiny_subsetsum_rows():
    inst = SubsetSumInstance((4, 9, 2, 5), 11)
    return [("subsetsum-scaling", 16, inst, ("subsetsum-fast", "subsetsum-bitset"))]


def test_bench_csv_contract(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_knapsack_scaling_rows", tiny_knapsack_rows)
    monkeypatch.setattr(cli, "_subsetsum_scaling_rows", tiny_subsetsum_rows)

    out_path = tmp_path / "bench.csv"
    code, _, _ = run(capsys, ["bench", "--suite", "knapsack-scaling",
                              "--out", str(out_path)])
    assert code == 0
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert tuple(rows[0]) == BENCH_HEADER
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[0] == "knapsack-scaling"
        assert (int(row[1]), int(row[2]), int(row[3])) == (3, 16, 4)
        assert row[4] in ("proximity", "bellman")
        assert int(row[5]) == 6
        float(row[6])
        assert int(row[7]) >= 0 and int(row[8]) >= 0

    code, out, _ = run(capsys, ["bench", "--suite", "subsetsum-scaling"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(BENCH_HEADER)
    assert len(lines) == 3
    values = {line.split(",")[5] for line in lines[1:]}
    assert values == {"11"}


def test_bench_rejects_unknown_or_missing_suite(capsys):
    for argv in (["bench"], ["bench", "--suite", ""], ["bench", "--suite", "nope"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()


def test_bench_flags_disagreeing_backends(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_knapsack_scaling_rows", tiny_knapsack_rows)
    reports = iter(
        [
            RunReport("proximity", 6, None, 1.0, 0, 0),
            RunReport("bellman", 7, None, 1.0, 0, 0),
        ]
    )
    monkeypatch.setattr(cli, "_bench_report", lambda inst, algo: next(reports))
    code, _, errtext = run(capsys, ["bench", "--suite", "knapsack-scaling"])
    assert code == 1 and "disagree" in errtext


def test_bench_row_builders_are_deterministic():
    first = cli._knapsack_scaling_rows()
    second = cli._knapsack_scaling_rows()
    assert [(s, w, i.items, i.t) for s, w, i, _ in first] == [
        (s, w, i.items, i.t) for s, w, i, _ in second
    ]
    assert [w for _, w, _, _ in first] == [64, 256, 1024, 64]
    assert all(a == ("proximity", "bellman", "window") for _, _, _, a in first)

    subs = cli._subsetsum_scaling_rows()
    assert [w for _, w, _, _ in subs] == [64, 256, 1024]
    for _, _, inst, algos in subs:
        assert algos == ("subsetsum-fast", "subsetsum-bitset")
        assert inst.t == sum(inst.weights) // 2


# -- shared plumbing -------------------------------------------------------------


def test_run_report_rejects_negative_counters():
    with pytest.raises(ContractError):
        RunReport("brute", 1, None, 0.0, -1, 0)
    with pytest.raises(ContractError):
        RunReport("brute", 1, None, 0.0, 0, -1)


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    capsys.readouterr()
