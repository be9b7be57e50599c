"""Command-line front end: generate, solve, verify, bench.

Four batch subcommands around the solver library:

* ``generate`` writes a random instance file to standard output,
  reproducible byte-for-byte for a fixed seed.
* ``solve`` reads one instance (file or stdin) and prints ``value <V>``,
  optionally followed by a 1-based witness line.
* ``verify`` cross-checks two algorithms on seeded random instances and
  drops a replayable fail artifact on the first disagreement.
* ``bench`` times the solver back ends on fixed scaling suites and emits
  CSV rows.

Exit codes: 0 ok, 1 verification mismatch, 2 parse/parameter error,
3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import csv
import math
import random
import sys
import time
import zlib
from dataclasses import dataclass

from .instio import parse_instance, serialize_instance
from .knapsack import ALGO_CHOICES, solve_01_knapsack
from .model import (
    ContractError,
    Counters,
    InstanceFormatError,
    Item,
    KnapsackInstance,
    ResourceLimitError,
    SubsetSumInstance,
)
from .oracles import bellman_dp, bitset_subset_sums
from .subsetsum import solve_subset_sum

KNAPSACK_ALGOS = frozenset(ALGO_CHOICES)
SUBSETSUM_ALGOS = frozenset({"subsetsum-fast", "subsetsum-bitset"})
SOLVE_ALGOS = tuple(ALGO_CHOICES) + tuple(sorted(SUBSETSUM_ALGOS))
GENERATE_KINDS = ("knapsack", "subsetsum", "adversarial-dense")
BENCH_SUITES = ("knapsack-scaling", "subsetsum-scaling")
KNAPSACK_BENCH_ALGOS = ("proximity", "bellman", "window")
BENCH_HEADER = ("suite", "n", "w_max", "t", "algo", "value", "millis", "entries", "conv_len")
FAIL_ARTIFACT = "smallweight-fail.txt"


@dataclass(frozen=True)
class RunReport:
    """One timed solver run: algorithm, value, optional witness, counters."""

    algo: str
    value: int
    selection: tuple[int, ...] | None
    millis: float
    entry_evals: int
    conv_output_len: int

    def __post_init__(self) -> None:
        if self.entry_evals < 0 or self.conv_output_len < 0:
            raise ContractError("instrumentation counters must be non-negative")


# ---------------------------------------------------------------------------
# instance generation


def _random_knapsack(
    rng: random.Random, n: int, w_max: int, p_max: int, dense: bool
) -> tuple[Item, ...]:
    if dense and n > 0:
        # Few distinct weights, many copies: stresses the per-weight profile
        # truncation in the proximity pipeline.
        pool = rng.sample(range(1, w_max + 1), min(1 + rng.randrange(3), w_max))
        weights = [rng.choice(pool) for _ in range(n)]
    else:
        weights = [rng.randint(1, w_max) for _ in range(n)]
    return tuple(Item(w, rng.randint(0, p_max)) for w in weights)


def _pick_target(rng: random.Random, total: int, t: int | None, ratio: float | None) -> int:
    if t is not None:
        return t
    if ratio is not None:
        return int(ratio * total)
    return rng.randint(0, total)


def _generated_instance(args: argparse.Namespace) -> KnapsackInstance | SubsetSumInstance:
    if args.n < 0 or args.w_max < 1:
        raise InstanceFormatError("need n >= 0 and w-max >= 1")
    if args.t is not None and args.t < 0:
        raise InstanceFormatError("target must be non-negative")
    p_max = args.p_max if args.p_max is not None else 4 * args.w_max
    if p_max < 0:
        raise InstanceFormatError("p-max must be non-negative")
    rng = random.Random(args.seed)
    if args.kind == "subsetsum":
        weights = tuple(rng.randint(1, args.w_max) for _ in range(args.n))
        target = _pick_target(rng, sum(weights), args.t, args.t_ratio)
        return SubsetSumInstance(weights, target)
    items = _random_knapsack(rng, args.n, args.w_max, p_max, args.kind == "adversarial-dense")
    total = sum(it.weight for it in items)
    return KnapsackInstance(items, _pick_target(rng, total, args.t, args.t_ratio))


def cmd_generate(args: argparse.Namespace) -> int:
    sys.stdout.write(serialize_instance(_generated_instance(args)))
    return 0


# ---------------------------------------------------------------------------
# solving


def _timed_knapsack(instance: KnapsackInstance, algo: str) -> RunReport:
    counters = Counters()
    start = time.perf_counter()
    value, selection = solve_01_knapsack(instance, algo=algo, counters=counters)
    millis = (time.perf_counter() - start) * 1000.0
    return RunReport(algo, value, selection, millis, counters.entry_evals, counters.conv_output_len)


def _timed_subsetsum(instance: SubsetSumInstance, algo: str) -> RunReport:
    counters = Counters()
    start = time.perf_counter()
    if algo == "subsetsum-bitset":
        value = max(bitset_subset_sums(instance.weights, instance.t), default=0)
    else:
        value = solve_subset_sum(instance, counters=counters).value
    millis = (time.perf_counter() - start) * 1000.0
    return RunReport(algo, value, None, millis, counters.entry_evals, counters.conv_output_len)


def _read_instance_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def cmd_solve(args: argparse.Namespace) -> int:
    instance = parse_instance(_read_instance_text(args.input))
    if isinstance(instance, SubsetSumInstance):
        algo = "subsetsum-fast" if args.algo == "auto" else args.algo
        if algo not in SUBSETSUM_ALGOS:
            raise InstanceFormatError(
                f"algorithm {algo!r} expects a knapsack instance, got subsetsum"
            )
        if args.witness:
            raise InstanceFormatError("--witness is not supported for subsetsum algorithms")
        report = _timed_subsetsum(instance, algo)
    else:
        if args.algo in SUBSETSUM_ALGOS:
            raise InstanceFormatError(
                f"algorithm {args.algo!r} expects a subsetsum instance, got knapsack"
            )
        report = _timed_knapsack(instance, args.algo)
    print(f"value {report.value}")
    if args.witness and report.selection is not None:
        print("items " + " ".join(str(i) for i in report.selection))
    return 0


# ---------------------------------------------------------------------------
# verification


def _verify_value(instance: KnapsackInstance | SubsetSumInstance, algo: str) -> int:
    if algo in SUBSETSUM_ALGOS:
        if not isinstance(instance, SubsetSumInstance):
            raise InstanceFormatError("subsetsum algorithm on a knapsack instance")
        return _timed_subsetsum(instance, algo).value
    if not isinstance(instance, KnapsackInstance):
        raise InstanceFormatError("knapsack algorithm on a subsetsum instance")
    return solve_01_knapsack(instance, algo=algo)[0]


def _verify_instance(
    rng: random.Random, subsetsum: bool, n_max: int, w_max: int, trial: int
) -> KnapsackInstance | SubsetSumInstance:
    n = rng.randint(0, max(0, n_max))
    if subsetsum:
        weights = tuple(rng.randint(1, w_max) for _ in range(n))
        return SubsetSumInstance(weights, rng.randint(0, sum(weights)))
    dense = trial % 5 == 4
    items = _random_knapsack(rng, n, w_max, 4 * w_max, dense)
    total = sum(it.weight for it in items)
    return KnapsackInstance(items, rng.randint(0, total + w_max))


def cmd_verify(args: argparse.Namespace) -> int:
    algos = tuple(a.strip() for a in args.algos.split(","))
    if len(algos) != 2 or not all(algos):
        raise InstanceFormatError("--algos expects two comma-separated names")
    known = KNAPSACK_ALGOS | SUBSETSUM_ALGOS
    for a in algos:
        if a not in known:
            raise InstanceFormatError(f"unknown algorithm {a!r}")
    subsetsum_side = tuple(a in SUBSETSUM_ALGOS for a in algos)
    if subsetsum_side[0] != subsetsum_side[1]:
        raise InstanceFormatError("--algos must both target the same problem kind")
    if args.trials < 1:
        raise InstanceFormatError("--trials must be positive")
    for trial in range(args.trials):
        rng = random.Random(args.seed * 1_000_003 + trial)
        instance = _verify_instance(rng, subsetsum_side[0], args.n, args.wmax, trial)
        got = [_verify_value(instance, a) for a in algos]
        if got[0] != got[1]:
            with open(FAIL_ARTIFACT, "w", encoding="utf-8") as handle:
                handle.write(serialize_instance(instance))
            print(
                f"trial {trial}: {algos[0]} = {got[0]} but {algos[1]} = {got[1]}; "
                f"instance written to {FAIL_ARTIFACT}",
                file=sys.stderr,
            )
            return 1
    print(f"{args.trials}/{args.trials} ok")
    return 0


# ---------------------------------------------------------------------------
# benchmarking


def _bench_seed(suite: str, n: int, w_max: int) -> int:
    return zlib.crc32(f"{suite}:{n}:{w_max}".encode())


BenchPoint = tuple[str, int, "KnapsackInstance | SubsetSumInstance", tuple[str, ...]]


def _knapsack_scaling_rows() -> list[BenchPoint]:
    rows: list[BenchPoint] = []
    for w_max in (64, 256, 1024):
        # Regime point: t = 50 n sqrt(w_max), where capacity-indexed DP pays
        # for every capacity cell but the proximity solver does not.
        n = 512
        rng = random.Random(_bench_seed("knapsack-scaling", n, w_max))
        items = _random_knapsack(rng, n, w_max, 4 * w_max, dense=False)
        t = 50 * n * math.isqrt(w_max)
        rows.append(("knapsack-scaling", w_max, KnapsackInstance(items, t), KNAPSACK_BENCH_ALGOS))
    # One tight-capacity point that exercises the full extension pipeline.
    n, w_max = 256, 64
    rng = random.Random(_bench_seed("knapsack-scaling-mid", n, w_max))
    items = _random_knapsack(rng, n, w_max, 4 * w_max, dense=False)
    t = int(0.45 * sum(it.weight for it in items))
    rows.append(("knapsack-scaling", w_max, KnapsackInstance(items, t), KNAPSACK_BENCH_ALGOS))
    return rows


def _subsetsum_scaling_rows() -> list[BenchPoint]:
    rows: list[BenchPoint] = []
    for w_max in (64, 256, 1024):
        n = 512
        rng = random.Random(_bench_seed("subsetsum-scaling", n, w_max))
        weights = tuple(rng.randint(1, w_max) for _ in range(n))
        t = sum(weights) // 2
        rows.append(
            ("subsetsum-scaling", w_max, SubsetSumInstance(weights, t), ("subsetsum-fast", "subsetsum-bitset"))
        )
    return rows


def _bench_report(
    instance: KnapsackInstance | SubsetSumInstance, algo: str
) -> RunReport:
    if algo == "bellman":
        start = time.perf_counter()
        value = int(bellman_dp(instance)[instance.t])
        millis = (time.perf_counter() - start) * 1000.0
        return RunReport(algo, value, None, millis, 0, 0)
    if algo in SUBSETSUM_ALGOS:
        return _timed_subsetsum(instance, algo)
    return _timed_knapsack(instance, algo)


def cmd_bench(args: argparse.Namespace) -> int:
    if args.suite == "knapsack-scaling":
        points = _knapsack_scaling_rows()
    else:
        points = _subsetsum_scaling_rows()
    out = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8", newline="")
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(BENCH_HEADER)
        for suite, w_max, instance, algos in points:
            values = set()
            for algo in algos:
                report = _bench_report(instance, algo)
                values.add(report.value)
                writer.writerow(
                    [
                        suite,
                        instance.n,
                        w_max,
                        instance.t,
                        algo,
                        report.value,
                        f"{report.millis:.3f}",
                        report.entry_evals,
                        report.conv_output_len,
                    ]
                )
            if len(values) != 1:
                raise ContractError(f"bench algorithms disagree on a point: {sorted(values)}")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# parser plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallweight",
        description="Exact knapsack / subset-sum solvers tuned for small maximum weight.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random instance file to stdout")
    gen.add_argument("kind", choices=GENERATE_KINDS)
    gen.add_argument("--n", type=int, default=10)
    gen.add_argument("--w-max", type=int, default=30)
    gen.add_argument("--p-max", type=int, default=None, help="default 4*w_max")
    group = gen.add_mutually_exclusive_group()
    group.add_argument("--t", type=int, default=None)
    group.add_argument("--t-ratio", type=float, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="solve one instance from a file or stdin")
    solve.add_argument("input", nargs="?", default="-", help="instance path, '-' for stdin")
    solve.add_argument("--algo", choices=SOLVE_ALGOS, default="auto")
    solve.add_argument("--witness", action="store_true", help="also print the chosen items")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="cross-check two algorithms on random instances")
    verify.add_argument("--algos", required=True, help="two names, comma separated")
    verify.add_argument("--trials", type=int, default=1000)
    verify.add_argument("--n", type=int, default=50)
    verify.add_argument("--wmax", type=int, default=25)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="time the solver back ends on a fixed suite")
    bench.add_argument("--suite", required=True, choices=BENCH_SUITES)
    bench.add_argument("--out", default="-", help="CSV output path, '-' for stdout")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
