"""The smallweight benchmark: one workload per run, a closed loop with one client.

One process calls the public API (``solve_01_knapsack``, ``parse_instance``,
``solve_subset_sum``) on a seeded catalogue of instances, one call after the
other, and times each call from outside.  It runs the number of whole rounds
of the catalogue that comes nearest ``--seconds``, and at least enough for
ten samples beyond the workload's tail percentile.  Each round permutes the
items of every instance anew (see ``workloads.py``).  After each call, outside
its timing, the answer is checked against the oracle answers in
``expected.json``, and every knapsack selection is re-priced (weight within
the capacity, profit equal to the reported value).

A solve that runs longer than ``CAP_S`` is interrupted by ``SIGALRM``,
recorded as a timeout, counted as failed, and the run continues.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run is repeated with every layer's
public functions traced (see ``layertrace.py``), traced answers must equal
untraced ones, and the JSON holds the per-layer metrics.  Lines before it,
starting with ``#``, give the environment stamp and the sample counts::

    python3 perfbench/run.py --workload knap-auto --seed 1 --seconds 55 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CAP_S = 30.0  # per-solve time cap
HARD_LIMIT_S = 75.0  # no new round starts after this much solving time
SETUP_REPEATS = 7  # fresh-interpreter set-ups per run; the median is reported


class SolveTimeout(Exception):
    """Raised inside a solve that exceeded its time cap."""


@contextlib.contextmanager
def time_cap(seconds: float):
    """Raise SolveTimeout in this thread if the block outlives ``seconds``."""

    def expire(signum, frame):
        raise SolveTimeout(f"solve exceeded {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Sample:
    key: str  # the case's key
    seconds: float
    fingerprint: int | None  # hash of the answer, to compare traced with untraced
    error: str | None  # "timeout", an exception, or why the answer is wrong
    wrong: bool = False  # the answer disagreed with the oracle or its own price
    round: int = 0  # the round the case was drawn for


@dataclass
class Phase:
    samples: list[Sample]  # round after round, each round the whole catalogue
    round_walls: list[float]  # wall time of each round, less answer checking

    @property
    def rounds(self) -> int:
        return len(self.round_walls)

    @property
    def wall_s(self) -> float:
        return sum(self.round_walls)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.error is not None)

    @property
    def wrong(self) -> int:
        return sum(1 for s in self.samples if s.wrong)

    @property
    def solves_per_s(self) -> float:
        """Correct solves over the wall time of the whole phase."""
        return (len(self.samples) - self.failed) / self.wall_s


def run_phase(plan_for, call, expected, *, seconds, min_samples, rng, cap_s=CAP_S,
              rounds=None) -> Phase:
    """Whole rounds, round ``r`` being ``plan_for(r)`` [(case, program input)]
    in shuffled order.  Building a round's plan is not timed.

    Runs ``rounds`` rounds if given.  Otherwise it stops at the round count
    that lands nearest ``seconds`` of solving, once ``min_samples`` were
    taken, or after HARD_LIMIT_S.  Each answer is checked against
    ``expected`` right after its call, outside the call's timing and the
    phase's wall time.
    """
    samples: list[Sample] = []
    walls: list[float] = []
    while True:
        plan = None  # free the last round's inputs before building the next
        plan = plan_for(len(walls))
        order = list(range(len(plan)))
        rng.shuffle(order)
        checking = 0.0
        start = time.perf_counter()
        for idx in order:
            case, prog = plan[idx]
            answer, error = None, None
            t0 = time.perf_counter()
            try:
                with time_cap(cap_s):
                    answer = call(prog)
            except SolveTimeout:
                error = "timeout"
            except Exception as exc:  # a failing solve is recorded; the run goes on
                error = f"raised {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            t1 = time.perf_counter()
            sample = Sample(case.key, t1 - t0, None, error, round=len(walls))
            if error is None:
                sample.fingerprint = hash(answer)
                sample.error = check_answer(case, answer, expected[case.key])
                sample.wrong = sample.error is not None
            samples.append(sample)
            checking += time.perf_counter() - t1
        walls.append(time.perf_counter() - start - checking)
        solving = sum(walls)
        if rounds is not None:
            if len(walls) >= rounds:
                break
        elif solving >= HARD_LIMIT_S or (
            len(samples) >= min_samples and solving + solving / len(walls) / 2 >= seconds
        ):
            break
    return Phase(samples, walls)


def check_answer(case, answer, expected: dict) -> str | None:
    """Why ``answer`` is wrong for ``case``, or None if it is right."""
    if case.cell.family == "subsetsum":
        got = (answer.value, answer.attainable)
        want = (expected["value"], expected["attainable"])
        return None if got == want else f"subset sum {got} != oracle {want}"
    value, selection = answer
    if value != expected["value"]:
        return f"value {value} != oracle {expected['value']}"
    n = len(case.items)
    if len(set(selection)) != len(selection) or not all(1 <= i <= n for i in selection):
        return "selection has repeated or out-of-range indices"
    weight = sum(case.items[i - 1][0] for i in selection)
    profit = sum(case.items[i - 1][1] for i in selection)
    if weight > case.t:
        return f"selection weight {weight} exceeds capacity {case.t}"
    if profit != value:
        return f"selection profit {profit} != reported value {value}"
    return None


def compare_traced(untraced: Phase, traced: Phase) -> None:
    """Mark traced answers that differ from the untraced answer of the same case."""
    reference = {(s.round, s.key): s.fingerprint for s in untraced.samples if s.error is None}
    for s in traced.samples:
        if s.error is None and reference.get((s.round, s.key), s.fingerprint) != s.fingerprint:
            s.error = "traced answer differs from untraced answer"
            s.wrong = True


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linearly interpolated percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def latency_summary(phase: Phase, tail_pct: float) -> dict:
    ms = sorted(s.seconds * 1000.0 for s in phase.samples)
    tail = percentile(ms, tail_pct)
    return {
        "p50_ms": percentile(ms, 50.0),
        "tail_ms": tail,
        "tail_pct": tail_pct,
        "samples": len(ms),
        "beyond_tail": sum(1 for x in ms if x > tail),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure_setup(workload: str, seed: int, smoke: bool) -> list[float]:
    """Set-up seconds from SETUP_REPEATS fresh interpreters."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
           "--seed", str(seed)] + (["--smoke"] if smoke else [])
    out = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Digest of the package sources, which identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def env_stamp(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def load_expected(workload: str, cases, smoke: bool) -> dict:
    """Oracle answers by case key; computed live for the tiny smoke grid."""
    from make_expected import load_expected as load_table, oracle_answer

    if smoke:
        return {c.key: oracle_answer(c) for c in cases}
    table = load_table().get(workload, {})
    for c in cases:
        entry = table.get(c.key)
        if entry is None or entry["digest"] != c.digest():
            raise SystemExit(
                f"expected.json has no answer for {workload}/{c.key} with digest "
                f"{c.digest()}; rerun perfbench/make_expected.py"
            )
    return {c.key: table[c.key] for c in cases}


def info(line: str) -> None:
    print(f"# {line}", flush=True)


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS, catalogue, program_input, solve_call

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids with live oracle answers, for tests")
    args = parser.parse_args(argv)
    if not (SRC / "smallweight" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]

    # Permutations leave the instance digests, and so the oracle answers, alone.
    expected = load_expected(args.workload, catalogue(args.workload, args.seed, smoke=args.smoke),
                             args.smoke)
    setup = measure_setup(args.workload, args.seed, args.smoke)

    sys.path.insert(0, str(SRC))
    import numpy
    import smallweight

    info("env " + json.dumps(env_stamp(args, numpy.__version__), sort_keys=True))

    def plan_for(round_index: int):
        cases = catalogue(args.workload, args.seed, smoke=args.smoke, round_index=round_index)
        return [(c, program_input(smallweight, spec, c)) for c in cases]

    solve_call(smallweight, spec)(plan_for(0)[0][1])  # untimed warm-up
    rng = random.Random(args.seed)

    if not args.trace:
        phase = run_phase(plan_for, solve_call(smallweight, spec), expected,
                          seconds=args.seconds, min_samples=spec.min_samples, rng=rng)
        rss = peak_rss_mb()
        lat = latency_summary(phase, spec.tail_pct)
        info(f"rounds={phase.rounds} samples={lat['samples']} wall_s={phase.wall_s:.3f} "
             f"latency_tail_ms is p{lat['tail_pct']:g} with {lat['beyond_tail']} samples "
             f"beyond it; failed_frac={phase.failed / len(phase.samples):g}; "
             f"setup samples {setup}")
        report_failures(phase)
        metrics = {
            "solves_per_s": (phase.solves_per_s, "1/s"),
            "latency_p50_ms": (lat["p50_ms"], "ms"),
            "latency_tail_ms": (lat["tail_ms"], "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        emit([phase], metrics)
        return 0

    from layertrace import LayerTrace

    untraced = run_phase(plan_for, solve_call(smallweight, spec), expected,
                         seconds=args.seconds / 2, min_samples=1, rng=rng)
    counters = smallweight.Counters()
    with LayerTrace(counters) as trace:
        traced = run_phase(plan_for, solve_call(smallweight, spec, counters), expected,
                           seconds=0, min_samples=1, rng=rng, rounds=untraced.rounds)
    compare_traced(untraced, traced)
    metrics = trace.metrics()
    metrics["trace.overhead_frac"] = (untraced.solves_per_s / traced.solves_per_s - 1.0, "frac")
    shares = {k: round(v / traced.wall_s, 4) for k, v in sorted(trace.layer_self_s().items())}
    info(f"rounds={traced.rounds} traced_wall_s={traced.wall_s:.3f} "
         f"layer self-time shares {json.dumps(shares)}")
    report_failures(untraced)
    report_failures(traced)
    emit([untraced, traced], metrics)
    return 0


def report_failures(phase: Phase) -> None:
    for s in phase.samples:
        if s.error is not None:
            info(f"failed {s.key}: {s.error}")


def emit(phases: list[Phase], metrics: dict) -> None:
    """Print the result line: correctness, solve counts, metrics with units."""
    result = {
        "correct": not any(p.wrong for p in phases),
        "attempted": sum(len(p.samples) for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
