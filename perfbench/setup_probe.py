"""Time one cold set-up in a fresh interpreter and print it in seconds.

Set-up is ``import smallweight`` plus one warm-up solve of the workload's
first (cheapest) case.  Generating that case and building its instance object
are not timed.  The benchmark runs this script several times per run and
reports the median::

    python3 perfbench/setup_probe.py --workload knap-auto --seed 1
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, iter_cases, program_input, solve_call  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny test grid")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    case = next(iter_cases(args.workload, args.seed, smoke=args.smoke))

    start = time.perf_counter()
    import smallweight

    imported = time.perf_counter() - start
    prog = program_input(smallweight, spec, case)
    call = solve_call(smallweight, spec)
    start = time.perf_counter()
    call(prog)
    solved = time.perf_counter() - start
    print(repr(imported + solved))
    return 0


if __name__ == "__main__":
    sys.exit(main())
