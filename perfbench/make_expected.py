"""Compute the oracle answers the benchmark checks against.

Answers come from the package's reference oracles: the capacity-indexed DP
``oracles.bellman_dp`` for knapsack and the big-integer bitset
``oracles.bitset_subset_sums`` for subset sum.  They depend only on the item
multisets, which the benchmark builds from a fixed base seed, so they are
computed once and stored in ``expected.json`` next to this file.  Entries
whose instance digest already matches are kept, so adding cells only computes
the new ones.  The large-n cells take minutes each::

    python3 perfbench/make_expected.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, Case, catalogue  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"


def oracle_answer(case: Case) -> dict:
    """The reference answer for one case, as stored in expected.json."""
    from smallweight import Item, KnapsackInstance
    from smallweight.oracles import bellman_dp, bitset_subset_sums

    if case.cell.family == "subsetsum":
        sums = bitset_subset_sums((w for w, _ in case.items), case.t)
        return {"value": max(sums), "attainable": case.t in sums}
    instance = KnapsackInstance(tuple(Item(w, p) for w, p in case.items), case.t)
    cells = len(case.items) * (case.t + 1)
    return {"value": int(bellman_dp(instance, cell_budget=cells)[case.t])}


def load_expected() -> dict:
    if not EXPECTED_PATH.exists():
        return {}
    with EXPECTED_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    table = load_expected()
    for name in args.workload or sorted(WORKLOADS):
        old = table.get(name, {})
        new = {}
        for case in catalogue(name, 0):
            digest = case.digest()
            if old.get(case.key, {}).get("digest") == digest:
                new[case.key] = old[case.key]
                continue
            start = time.perf_counter()
            new[case.key] = {"digest": digest, **oracle_answer(case)}
            print(f"{name} {case.key}: {new[case.key]} "
                  f"in {time.perf_counter() - start:.1f}s", flush=True)
        table[name] = new
        with EXPECTED_PATH.open("w", encoding="utf-8") as handle:
            json.dump(table, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
