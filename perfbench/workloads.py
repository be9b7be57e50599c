"""Seeded instance catalogues for the smallweight benchmark.

Each workload is a *round*: a fixed list of cells, each cell repeated a set
number of times with distinct instances.  The benchmark times whole rounds, so
every run sees the same mix of cheap and expensive solves.

Instances are built in two steps:

* the item multisets come from a fixed base seed, so their optimal values
  can be computed once by the reference oracles and stored in
  ``expected.json`` (the capacity DP alone needs minutes at n = 2^16);
* the run's ``--seed`` and the round number permute the items of every
  instance, and the seed orders each round.  Item order changes the solver's
  path (tie-breaking by index, the subset-sum greedy prefix in input order)
  but never the optimum.  Each round gets its own permutations, so a run
  averages over several orders of its slowest instances instead of repeating
  one draw.

Every generated instance has its capacity below the total weight of the items
that fit, so no solve can return on the take-everything shortcut.

Run as a script to list a workload's catalogue for a seed; it exits with an
error if any instance would be trivial::

    python3 perfbench/workloads.py --workload knap-auto --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import math
import random
import sys
import zlib
from dataclasses import dataclass
from typing import Iterator

BASE_SEED = 20230718


@dataclass(frozen=True)
class Cell:
    family: str  # "random" or "dense" knapsack, or "subsetsum"
    n: int
    w_max: int
    t_ratio: float  # capacity as a share of the total weight
    copies: int  # distinct instances of this cell per round
    n_max: int = 0  # if above n, each copy draws its size log-uniformly from [n, n_max]

    @property
    def label(self) -> str:
        size = f"{self.n}to{self.n_max}" if self.n_max > self.n else f"{self.n}"
        return f"{self.family}-n{size}-w{self.w_max}-r{self.t_ratio}"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "knapsack" (instance text) or "subsetsum"
    cells: tuple[Cell, ...]
    tail_pct: float  # latency_tail_ms percentile; a run has >= 10 samples beyond it

    @property
    def min_samples(self) -> int:
        """Fewest samples that leave at least 10 beyond ``tail_pct``."""
        beyond = 1.0 - self.tail_pct / 100.0
        return int(-(-10 // beyond))


def _grid(family, ns, ws, ratios, copies=1):
    return tuple(
        Cell(family, n, w, r, copies) for n in ns for w in ws for r in ratios
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Copies are set so that the median falls mid-cluster (the random
        # w_max=16 cells) and the tail among the slowest cells.  The large-n
        # cells keep the instio/model/profiles front end a visible share; the
        # capacity DP is over its cell budget there.
        Workload(
            "knap-auto",
            "knapsack",
            _grid("random", (256, 1024, 4096), (16,), (0.1, 0.45, 0.9), copies=2)
            + _grid("random", (256, 1024, 4096), (32,), (0.1, 0.45, 0.9))
            + _grid("dense", (256, 1024, 4096), (16, 32), (0.1, 0.45, 0.9))
            + _grid("random", (1 << 15, 1 << 16), (8, 16), (0.45,)),
            90.0,
        ),
        # The median falls among the w_max=64 and 96 shift-or solves, the
        # tail among the w_max=256 NTT solves; w_max=128 bridges the two.
        # Sizes are drawn per instance, not fixed per cell, and the median
        # sits where two w_max overlap, so the latencies there spread over
        # more than the host's own speed swings and no percentile sits on a
        # tight cluster or a gap, where a shift in host speed makes it jump.  n above 2000 at
        # w_max=256 is left out: one solve takes about 2 s at n=4000 and 3 s
        # at n=1e4 on a 2-core Xeon VM, too long for enough rounds in a run.
        Workload(
            "subsetsum",
            "subsetsum",
            (
                Cell("subsetsum", 1000, 64, 0.5, 8, n_max=10000),
                Cell("subsetsum", 1000, 96, 0.5, 4, n_max=10000),
                Cell("subsetsum", 1000, 128, 0.5, 2, n_max=2000),
                Cell("subsetsum", 1000, 256, 0.5, 4, n_max=2000),
            ),
            # The NTT time steps with n (power-of-two lengths): these draws
            # give two solves near 0.7 s and two near 1.2 s a round, and p93
            # falls amid the slower pair.
            93.0,
        ),
    )
}

# Tiny grids with the same shape, for the benchmark's own tests.
SMOKE_CELLS: dict[str, tuple[Cell, ...]] = {
    "knap-auto": _grid("random", (24,), (6,), (0.1, 0.45))
    + _grid("dense", (24,), (6,), (0.45,))
    + _grid("random", (64,), (4,), (0.45,)),
    "subsetsum": _grid("subsetsum", (40,), (8, 12), (0.5,)),
}


class TrivialInstanceError(ValueError):
    """A generated instance would be solved by the take-everything shortcut."""


@dataclass(frozen=True)
class Case:
    """One benchmark instance: items (or weights), capacity, and knapsack text."""

    key: str  # cell label plus copy number, the key into expected.json
    cell: Cell
    items: tuple[tuple[int, int], ...]  # (weight, profit); profit 0 for subset sum
    t: int
    text: str | None  # instance file text, for knapsack only

    def digest(self) -> str:
        """Order-free fingerprint of the instance, checked against expected.json."""
        body = f"{self.t}|{sorted(self.items)}".encode()
        return hashlib.sha256(body).hexdigest()[:16]


def _base_items(cell: Cell, rng: random.Random) -> list[tuple[int, int]]:
    n, w = cell.n, cell.w_max
    if cell.n_max > n:
        n = round(math.exp(rng.uniform(math.log(n), math.log(cell.n_max))))
    if cell.family == "subsetsum":
        return [(rng.randint(1, w), 0) for _ in range(n)]
    if cell.family == "dense":
        # Few distinct weights, many copies: long per-weight profiles.
        pool = rng.sample(range(1, w + 1), min(1 + rng.randrange(3), w))
        weights = [rng.choice(pool) for _ in range(n)]
    else:
        weights = [rng.randint(1, w) for _ in range(n)]
    return [(x, rng.randint(0, 4 * w)) for x in weights]


def _capacity(cell: Cell, items: list[tuple[int, int]]) -> int:
    total = sum(w for w, _ in items)
    if cell.family == "subsetsum":
        return total // 2
    return int(cell.t_ratio * total)


def check_nontrivial(items, t: int, key: str) -> None:
    """Raise unless the items that fit weigh more than the capacity."""
    fitting = sum(w for w, _ in items if w <= t)
    if fitting <= t:
        raise TrivialInstanceError(
            f"{key}: total weight {fitting} of fitting items is <= capacity {t}"
        )


def instance_text(case_items, t: int) -> str:
    lines = [f"knapsack {len(case_items)} {t}"]
    lines.extend(f"{w} {p}" for w, p in case_items)
    return "\n".join(lines) + "\n"


def iter_cases(workload: str, seed: int, *, smoke: bool = False,
               round_index: int = 0) -> Iterator[Case]:
    """The cases of one round in catalogue order, items permuted by ``seed``
    and ``round_index``.

    Each workload lists its cheapest cell first; that case is the warm-up.
    """
    spec = WORKLOADS[workload]
    cells = SMOKE_CELLS[workload] if smoke else spec.cells
    perm_rng = random.Random(f"{seed}:{round_index}")
    for cell in cells:
        for copy in range(cell.copies):
            key = f"{cell.label}-c{copy}"
            base_rng = random.Random(zlib.crc32(f"{BASE_SEED}:{key}".encode()))
            items = _base_items(cell, base_rng)
            t = _capacity(cell, items)
            check_nontrivial(items, t, key)
            perm_rng.shuffle(items)
            items_t = tuple(items)
            text = instance_text(items_t, t) if spec.kind == "knapsack" else None
            yield Case(key, cell, items_t, t, text)


def catalogue(workload: str, seed: int, *, smoke: bool = False,
              round_index: int = 0) -> list[Case]:
    return list(iter_cases(workload, seed, smoke=smoke, round_index=round_index))


def program_input(sw, spec: Workload, case: Case):
    """What the timed call receives: knapsack text, or a subset-sum instance."""
    if spec.kind == "knapsack":
        return case.text
    return sw.SubsetSumInstance(tuple(w for w, _ in case.items), case.t)


def solve_call(sw, spec: Workload, counters=None):
    """The public-API call one solve makes, looked up on ``sw`` at call time.

    ``sw`` is the imported ``smallweight`` package; ``counters`` is passed to
    the solver only in traced runs.
    """
    extra = {} if counters is None else {"counters": counters}
    if spec.kind == "knapsack":
        # As ``smallweight solve`` runs it: parse the text, default algo="auto".
        return lambda prog: sw.solve_01_knapsack(sw.parse_instance(prog), **extra)
    return lambda prog: sw.solve_subset_sum(prog, **extra)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny test grid")
    args = parser.parse_args(argv)
    try:
        cases = catalogue(args.workload, args.seed, smoke=args.smoke)
    except TrivialInstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for case in cases:
        total = sum(w for w, _ in case.items)
        print(f"{case.key} n={len(case.items)} t={case.t} total={total} "
              f"digest={case.digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
