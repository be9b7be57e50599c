"""Reference solvers and checkers used to validate the fast algorithms.

Everything here favors obvious correctness over speed: exhaustive enumeration
for tiny instances, the classic capacity-indexed dynamic program, big-integer
bitsets for subset sums, and a row-by-row scanner for matrix row maxima.
These are the independent baselines the fast solvers are differential-tested
against, so none of them share code with the fast paths.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .model import (
    ContractError,
    KnapsackInstance,
    ResourceLimitError,
)
from .smawk import MatrixView

BRUTE_FORCE_MAX_ITEMS = 24
DEFAULT_CELL_BUDGET = 1 << 31


def brute_force_knapsack(
    instance: KnapsackInstance,
) -> tuple[int, tuple[int, ...]]:
    """Exhaustively enumerate all subsets (n <= 24).

    Returns the optimal value and the lexicographically smallest optimal
    selection as a sorted tuple of 1-based item indices.
    """
    n = instance.n
    if n > BRUTE_FORCE_MAX_ITEMS:
        raise ResourceLimitError(
            f"brute force limited to {BRUTE_FORCE_MAX_ITEMS} items, got {n}"
        )
    weights = np.zeros(1, dtype=np.int64)
    profits = np.zeros(1, dtype=np.int64)
    for w, p in instance.items:
        weights = np.concatenate([weights, weights + w])
        profits = np.concatenate([profits, profits + p])
    feasible = weights <= instance.t
    if not feasible.any():
        raise ContractError("the empty selection is always feasible")
    best = int(profits[feasible].max())
    tied = np.nonzero(feasible & (profits == best))[0]
    best_sel: tuple[int, ...] | None = None
    for mask in tied.tolist():
        sel = tuple(i + 1 for i in range(n) if mask >> i & 1)
        if best_sel is None or sel < best_sel:
            best_sel = sel
    assert best_sel is not None
    return best, best_sel


def _check_cell_budget(n: int, t: int, cell_budget: int) -> None:
    if n * (t + 1) > cell_budget:
        raise ResourceLimitError(
            f"dynamic program needs {n * (t + 1)} cells, budget is {cell_budget}"
        )


def bellman_dp(
    instance: KnapsackInstance, cell_budget: int = DEFAULT_CELL_BUDGET
) -> np.ndarray:
    """Capacity-indexed dynamic program.

    Returns the array ``opt[0..t]`` where ``opt[c]`` is the best total profit
    achievable with capacity ``c``.  The array is non-decreasing.
    """
    _check_cell_budget(instance.n, instance.t, cell_budget)
    opt = np.zeros(instance.t + 1, dtype=np.int64)
    for w, p in instance.items:
        if w <= instance.t:
            opt[w:] = np.maximum(opt[w:], opt[: instance.t + 1 - w] + p)
    return opt


def bellman_solve(
    instance: KnapsackInstance, cell_budget: int = DEFAULT_CELL_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Like bellman_dp but also reconstructs one optimal selection."""
    n, t = instance.n, instance.t
    _check_cell_budget(n, t, cell_budget)
    opt = np.zeros(t + 1, dtype=np.int64)
    taken = np.zeros((n, t + 1), dtype=bool)
    for j, (w, p) in enumerate(instance.items):
        if w > t:
            continue
        cand = opt[: t + 1 - w] + p
        better = cand > opt[w:]
        opt[w:] = np.where(better, cand, opt[w:])
        taken[j, w:] = better
    value = int(opt[t])
    sel: list[int] = []
    c = t
    for j in range(n - 1, -1, -1):
        if taken[j, c]:
            sel.append(j + 1)
            c -= instance.items[j].weight
    sel.reverse()
    return value, tuple(sel)


def bitset_subset_sums(weights: Iterable[int], t: int) -> set[int]:
    """All subset sums of ``weights`` that do not exceed ``t``."""
    if t < 0:
        raise ContractError("capacity must be non-negative")
    mask = (1 << (t + 1)) - 1
    bits = 1
    for w in weights:
        if w < 0:
            raise ContractError("weights must be non-negative")
        bits = (bits | (bits << w)) & mask
    out = set()
    s = bits
    while s:
        low = s & -s
        out.add(low.bit_length() - 1)
        s ^= low
    return out


def naive_row_maxima(view: MatrixView) -> list[int]:
    """Leftmost maximum column of each row by direct scanning.

    Rows with no finite entry map to column 1.  Views may expose
    ``row_dense(i) -> (values, defined)`` (numpy arrays over 0-based columns)
    to speed the scan up; semantics are identical to entry-by-entry scanning.
    """
    out: list[int] = []
    row_dense = getattr(view, "row_dense", None)
    for i in range(1, view.n_rows + 1):
        if row_dense is not None:
            values, defined = row_dense(i)
            idx = np.nonzero(defined)[0]
            if idx.size == 0:
                out.append(1)
            else:
                k = int(np.argmax(values[idx]))
                out.append(int(idx[k]) + 1)
            continue
        best_j = 1
        best_v: int | None = None
        for j in range(1, view.n_cols + 1):
            v = view.entry(i, j)
            if v is None:
                continue
            if best_v is None or v > best_v:
                best_v = v
                best_j = j
        out.append(best_j)
    return out


def proximity_check(
    prefix_selection: Iterable[int],
    solution_selection: Iterable[int],
    instance: KnapsackInstance,
) -> tuple[int, int]:
    """Distance between two selections of the same instance.

    Returns ``(l1, l0)``: the number of items in the symmetric difference,
    and the number of distinct weights on each side of the difference summed
    over both sides.
    """
    p = set(prefix_selection)
    q = set(solution_selection)
    only_p = p - q
    only_q = q - p
    w = lambda s: {instance.items[i - 1].weight for i in s}
    l1 = len(only_p) + len(only_q)
    l0 = len(w(only_p)) + len(w(only_q))
    return l1, l0
