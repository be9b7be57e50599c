"""0-1 knapsack solver: the exact routes behind ``solve_01_knapsack``.

Every route starts from the same normalization: drop items heavier than the
capacity and answer take-everything instances outright.  Then:

* ``bellman`` runs the capacity-indexed DP (``oracles.bellman_solve``):
  n * (t + 1) cells and an n x (t + 1) bool take matrix.
* ``window`` runs a 0/1 DP over the moves away from the greedy prefix,
  restricted to the proximity window (below): at most candidates x
  (b1 / 2 + 1) * w_max cells, independent of t.
* ``proximity`` runs the paper pipeline: greedy prefix plus two-phase
  concave extension (below).  It is the reference route and runs only when
  forced: on every measured cell it was orders of magnitude slower than the
  window.
* ``brute`` enumerates every subset (n <= 24).
* ``auto`` (the default) runs the window route, exactly as ``window`` does.
  The window never needs more cells or bytes than bellman (below), so
  bellman covers no instance the window cannot; when the window does not fit
  ``MEMORY_BUDGET``, ``solve_window`` raises ``ResourceLimitError`` before it
  allocates.  ``auto`` never takes the pipeline.

Both greedy-based routes start from ``profiles.greedy_prefix``: the one exact
efficiency order (``profiles.efficiency_order``) and the longest prefix of it
that fits, leaving a residual capacity t* in [0, w_max).

**Window DP.**  Some optimum differs from the greedy prefix in at most
b1 = min(n, 2 * w_max) items (the proximity bound that gate C4 checks); take
one with the fewest moves.  Within one weight it may as well drop the
cheapest prefix items and add the best outside items.  Profits are
non-negative, so it removes no item it could keep: every removed item r has
A - R + w_r > t*, where R and A are the removed and added weights, so
R < A + w_max.  With R <= #removals * w_max, A <= #additions * w_max and
#removals + #additions <= b1, that gives R <= H = floor((b1 + 1) / 2) * w_max,
and feasibility gives A <= R + t* <= H + t*.  The candidate moves are thus,
per weight w, the min(b1, H // w) cheapest prefix items (removals, shift -w)
and the min(b1, (H + t*) // w) best outside items (additions, shift +w).
The DP processes all removals, then all additions, keeping for every net
weight offset the best profit change.  The optimum's partial sums stay in
[-H, 0] during the removals and, as additions only raise the offset to an
end point of at most t*, in [-H, t*] during the additions.  Clipping the
table to that window therefore keeps the optimum's path, and every value in
the table is a genuine move set, so the best offset <= t* is the optimum.
Values are plain profits in int64 (|values| <= n * 2^32 < 2^55), so no tie
codec is needed; the witness comes from per-candidate packed take bits.

**The window never needs more than bellman.**  On a non-trivial instance
with n input items and capacity t:

* Width.  Removal candidates are distinct greedy-prefix items, and the
  prefix weighs t - t*, so lo >= -(t - t*); and hi <= t*.  The table thus
  has hi - lo + 1 <= t + 1 offsets, the length of bellman's row.
* Rows.  Candidates are distinct kept items, so there are at most
  norm.n <= n of them, bellman's row count.
* Cells.  No row is wider than the table, so ``plan.cells <= n * (t + 1)``,
  the number of cells bellman updates.
* Bytes.  ``WindowPlan.nbytes <= rows * (ceil((t + 1) / 8) + 200) +
  32 * (t + 1)``.  For t >= 229, ceil((t + 1) / 8) + 200 <= t + 1, so this
  is at most ``_bellman_nbytes(n, t) = (n + 32) * (t + 1)``.  For t <= 228,
  every kept weight is at most t, so there are at most 2t signed weights,
  each with at most b1 <= 2 * w_max <= 2t candidates: at most
  4 * 228^2 = 207,936 rows, and ``nbytes`` < 48 MB.

So with a ``MEMORY_BUDGET`` of at least 48 MB (it is 256 MiB), wherever
bellman fits the budget the window fits it too, and where the window is over
budget, bellman is as well.

**Proximity pipeline.**  Tie-break profits so efficiencies are strictly
distinct; take the maximal greedy prefix; reduce to the residual problem
over signed weight keys with strictly concave per-key profiles
(``profiles``); run the width-limited base dynamic program; extend the base
solutions with all positive keys, then all negative keys, using the
support-restricted extension solvers (``weakextend``); pick the best extended
entry within the residual capacity; and map the winning per-key counts back
to concrete items (add the best outside items, drop the cheapest prefix
items).

Why the pipeline's answer is exact even though the extension solvers are
only required to be optimal at indices whose maximizers respect the support
sets: some optimal residual solution's support pattern survives in the base
table, and along that solution's indices the support condition holds, so its
value appears among the extended entries; conversely every claimed entry,
when reconstructed, re-evaluates to at least its claimed value (concavity
makes skipping a key's first step an underestimate), and never above the
optimum.  At the argmax those bounds pinch, which the solver asserts
outright.  Its residual window is clipped to what single-copy base solutions
plus per-key count caps can reach, never beyond the +/- (moved items x max
weight) bound, so windows stay near ``sqrt(w_max) * w_max`` cells instead of
``n * t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    PROXIMITY_C,
    ContractError,
    Counters,
    KnapsackInstance,
    NormalizedKnapsack,
    ResourceLimitError,
    normalize_knapsack,
)
from .oracles import bellman_solve, brute_force_knapsack
from .profiles import (
    ProximityInstance,
    base_window,
    build_proximity_instance,
    greedy_prefix,
    prepare_base_solutions,
)
from .weakextend import WeakExtendInstance, large_b_extend

__all__ = [
    "ALGO_CHOICES",
    "MEMORY_BUDGET",
    "WindowPlan",
    "plan_window",
    "prefer_proximity",
    "solve_proximity",
    "solve_window",
    "solve_01_knapsack",
]

ALGO_CHOICES = ("auto", "window", "proximity", "bellman", "brute")

# Bytes the bellman take matrix, the window DP's take bits and work arrays, or
# the pipeline's tables may occupy.  Each route raises ResourceLimitError
# before it allocates beyond it (the pipeline, beyond a lower bound on its
# tables).  It must stay at least 48 MB for the module docstring's "bellman
# fits implies the window fits" to hold.
MEMORY_BUDGET = 1 << 28

# Five Python lists per window candidate (shift, gain, source bounds, take-bit
# offset), each a pointer plus an int object.
_LIST_BYTES = 5 * 40

# Marks unreachable window offsets.  Any value derived from it stays below
# -2^62 + n * 2^32 < -2^61, far under every reachable value (>= -2^55), and
# above -2^63, so int64 never wraps.
_UNREACHED = -(1 << 62)


def prefer_proximity(norm: NormalizedKnapsack) -> bool:
    """Estimate whether the proximity pipeline beats the capacity DP.

    Compares the proximity work b0 * w_max * (|W| + b1) against the DP's
    n * t cell count; the estimate favours the pipeline in the large-capacity
    regime.  ``auto`` does not call it: it runs the window, because the
    pipeline lost to the window on every measured cell.
    """
    n = norm.n
    if n == 0 or norm.trivial_all:
        return False
    w_max = norm.w_max
    b1 = min(n, 2 * w_max)
    distinct = len({it.weight for it in norm.items})
    west = min(n, 2 * distinct)
    b0 = min(math.isqrt(4 * PROXIMITY_C * PROXIMITY_C * w_max), b1)
    return b0 * w_max * (west + b1) < n * norm.t


@dataclass(frozen=True)
class WindowPlan:
    """Everything the window DP needs, fixed before it allocates by window size.

    Candidates run removals first (shift -w, cheapest prefix item of each
    weight first), then additions (shift +w, best outside item first); a
    candidate's source offsets are [src_lo, src_hi], where the table can
    already be reached and the target stays inside [lo, hi].
    """

    prefix_ids: np.ndarray  # original 1-based indices of the greedy prefix
    prefix_profit: int
    t_star: int
    lo: int
    hi: int
    shifts: np.ndarray  # signed weight per candidate
    gains: np.ndarray  # signed profit per candidate
    ids: np.ndarray  # original 1-based index per candidate
    src_lo: np.ndarray
    src_hi: np.ndarray

    @property
    def row_widths(self) -> np.ndarray:
        return np.maximum(self.src_hi - self.src_lo + 1, 0)

    @property
    def cells(self) -> int:
        return int(self.row_widths.sum())

    @property
    def nbytes(self) -> int:
        """Bytes ``solve_window`` allocates: the packed take bits, the int64
        table plus one row's temporaries (int64 candidates, their bool mask
        and its packed copy), and its per-candidate Python int lists."""
        take = int(((self.row_widths + 7) // 8).sum())
        return take + 32 * (self.hi - self.lo + 1) + _LIST_BYTES * self.shifts.size


def plan_window(norm: NormalizedKnapsack) -> WindowPlan:
    """Greedy prefix, per-weight candidate moves and the window around them.

    Requires a non-trivial instance (not everything fits).
    """
    greedy = greedy_prefix(norm)
    weights, profits, index, ties = greedy.weights, greedy.profits, greedy.index, greedy.ties
    head = greedy.order[: greedy.k]
    in_prefix = np.zeros(norm.n, dtype=bool)
    in_prefix[head] = True

    shifts = np.where(in_prefix, -weights, weights)
    gains = np.where(in_prefix, -profits, profits)
    # Within a shift, the best move first; among equal profits, the order of
    # the packed tie-broken profits (cheaper removal, better addition).
    ranked = np.lexsort((np.where(in_prefix, ties, -ties), -gains, shifts))
    ranked_shifts = shifts[ranked]
    starts = np.flatnonzero(np.r_[True, ranked_shifts[1:] != ranked_shifts[:-1]])
    sizes = np.diff(np.r_[starts, ranked.size])
    rank = np.arange(ranked.size) - np.repeat(starts, sizes)
    w_max = int(weights.max())
    b1 = min(norm.n, 2 * w_max)
    span = (b1 + 1) // 2 * w_max  # H in the module docstring
    t_star = greedy.t_star
    reach = np.where(ranked_shifts < 0, span, span + t_star)
    cand = ranked[rank < np.minimum(b1, reach // np.abs(ranked_shifts))]

    c_shifts = shifts[cand]
    m = int(np.count_nonzero(c_shifts < 0))  # removals come first
    lo = max(-span, int(c_shifts[:m].sum()))
    hi = min(t_star, int(c_shifts[m:].sum()))
    w_rem = -c_shifts[:m]
    w_add = c_shifts[m:]
    removed_before = np.cumsum(w_rem) - w_rem
    added_before = np.cumsum(w_add) - w_add
    src_lo = np.concatenate([
        np.maximum(np.maximum(lo, -removed_before), lo + w_rem),
        np.full(w_add.size, lo, dtype=np.int64),
    ])
    src_hi = np.concatenate([
        np.zeros(m, dtype=np.int64),
        np.minimum(np.minimum(hi, added_before), hi - w_add),
    ])
    return WindowPlan(
        prefix_ids=index[head],
        prefix_profit=int(profits[head].sum()),
        t_star=t_star,
        lo=lo,
        hi=hi,
        shifts=c_shifts,
        gains=gains[cand],
        ids=index[cand],
        src_lo=src_lo,
        src_hi=src_hi,
    )


def solve_window(
    plan: WindowPlan, *, counters: Counters | None = None
) -> tuple[int, np.ndarray]:
    """Best move set in the window: (profit change, candidate positions).

    Raises ResourceLimitError before allocating if the plan's take bits and
    table exceed ``MEMORY_BUDGET``.
    """
    if plan.nbytes > MEMORY_BUDGET:
        raise ResourceLimitError(
            f"window DP needs {plan.nbytes} bytes, budget is {MEMORY_BUDGET}"
        )
    lo = plan.lo
    best = np.full(plan.hi - lo + 1, _UNREACHED, dtype=np.int64)
    best[-lo] = 0
    row_bytes = (plan.row_widths + 7) // 8
    bits = np.empty(int(row_bytes.sum()), dtype=np.uint8)  # packed take bits
    offsets = (np.cumsum(row_bytes) - row_bytes).tolist()
    shifts = plan.shifts.tolist()
    src_lo = plan.src_lo.tolist()
    src_hi = plan.src_hi.tolist()
    for d, v, a, b, at in zip(shifts, plan.gains.tolist(), src_lo, src_hi, offsets):
        if a > b:
            continue
        tgt = best[a + d - lo : b + d - lo + 1]
        cand = best[a - lo : b - lo + 1] + v
        take = cand > tgt
        np.maximum(tgt, cand, out=tgt)
        bits[at : at + ((b - a) >> 3) + 1] = np.packbits(take)
    if counters is not None:
        counters.window_cells += plan.cells

    top = int(np.argmax(best))
    offset = lo + top
    chosen: list[int] = []
    for j in range(len(shifts) - 1, -1, -1):
        x = offset - (src_lo[j] + shifts[j])
        if 0 <= x <= src_hi[j] - src_lo[j]:
            if (bits[offsets[j] + (x >> 3)] >> (7 - (x & 7))) & 1:
                chosen.append(j)
                offset -= shifts[j]
    if offset != 0:
        raise ContractError("window take bits did not lead back to offset 0")
    return int(best[top]), np.array(chosen[::-1], dtype=np.int64)


def _bellman_nbytes(n: int, t: int) -> int:
    """Bytes ``bellman_solve`` allocates on n items: its n x (t + 1) bool take
    matrix plus a few int64 rows of length t + 1."""
    return n * (t + 1) + 32 * (t + 1)


def _extension_windows(prox: ProximityInstance, lo: int, hi: int) -> tuple[int, int]:
    """``solve_proximity``'s phase windows from the base window [lo, hi]: phase
    1 covers [lo, hi1], phase 2 [lo2, hi1].  Reachable indices only grow, by at
    most the summed per-key caps, and never beyond +/- b1 * w_max."""
    width_cap = prox.b1 * prox.w_max
    profiles = prox.profiles
    hi1 = min(width_cap, hi + sum(profiles[k].k * k for k in prox.keys_positive))
    lo2 = max(-width_cap, lo + sum(profiles[k].k * k for k in prox.keys_negative))
    return hi1, lo2


def _pipeline_nbytes(prox: ProximityInstance) -> int:
    """A lower bound on the bytes the pipeline allocates: the base table (int64
    values and candidates, int32 counts, bool flags and update row per cell,
    plus one packed fired row per key) and the two per-index Python lists of
    each extension phase.  The extension solvers' own work comes on top: at
    w_max=1024, n=4096 this bound is 184 MB and the pipeline grows past 3 GB.
    It guards only the forced route; ``auto`` never runs the pipeline."""
    lo, hi = base_window(prox)
    size = hi - lo + 1
    hi1, lo2 = _extension_windows(prox, lo, hi)
    base = 22 * size + len(prox.profiles) * ((size + 7) // 8)
    return base + 16 * ((hi1 - lo + 1) + (hi1 - lo2 + 1))


def solve_proximity(
    prox: ProximityInstance, *, counters: Counters | None = None
) -> tuple[int, dict[int, int]]:
    """Best residual move set: (packed gain, counts per signed weight key).

    The gain is relative to the greedy prefix; a count c on key +w means
    "add the c best outside items of weight w", on key -w "drop the c
    cheapest prefix items of weight w".  The returned counts always re-evaluate
    to exactly the returned gain and respect the per-key item caps.
    """
    need = _pipeline_nbytes(prox)
    if need > MEMORY_BUDGET:
        raise ResourceLimitError(
            f"proximity pipeline needs at least {need} bytes, budget is {MEMORY_BUDGET}"
        )
    base = prepare_base_solutions(prox, counters=counters)
    supports = base.supports_all()

    rows: dict[tuple[int, ...], int] = {}
    handle_of: dict[int, int | None] = {}
    for i, supp in supports.items():
        if not supp:
            handle_of[i] = None
            continue
        handle = rows.get(supp)
        if handle is None:
            handle = len(rows)
            rows[supp] = handle
        handle_of[i] = handle
    table = tuple(sorted(rows, key=rows.get))

    profiles = prox.profiles
    pos_keys = prox.keys_positive
    neg_keys = prox.keys_negative
    bound = max(prox.b0, 1)
    w1_lo = base.lo
    w1_hi, w2_lo = _extension_windows(prox, base.lo, base.hi)
    w2_hi = w1_hi

    # Phase 1: extend along positive keys.
    len1 = w1_hi - w1_lo + 1
    q1: list[int | None] = [None] * len1
    h1: list[int | None] = [None] * len1
    for i in supports:
        q1[i - w1_lo] = base.value(i)
        h1[i - w1_lo] = handle_of[i]
    inst1 = WeakExtendInstance(
        offset=w1_lo,
        q=q1,
        handles=h1,
        table=table,
        universe=frozenset(pos_keys),
        gains=profiles,
    )
    sol1 = large_b_extend(inst1, bound, counters=counters)

    # Phase 2: extend along negative keys; profits seed from phase 1 and the
    # support sets follow each entry's phase-1 origin.
    len2 = w2_hi - w2_lo + 1
    q2: list[int | None] = [None] * len2
    h2: list[int | None] = [None] * len2
    for p1 in range(len1):
        value = sol1.r[p1]
        if value is None:
            continue
        p2 = (w1_lo + p1) - w2_lo
        q2[p2] = value
        h2[p2] = h1[sol1.z[p1]]
    inst2 = WeakExtendInstance(
        offset=w2_lo,
        q=q2,
        handles=h2,
        table=table,
        universe=frozenset(neg_keys),
        gains=profiles,
    )
    sol2 = large_b_extend(inst2, bound, counters=counters)

    best_pos: int | None = None
    best_val = 0
    for p2 in range(min(prox.t_star, w2_hi) - w2_lo + 1):
        value = sol2.r[p2]
        if value is not None and (best_pos is None or value > best_val):
            best_pos, best_val = p2, value
    if best_pos is None:
        raise ContractError("the zero-move entry must always survive")

    counts_neg = sol2.vector(best_pos)
    p1 = (w2_lo + sol2.z[best_pos]) - w1_lo
    counts_pos = sol1.vector(p1)
    base_index = w1_lo + sol1.z[p1]
    counts: dict[int, int] = {k: 1 for k in supports[base_index]}
    for k, c in counts_pos.items():
        counts[k] = counts.get(k, 0) + c
    for k, c in counts_neg.items():
        counts[k] = counts.get(k, 0) + c

    total_packed = 0
    total_weight = 0
    for k, c in counts.items():
        profile = profiles[k]
        if c > profile.k:
            raise ContractError("winning counts exceed the available items")
        total_packed += profile.value(c)
        total_weight += k * c
    if total_packed != best_val:
        raise ContractError("reconstructed gain disagrees with the claimed optimum")
    if total_weight != w2_lo + best_pos:
        raise ContractError("reconstructed weight disagrees with its index")
    return best_val, {k: c for k, c in counts.items() if c > 0}


def _checked(
    instance: KnapsackInstance, value: int, selection: list[int]
) -> tuple[int, tuple[int, ...]]:
    """Re-price a selection against the instance before returning it."""
    selection = sorted(selection)
    check_weight = sum(instance.items[i - 1].weight for i in selection)
    check_value = sum(instance.items[i - 1].profit for i in selection)
    if check_weight > instance.t:
        raise ContractError("selection exceeds the capacity")
    if check_value != value:
        raise ContractError("selection value disagrees with the solved value")
    return value, tuple(selection)


def solve_01_knapsack(
    instance: KnapsackInstance,
    *,
    algo: str = "auto",
    counters: Counters | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Optimal value and one optimal selection (1-based item indices).

    ``algo`` picks the route: "window" (DP over moves in the proximity window),
    "proximity" (the prefix + extension pipeline), "bellman" (capacity DP),
    "brute" (exhaustive, small n), or "auto", the same route as "window":
    the window never needs more than bellman (module docstring).  A route
    that does not fit ``MEMORY_BUDGET`` raises ResourceLimitError before it
    allocates.
    """
    if algo not in ALGO_CHOICES:
        raise ValueError(f"unknown algorithm {algo!r}, pick one of {ALGO_CHOICES}")
    norm = normalize_knapsack(instance)
    if algo == "brute":
        return brute_force_knapsack(instance)
    if norm.n == 0:
        return 0, ()
    if norm.trivial_all:
        return (
            sum(it.profit for it in norm.items),
            tuple(it.index for it in norm.items),
        )
    if algo == "bellman":
        if _bellman_nbytes(instance.n, instance.t) > MEMORY_BUDGET:
            raise ResourceLimitError(
                f"capacity DP needs {_bellman_nbytes(instance.n, instance.t)} "
                f"bytes, budget is {MEMORY_BUDGET}"
            )
        return bellman_solve(instance)

    if algo in ("auto", "window"):
        plan = plan_window(norm)
        gain, picked = solve_window(plan, counters=counters)
        moved = plan.ids[picked]
        dropped = set(moved[plan.shifts[picked] < 0].tolist())
        kept = [i for i in plan.prefix_ids.tolist() if i not in dropped]
        added = moved[plan.shifts[picked] > 0].tolist()
        return _checked(instance, plan.prefix_profit + gain, kept + added)

    prox = build_proximity_instance(norm)
    gain, counts = solve_proximity(prox, counters=counters)
    removals: set[int] = set()
    additions: set[int] = set()
    for k, c in counts.items():
        chosen = prox.profiles[k].item_ids[:c]
        if k > 0:
            additions.update(chosen)
        else:
            removals.update(chosen)
    selection = (set(prox.prefix_ids) - removals) | additions
    return _checked(instance, prox.codec.main(prox.prefix_packed + gain), list(selection))
