"""Support-restricted concave extension of profit arrays.

The proximity solver repeatedly answers questions of this shape: given a
profit value q[i] for every index of a weight window, a small set S[i] of
weight keys attached to each index, and a strictly concave gain Q_w per key,
find for every target index the best way to start from some source index and
add multiples of a key — where the answer is only *required* to be optimal at
targets whose every maximizer extends along keys inside the source's set.
That weakening is what makes near-linear algorithms possible, and everything
in this module exploits it.

Three solver levels, each built on the previous:

* :func:`singleton_extend` — every set has at most one key.  For every
  (key, residue) class the candidate updates form a staircase matrix whose
  row maxima ``smawk_compact`` reports as per-source index progressions; a
  single left-to-right bucket scan then keeps only progressions that keep
  winning, which strict concavity shows is enough at every required index.
* :func:`small_b_extend` — sets up to size ``b``.  A short list of colorings
  (``derandom.isolating_colorings``) rainbow-colors every distinct set at
  least once; per coloring, indices whose set it isolates are solved by
  running :func:`singleton_extend` color class by color class, feeding each
  round's output into the next, and the per-coloring answers are merged by
  entry-wise maximum.
* :func:`large_b_extend` — arbitrary ``b``.  ``derandom.balls_and_bins``
  splits the key universe into classes with logarithmic per-set overlap, and
  each class is solved by :func:`small_b_extend` on the running instance.

Instances reference their sets through integer handles into a shared table —
updates move handles, never copy sets — and solutions carry per-index
predecessor chains (immutable, structure-shared), so composing stages costs
O(1) per updated index and full count vectors are materialized only on
demand via :meth:`WeakExtendSolution.vector`.

All-negative key universes are supported by reflecting the window (reverse
the arrays, negate the keys), running the all-positive code, and reflecting
the result back; public inputs and outputs always use the caller's
coordinates and key signs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

from .derandom import SetSystem, balls_and_bins, isolating_colorings
from .model import ContractError, Counters
from .smawk import RowMaximaBreakpoints, smawk_compact

__all__ = [
    "GainFunction",
    "APSegment",
    "WeakExtendInstance",
    "WeakExtendSolution",
    "trivial_solution",
    "singleton_extend",
    "restrict_instance",
    "update_instance",
    "compose_solutions",
    "max_solutions",
    "small_b_extend",
    "large_b_extend",
]


class GainFunction(Protocol):
    """Strictly concave integer gain with gain(0) = 0.

    ``gain(x)`` must be defined for every x >= 0 with strictly decreasing
    increments, so that extending further along the same key always has
    diminishing returns.  ``profiles.ConcaveProfile`` satisfies this
    protocol.
    """

    def gain(self, x: int) -> int: ...


@dataclass(frozen=True, slots=True)
class APSegment:
    """One source's winning index progression: i = c + k*w .. c + ell*w.

    Represents the candidate updates q[j] + Q_w((i - j) / w) for the indices
    of the progression.  After the corner split the progression never starts
    left of its source.
    """

    j: int
    c: int
    w: int
    k: int
    ell: int

    def __post_init__(self):
        if not 0 <= self.c < self.w:
            raise ContractError("residue must lie in [0, w)")
        if self.k > self.ell:
            raise ContractError("empty progression")
        if self.c + self.k * self.w < self.j:
            raise ContractError("progression starts left of its source")


@dataclass(frozen=True)
class WeakExtendInstance:
    """A profit window, per-index set handles, and per-key concave gains.

    ``q[p]`` is the profit at window position p (true index ``offset + p``),
    or None where undefined.  ``handles[p]`` points into ``table``; the
    semantic set of position p is ``table[handles[p]]`` intersected with
    ``universe``, so restricting the key universe never copies a set, and
    rows may keep keys outside the universe (they are simply invisible).
    All universe keys must share one sign; gains must cover the universe.
    """

    offset: int
    q: tuple[int | None, ...]
    handles: tuple[int | None, ...]
    table: tuple[tuple[int, ...], ...]
    universe: frozenset[int]
    gains: Mapping[int, GainFunction]
    _resolved: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(self.q))
        object.__setattr__(self, "handles", tuple(self.handles))
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        object.__setattr__(self, "universe", frozenset(self.universe))
        if len(self.q) != len(self.handles):
            raise ContractError("profit and handle arrays must align")
        if not self.q:
            raise ContractError("the window must be non-empty")
        if any(k == 0 for k in self.universe):
            raise ContractError("weight keys are non-zero")
        if any(k > 0 for k in self.universe) and any(k < 0 for k in self.universe):
            raise ContractError("universe keys must share one sign")
        for h in self.handles:
            if h is not None and not 0 <= h < len(self.table):
                raise ContractError(f"handle {h} outside the set table")
        missing = [k for k in self.universe if k not in self.gains]
        if missing:
            raise ContractError(f"gains missing for keys {sorted(missing)}")

    @property
    def length(self) -> int:
        return len(self.q)

    def resolve(self, handle: int | None) -> tuple[int, ...]:
        """The universe-restricted set behind a handle, cached per handle."""
        if handle is None:
            return ()
        got = self._resolved.get(handle)
        if got is None:
            got = tuple(sorted(k for k in self.table[handle] if k in self.universe))
            self._resolved[handle] = got
        return got

    def set_of(self, pos: int) -> tuple[int, ...]:
        return self.resolve(self.handles[pos])


class WeakExtendSolution:
    """Per-index best extensions: profit r, source z, and a count chain.

    ``r[p]`` is the achieved profit at position p (None if undefined),
    ``z[p]`` the position this solution started from, and ``delta[p]`` an
    immutable chain encoding the per-key counts added between z[p] and p.
    Chain nodes are either a step ``(key, count, parent)`` or a join
    ``(left, right)``; nodes are shared freely across indices and solutions,
    which is what keeps stage composition O(1) per index.  ``keys`` records
    the key subset this solution extends along; ``negate`` marks solutions
    computed in reflected coordinates, whose stored step keys flip sign when
    materialized.
    """

    __slots__ = ("offset", "keys", "negate", "r", "z", "delta")

    def __init__(
        self,
        offset: int,
        keys: frozenset[int],
        negate: bool,
        r: list[int | None],
        z: list[int],
        delta: list,
    ):
        if not (len(r) == len(z) == len(delta)):
            raise ContractError("solution arrays must align")
        self.offset = offset
        self.keys = frozenset(keys)
        self.negate = negate
        self.r = r
        self.z = z
        self.delta = delta

    @property
    def length(self) -> int:
        return len(self.r)

    def vector(self, pos: int) -> dict[int, int]:
        """Materialize the per-key counts behind position p."""
        out: dict[int, int] = {}
        start = self.delta[pos]
        if start is None:
            return out
        flip = self.negate
        stack = [start]
        while stack:
            node = stack.pop()
            if len(node) == 3:
                key, cnt, parent = node
                if flip:
                    key = -key
                out[key] = out.get(key, 0) + cnt
                if parent is not None:
                    stack.append(parent)
            else:
                left, right = node
                if left is not None:
                    stack.append(left)
                if right is not None:
                    stack.append(right)
        return out

    def __repr__(self) -> str:  # short, arrays can be long
        return (
            f"WeakExtendSolution(offset={self.offset}, length={self.length}, "
            f"keys={sorted(self.keys)})"
        )


def trivial_solution(instance: WeakExtendInstance) -> WeakExtendSolution:
    """The do-nothing solution: every index keeps its own profit."""
    L = instance.length
    return WeakExtendSolution(
        offset=instance.offset,
        keys=instance.universe,
        negate=any(k < 0 for k in instance.universe),
        r=list(instance.q),
        z=list(range(L)),
        delta=[None] * L,
    )


# -- singleton solver ---------------------------------------------------------


class _StaircaseView:
    """Candidate-update matrix for one (key, residue) class, 1-based.

    Row i is target index c + (i-1)*w, column j the j-th source; the entry is
    the profit of extending that source to that target, None when the target
    lies left of the source.  Gains are concave, so the finite region
    satisfies the convex Monge condition smawk_compact requires.  The entry
    accessor is a per-instance closure over a plain prefix list of gains —
    this sits on the hottest path of the whole solver.
    """

    __slots__ = ("n_rows", "n_cols", "entry")

    def __init__(self, n_rows, sources, q, gain_table, c, w):
        self.n_rows = n_rows
        self.n_cols = len(sources)

        def entry(i: int, j: int, _s=sources, _q=q, _g=gain_table, _c=c, _w=w):
            src = _s[j - 1]
            target = _c + (i - 1) * _w
            if target < src:
                return None
            return _q[src] + _g[(target - src) // _w]

        self.entry = entry


def _gain_tables(
    length: int, keys, gains: Mapping[int, GainFunction]
) -> dict[int, list[int]]:
    """Per-key gain prefix lists covering every count the window can hold."""
    tables: dict[int, list[int]] = {}
    for w in keys:
        gain = gains[w].gain
        tables[w] = [gain(x) for x in range((length - 1) // w + 1)]
    return tables


def _collect_segments(
    length: int,
    q: Sequence[int | None],
    sources: Mapping[int, int],
    gtabs: Mapping[int, list[int]],
    counters: Counters | None,
) -> list[APSegment]:
    """Stage 1: per (key, residue) class, SMAWK row maxima as progressions."""
    groups: dict[tuple[int, int], list[int]] = {}
    for j, w in sources.items():
        groups.setdefault((w, j % w), []).append(j)
    segments: list[APSegment] = []
    for (w, c), js in sorted(groups.items()):
        js.sort()
        n_rows = (length - 1 - c) // w + 1
        if len(js) == 1:
            # One source owns every row of its class; the breakpoint pair is
            # forced, and the clamp below trims the rows left of the source.
            breakpoints: RowMaximaBreakpoints = (1, n_rows + 1)
        else:
            view = _StaircaseView(n_rows, js, q, gtabs[w], c, w)
            breakpoints = smawk_compact(view, counters)
        for col in range(1, len(js) + 1):
            j = js[col - 1]
            lo_row = breakpoints[col - 1]
            hi_row = breakpoints[col] - 1
            lo_row = max(lo_row, (j - c) // w + 1)  # targets left of j are undefined
            if lo_row > hi_row:
                continue
            k, ell = lo_row - 1, hi_row - 1
            if c + k * w == j:
                # Source-at-start corner: split off the zero-step element so
                # every progression in the scan strictly advances its source.
                segments.append(APSegment(j, c, w, k, k))
                if k + 1 <= ell:
                    segments.append(APSegment(j, c, w, k + 1, ell))
            else:
                segments.append(APSegment(j, c, w, k, ell))
    return segments


def _singleton_scan(
    q: Sequence[int | None],
    segments: list[APSegment],
    gtabs: Mapping[int, list[int]],
) -> list[tuple[int, int, int, int, int]]:
    """Stage 2: left-to-right bucket scan over the progressions.

    Buckets are kept sparse (dict plus a heap of occupied indices), so the
    cost is proportional to the number of progression events, not the window
    length.  Returns records (target, source, key, count, profit), at most
    one per target, each a strict improvement over q[target].
    """
    buckets: dict[int, list[APSegment]] = {}
    heap: list[int] = []

    def insert(seg: APSegment, idx: int) -> None:
        bucket = buckets.get(idx)
        if bucket is None:
            buckets[idx] = [seg]
            heapq.heappush(heap, idx)
        else:
            bucket.append(seg)

    for seg in segments:
        insert(seg, seg.c + seg.k * seg.w)

    records: list[tuple[int, int, int, int, int]] = []
    while heap:
        i = heapq.heappop(heap)
        best_seg: APSegment | None = None
        best_val = 0
        best_rank: tuple[int, int, int] | None = None
        for seg in buckets.pop(i):
            val = q[seg.j] + gtabs[seg.w][(i - seg.j) // seg.w]
            rank = (val, -seg.j, -seg.w)  # ties: smallest source, smallest key
            if best_rank is None or rank > best_rank:
                best_seg, best_val, best_rank = seg, val, rank
        assert best_seg is not None
        current = q[i]
        if current is None or best_val > current:
            count = (i - best_seg.j) // best_seg.w
            assert count > 0, "zero-step updates are never strict improvements"
            records.append((i, best_seg.j, best_seg.w, count, best_val))
        nxt = i + best_seg.w
        if nxt <= best_seg.c + best_seg.ell * best_seg.w:
            insert(best_seg, nxt)  # the winner advances; the rest are dropped
    return records


def _singleton_sparse(
    length: int,
    q: Sequence[int | None],
    sources: Mapping[int, int],
    gtabs: Mapping[int, list[int]],
    counters: Counters | None,
) -> list[tuple[int, int, int, int, int]]:
    """Improvement records for sources {position: positive key}."""
    if not sources:
        return []
    segments = _collect_segments(length, q, sources, gtabs, counters)
    return _singleton_scan(q, segments, gtabs)


def _reflect_instance(instance: WeakExtendInstance) -> WeakExtendInstance:
    """Reverse the window and negate the keys, making the universe positive."""
    L = instance.length
    return WeakExtendInstance(
        offset=-(instance.offset + L - 1),
        q=tuple(reversed(instance.q)),
        handles=tuple(reversed(instance.handles)),
        table=tuple(tuple(-k for k in row) for row in instance.table),
        universe=frozenset(-k for k in instance.universe),
        gains={-k: instance.gains[k] for k in instance.universe},
    )


def _unreflect_solution(
    reflected: WeakExtendSolution, instance: WeakExtendInstance
) -> WeakExtendSolution:
    """Map a solution of the reflected instance back to caller coordinates."""
    L = reflected.length
    last = L - 1
    return WeakExtendSolution(
        offset=instance.offset,
        keys=instance.universe,
        negate=True,
        r=[reflected.r[last - p] for p in range(L)],
        z=[last - reflected.z[last - p] for p in range(L)],
        delta=[reflected.delta[last - p] for p in range(L)],
    )


def singleton_extend(
    instance: WeakExtendInstance, *, counters: Counters | None = None
) -> WeakExtendSolution:
    """Best extensions when every index's set holds at most one key.

    The output is exact at every index where all maximizers extend along a
    key contained in their source's set; elsewhere it is still a feasible
    extension (its profit is recomputable from the source and counts).
    """
    for pos in range(instance.length):
        if len(instance.set_of(pos)) > 1:
            raise ContractError(
                f"position {pos} holds {len(instance.set_of(pos))} keys; "
                "the singleton solver needs at most one"
            )
    if any(k < 0 for k in instance.universe):
        work = _reflect_instance(instance)
    else:
        work = instance
    sources: dict[int, int] = {}
    for pos in range(work.length):
        if work.q[pos] is None:
            continue
        keys = work.set_of(pos)
        if keys:
            sources[pos] = keys[0]
    gtabs = _gain_tables(work.length, set(sources.values()), work.gains)
    records = _singleton_sparse(work.length, work.q, sources, gtabs, counters)
    r: list[int | None] = list(work.q)
    z = list(range(work.length))
    delta: list = [None] * work.length
    for i, j, w, cnt, val in records:
        r[i] = val
        z[i] = j
        delta[i] = (w, cnt, None)
    solution = WeakExtendSolution(
        offset=work.offset,
        keys=work.universe,
        negate=False,
        r=r,
        z=z,
        delta=delta,
    )
    if work is not instance:
        solution = _unreflect_solution(solution, instance)
    return solution


# -- composition helpers ------------------------------------------------------


def restrict_instance(
    instance: WeakExtendInstance, keys: Sequence[int]
) -> WeakExtendInstance:
    """The same window with the key universe narrowed to ``keys``."""
    wanted = frozenset(keys)
    if not wanted <= instance.universe:
        raise ContractError("restriction keys must come from the universe")
    return WeakExtendInstance(
        offset=instance.offset,
        q=instance.q,
        handles=instance.handles,
        table=instance.table,
        universe=wanted,
        gains=instance.gains,
    )


def update_instance(
    instance: WeakExtendInstance,
    keys: Sequence[int],
    solution: WeakExtendSolution,
) -> WeakExtendInstance:
    """Fold a solved key subset into the profits; sets follow the sources.

    The new instance starts every index at the profit the solution achieved
    there and inherits the *source's* set handle minus the solved keys —
    which the handle mechanism realizes without copying a single set.
    """
    solved = frozenset(keys)
    if solution.keys != solved:
        raise ContractError("solution does not cover exactly the given keys")
    if not solved <= instance.universe:
        raise ContractError("solved keys must come from the universe")
    if solution.length != instance.length or solution.offset != instance.offset:
        raise ContractError("solution window does not match the instance")
    return WeakExtendInstance(
        offset=instance.offset,
        q=tuple(solution.r),
        handles=tuple(instance.handles[zp] for zp in solution.z),
        table=instance.table,
        universe=instance.universe - solved,
        gains=instance.gains,
    )


def compose_solutions(
    first: WeakExtendSolution, second: WeakExtendSolution
) -> WeakExtendSolution:
    """Chain two stages: ``second`` extends the array ``first`` produced.

    The composed source is the first stage's source at the second stage's
    source, and the count chains concatenate; profits are the second
    stage's.  Key subsets must be disjoint.
    """
    if first.keys & second.keys:
        raise ContractError("composed stages must cover disjoint keys")
    if first.length != second.length or first.offset != second.offset:
        raise ContractError("solution windows do not match")
    if first.keys and second.keys and first.negate != second.negate:
        raise ContractError("cannot compose across reflected coordinates")
    L = first.length
    z = [first.z[second.z[p]] for p in range(L)]
    delta: list = []
    for p in range(L):
        mine = second.delta[p]
        inherited = first.delta[second.z[p]]
        if mine is None:
            delta.append(inherited)
        elif inherited is None:
            delta.append(mine)
        else:
            delta.append((mine, inherited))
    return WeakExtendSolution(
        offset=first.offset,
        keys=first.keys | second.keys,
        negate=first.negate if first.keys else second.negate,
        r=list(second.r),
        z=z,
        delta=delta,
    )


def max_solutions(
    a: WeakExtendSolution, b: WeakExtendSolution
) -> WeakExtendSolution:
    """Entry-wise better of two solutions over the same keys; ties take b."""
    if a.keys != b.keys:
        raise ContractError("entry-wise maximum needs identical key sets")
    if a.length != b.length or a.offset != b.offset:
        raise ContractError("solution windows do not match")
    if a.keys and a.negate != b.negate:
        raise ContractError("cannot merge across reflected coordinates")
    L = a.length
    r: list[int | None] = []
    z: list[int] = []
    delta: list = []
    for p in range(L):
        av, bv = a.r[p], b.r[p]
        if av is not None and (bv is None or av > bv):
            r.append(av)
            z.append(a.z[p])
            delta.append(a.delta[p])
        else:
            r.append(bv)
            z.append(b.z[p])
            delta.append(b.delta[p])
    return WeakExtendSolution(
        offset=a.offset,
        keys=a.keys,
        negate=a.negate if a.keys else False,
        r=r,
        z=z,
        delta=delta,
    )


# -- color-coded solvers ------------------------------------------------------


def _check_set_sizes(instance: WeakExtendInstance, b: int) -> None:
    if b < 1:
        raise ContractError("the set-size bound must be at least 1")
    for pos in range(instance.length):
        size = len(instance.set_of(pos))
        if size > b:
            raise ContractError(f"position {pos} holds {size} keys, bound is {b}")


def small_b_extend(
    instance: WeakExtendInstance, b: int, *, counters: Counters | None = None
) -> WeakExtendSolution:
    """Solve with sets up to size ``b`` via isolating colorings.

    Indices are partitioned by the first coloring that rainbow-colors their
    set; per coloring, the singleton solver runs color class by color class
    on the masked window, each round folding its improvements into the
    running profits, sources, count chains, and set handles (reads use the
    pre-round state).  The per-coloring answers are merged entry-wise.
    """
    _check_set_sizes(instance, b)
    if any(k < 0 for k in instance.universe):
        work = _reflect_instance(instance)
    else:
        work = instance
    L = work.length
    sets = [work.set_of(p) for p in range(L)]
    distinct = sorted(set(sets) - {()})
    if not work.universe or not distinct:
        return trivial_solution(instance)
    universe_sorted = sorted(work.universe)
    colorings, _ = isolating_colorings(universe_sorted, distinct, b)
    gtabs = _gain_tables(L, universe_sorted, work.gains)

    assigned: list[int] = []
    for s in sets:
        for idx, coloring in enumerate(colorings):
            if len({coloring[u] for u in s}) == len(s):
                assigned.append(idx)
                break
        else:
            raise ContractError("a set escaped every isolating coloring")

    merged: WeakExtendSolution | None = None
    for idx, coloring in enumerate(colorings):
        if idx not in assigned and merged is not None:
            continue  # nothing starts here; the masked answer adds nothing
        cur_q: list[int | None] = [
            work.q[p] if assigned[p] == idx else None for p in range(L)
        ]
        cur_handle: list[int | None] = [
            work.handles[p] if assigned[p] == idx else None for p in range(L)
        ]
        cur_z = list(range(L))
        cur_delta: list = [None] * L

        n_colors = 1 + max(coloring.values())
        pending: dict[int, dict[int, int]] = {}
        for p in range(L):
            if assigned[p] != idx:
                continue
            for key in sets[p]:
                pending.setdefault(coloring[key], {})[p] = key

        for color in range(n_colors):
            members = pending.get(color)
            if not members:
                continue
            sources = {
                p: key for p, key in members.items() if cur_q[p] is not None
            }
            if not sources:
                continue
            records = _singleton_sparse(L, cur_q, sources, gtabs, counters)
            if not records:
                continue
            writes = []
            for i, j, key, cnt, val in records:
                step = (key, cnt, None)
                prev = cur_delta[j]
                chain = step if prev is None else (step, prev)
                writes.append((i, val, cur_z[j], chain, cur_handle[j]))
            for i, val, src, chain, handle in writes:
                old_handle = cur_handle[i]
                cur_q[i] = val
                cur_z[i] = src
                cur_delta[i] = chain
                cur_handle[i] = handle
                if handle == old_handle:
                    continue
                # The index now carries its source's set: re-register its
                # memberships for the color classes still to come.
                for key in work.resolve(old_handle):
                    c2 = coloring[key]
                    if c2 > color:
                        group = pending.get(c2)
                        if group is not None:
                            group.pop(i, None)
                for key in work.resolve(handle):
                    c2 = coloring[key]
                    if c2 > color:
                        pending.setdefault(c2, {})[i] = key

        part = WeakExtendSolution(
            offset=work.offset,
            keys=work.universe,
            negate=False,
            r=cur_q,
            z=cur_z,
            delta=cur_delta,
        )
        merged = part if merged is None else max_solutions(merged, part)

    assert merged is not None
    if work is not instance:
        merged = _unreflect_solution(merged, instance)
    return merged


def large_b_extend(
    instance: WeakExtendInstance, b: int, *, counters: Counters | None = None
) -> WeakExtendSolution:
    """Solve with arbitrary set sizes by splitting the key universe.

    When ``b`` exceeds the logarithm of the distinct-set count, the universe
    is split into classes with logarithmically bounded per-set overlap, and
    the running instance is solved class by class with
    :func:`small_b_extend`, chaining the stage solutions.
    """
    _check_set_sizes(instance, b)
    L = instance.length
    sets = {instance.set_of(p) for p in range(L)} - {()}
    if not instance.universe or not sets:
        return trivial_solution(instance)
    m = len(sets)
    lam = max(1.0, math.log2(m)) if m >= 1 else 1.0
    if b <= lam:
        return small_b_extend(instance, b, counters=counters)

    r = max(1, math.ceil(b / lam))
    abs_keys = sorted(abs(k) for k in instance.universe)
    system = SetSystem(
        abs_keys[-1],
        tuple(tuple(sorted(abs(k) for k in s)) for s in sorted(sets)),
    )
    coloring = balls_and_bins(system, r)
    class_bound = max(1, math.floor(coloring.bound))

    classes: dict[int, list[int]] = {}
    for key in instance.universe:
        classes.setdefault(coloring.colors[abs(key) - 1], []).append(key)

    current = instance
    combined: WeakExtendSolution | None = None
    for color in sorted(classes):
        keys = frozenset(classes[color])
        restricted = restrict_instance(current, keys)
        part = small_b_extend(restricted, class_bound, counters=counters)
        current = update_instance(current, keys, part)
        combined = part if combined is None else compose_solutions(combined, part)
    assert combined is not None
    return combined
