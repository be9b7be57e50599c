"""Knapsack-to-proximity reduction: tie-breaking, greedy prefix, profiles.

The 0-1 knapsack solver first perturbs profits so that both profits and
efficiencies become strictly distinct, sorts by efficiency, and takes the
longest prefix that fits.  The remaining problem — add items from outside the
prefix, drop items inside it, within the residual capacity — is expressed per
distinct signed weight as a strictly concave gain profile: adding x items of
weight w yields the sum of the x best such items, dropping x items of weight
w loses the sum of the x cheapest prefix items of that weight.  Counts beyond
the available items get steeply negative penalty steps, so they never win.

``prepare_base_solutions`` then runs a width-limited 0/1 dynamic program over
the distinct weights, producing for every reachable residual weight the best
single-copy solution, with supports recoverable by walking per-round update
masks backward.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    MAX_WEIGHT,
    PROXIMITY_C,
    ContractError,
    Counters,
    NormalizedKnapsack,
    ProfitCodec,
    adjusted_tie,
    codec_for,
)

__all__ = [
    "AdjustedItem",
    "ConcaveProfile",
    "PrefixResult",
    "GreedyPrefix",
    "ProximityInstance",
    "BaseSolutions",
    "break_ties",
    "efficiency_order",
    "greedy_prefix",
    "maximal_prefix",
    "base_window",
    "build_proximity_instance",
    "prepare_base_solutions",
]

# Packed DP values beyond this bound switch the base DP to exact Python ints.
_INT64_SAFE = 1 << 62

# Fraction bits that separate any two distinct ratios x/w, y/v with w, v <= MAX_WEIGHT.
_RATIO_BITS = 2 * (MAX_WEIGHT.bit_length() - 1)


@dataclass(frozen=True)
class AdjustedItem:
    weight: int
    packed: int  # tie-broken profit, packed (main, tie) pair
    index: int  # original 1-based index


def break_ties(normalized: NormalizedKnapsack) -> tuple[ProfitCodec, list[AdjustedItem]]:
    """Perturb profits so profits and efficiencies are strictly distinct.

    Item i's profit becomes the pair (p_i, i*w_max + 1), packed into one
    integer.  Pair sums over any item set recover the plain profit sum by
    right-shifting, so optima of the adjusted instance are optima of the
    original; distinctness of both profits and efficiencies is proven in
    ``adjusted_tie``'s docstring and the codec's cross-term bound.
    """
    w_max = normalized.w_max
    codec = codec_for(normalized.items, w_max)
    adjusted = [
        AdjustedItem(it.weight, codec.encode(it.profit, adjusted_tie(it.index, w_max)), it.index)
        for it in normalized.items
    ]
    return codec, adjusted


@dataclass(frozen=True)
class PrefixResult:
    order: tuple[int, ...]  # original indices, efficiency-descending
    prefix_ids: tuple[int, ...]  # original indices of the greedy prefix
    prefix_weight: int
    prefix_packed: int  # packed profit of the prefix
    t_star: int  # residual capacity


def efficiency_order(weights: np.ndarray, profits: np.ndarray, ties: np.ndarray) -> np.ndarray:
    """Item positions by efficiency, best first: (profit/w, tie/w) descending.

    The order is exact and uses int64 only.  For x >= 0 and 1 <= w <= 2^20,
    floor(x * 2^40 / w) = (x // w) * 2^40 + ((x % w) << 40) // w, and the
    second part is below 2^40, so the pair (x // w, ((x % w) << 40) // w)
    sorts exactly as that floor does.  Two distinct ratios x/w != y/v with
    w, v <= 2^20 differ by at least 1/(w*v) >= 2^-40, so their values scaled
    by 2^40 differ by at least 1 and their floors differ: the floor is
    strictly order-preserving.  Every part fits int64: profits are at most
    2^32 and ties (``adjusted_tie``) below 2^43, and (x % w) << 40 < 2^60.

    ``codec_for`` sizes the packing shift so that packed_i / w_i compares as
    the pair (p_i / w_i, tie_i / w_i) does lexicographically, so this is the
    order of the packed efficiencies; ``adjusted_tie`` makes it strict.
    """
    keys = []
    for x in (ties, profits):  # np.lexsort sorts by its last key first
        keys.append(-(((x % weights) << _RATIO_BITS) // weights))
        keys.append(-(x // weights))
    return np.lexsort(keys)


@dataclass(frozen=True)
class GreedyPrefix:
    """The greedy order and its longest fitting prefix, as int64 arrays
    indexed by position in ``normalized.items``."""

    weights: np.ndarray
    profits: np.ndarray
    index: np.ndarray  # original 1-based indices
    ties: np.ndarray  # ``adjusted_tie`` per item
    order: np.ndarray  # positions, efficiency-descending
    k: int  # prefix length: the prefix is order[:k]
    weight: int  # prefix weight
    t_star: int  # residual capacity


def greedy_prefix(normalized: NormalizedKnapsack) -> GreedyPrefix:
    """Order items by ``efficiency_order`` on (profit, ``adjusted_tie``) and
    take the longest prefix of that order that fits.

    This is the one greedy order of the package: both the proximity pipeline
    and the window DP start from it.  The prefix stops at the first item that
    does not fit (it is a prefix of the order, not a general greedy subset).
    """
    table = np.fromiter(
        itertools.chain.from_iterable(normalized.items),
        dtype=np.int64,
        count=3 * normalized.n,
    ).reshape(-1, 3)
    weights, profits, index = table[:, 0], table[:, 1], table[:, 2]
    ties = adjusted_tie(index, int(weights.max(initial=1)))
    order = efficiency_order(weights, profits, ties)
    filled = np.cumsum(weights[order])
    k = int(np.searchsorted(filled, normalized.t, side="right"))
    weight = int(filled[k - 1]) if k else 0
    return GreedyPrefix(
        weights, profits, index, ties, order, k, weight, normalized.t - weight
    )


def maximal_prefix(
    normalized: NormalizedKnapsack, adjusted: list[AdjustedItem]
) -> PrefixResult:
    """Longest efficiency-ordered prefix whose total weight fits in t.

    ``adjusted`` is ``break_ties(normalized)``'s item list; packed
    efficiencies packed/weight are strictly distinct and sort exactly as
    ``greedy_prefix``'s order does (``efficiency_order``), so the order is
    unique.
    """
    greedy = greedy_prefix(normalized)
    head = greedy.order[: greedy.k].tolist()
    return PrefixResult(
        tuple(greedy.index[greedy.order].tolist()),
        tuple(greedy.index[head].tolist()),
        greedy.weight,
        sum(adjusted[i].packed for i in head),
        greedy.t_star,
    )


@dataclass(frozen=True)
class ConcaveProfile:
    """Strictly concave gain profile for one signed weight key.

    ``steps[x-1]`` is the packed gain of the x-th copy for 1 <= x <= k;
    beyond k the x-th step is -(penalty_base + x) in the main component (tie
    component zero), which is strictly below every legal step and keeps the
    sequence strictly decreasing, hence the profile strictly concave, at
    every boundary.
    """

    key: int  # signed weight: +w adds items, -w removes prefix items
    steps: tuple[int, ...]
    item_ids: tuple[int, ...]  # original indices aligned with steps
    penalty_base: int  # plain-main M, exceeding any legal total
    shift: int  # codec shift, for closed-form penalty packing

    def __post_init__(self):
        prev = None
        total = 0
        prefix = [0]
        for s in self.steps:
            if prev is not None and s >= prev:
                raise ContractError("profile steps must strictly decrease")
            prev = s
            total += s
            prefix.append(total)
        object.__setattr__(self, "_prefix", tuple(prefix))

    @property
    def k(self) -> int:
        return len(self.steps)

    def value(self, x: int) -> int:
        """P(x): total gain of taking x copies; exact for every x >= 0."""
        if x < 0:
            raise ValueError("counts are non-negative")
        prefix = self._prefix
        k = len(prefix) - 1
        if x <= k:
            return prefix[x]
        over = (x - k) * self.penalty_base + (x * (x + 1) - k * (k + 1)) // 2
        return prefix[k] - (over << self.shift)

    def step(self, x: int) -> int:
        """P(x) - P(x-1) for x >= 1."""
        if x < 1:
            raise ValueError("steps start at count 1")
        if x <= self.k:
            return self.steps[x - 1]
        return -((self.penalty_base + x) << self.shift)

    def gain(self, x: int) -> int:
        """Q(x) = P(x+1) - P(1): gain of x further copies beyond the first."""
        return self.value(x + 1) - self.value(1)


@dataclass(frozen=True)
class ProximityInstance:
    """Residual problem around the greedy prefix, per distinct signed weight."""

    profiles: dict[int, ConcaveProfile]
    t_star: int
    b0: int
    b1: int
    w_max: int
    codec: ProfitCodec
    prefix_ids: tuple[int, ...]
    prefix_packed: int
    n: int

    @property
    def keys_positive(self) -> list[int]:
        return sorted(k for k in self.profiles if k > 0)

    @property
    def keys_negative(self) -> list[int]:
        return sorted((k for k in self.profiles if k < 0), reverse=True)


def build_proximity_instance(normalized: NormalizedKnapsack) -> ProximityInstance:
    """Tie-break, take the greedy prefix, and build per-weight profiles.

    Requires a non-trivial instance (not everything fits), which guarantees
    the residual capacity lands in [0, w_max).  Support and copy-count bounds:
    b1 = min(n, 2*w_max) caps how many items any optimal solution moves, so
    profiles keep at most b1 steps per key; b0 = min(floor(2C*sqrt(w_max)),
    b1, |W|) caps optimal support sizes, with C = ``PROXIMITY_C``.  floor (not
    ceiling) keeps the bound itself at most 2C*sqrt(w_max), and is equally
    complete because supports are integer-sized.
    """
    if normalized.trivial_all:
        raise ValueError("take-everything instances never reach the reducer")
    codec, adjusted = break_ties(normalized)
    prefix = maximal_prefix(normalized, adjusted)
    w_max = normalized.w_max
    n = normalized.n
    b1 = min(n, 2 * w_max)
    if not 0 <= prefix.t_star < w_max:
        raise AssertionError("residual capacity escaped [0, w_max)")
    in_prefix = set(prefix.prefix_ids)
    penalty_base = 1 + sum(it.profit for it in normalized.items)

    add_side: dict[int, list[AdjustedItem]] = {}
    drop_side: dict[int, list[AdjustedItem]] = {}
    for it in adjusted:
        side = drop_side if it.index in in_prefix else add_side
        side.setdefault(it.weight, []).append(it)

    profiles: dict[int, ConcaveProfile] = {}
    for w, items in add_side.items():
        items.sort(key=lambda it: it.packed, reverse=True)  # best first
        picked = items[:b1]
        profiles[w] = ConcaveProfile(
            key=w,
            steps=tuple(it.packed for it in picked),
            item_ids=tuple(it.index for it in picked),
            penalty_base=penalty_base,
            shift=codec.shift,
        )
    for w, items in drop_side.items():
        items.sort(key=lambda it: it.packed)  # cheapest first
        picked = items[:b1]
        profiles[-w] = ConcaveProfile(
            key=-w,
            steps=tuple(-it.packed for it in picked),
            item_ids=tuple(it.index for it in picked),
            penalty_base=penalty_base,
            shift=codec.shift,
        )
    b0 = min(
        math.isqrt(4 * PROXIMITY_C * PROXIMITY_C * w_max),
        b1,
        max(len(profiles), 1),
    )
    return ProximityInstance(
        profiles=profiles,
        t_star=prefix.t_star,
        b0=b0,
        b1=b1,
        w_max=w_max,
        codec=codec,
        prefix_ids=prefix.prefix_ids,
        prefix_packed=prefix.prefix_packed,
        n=n,
    )


class BaseSolutions:
    """Best single-copy solutions per residual weight, with their supports.

    ``value(i)`` is the packed profit of the stored 0/1 solution of weight i
    (None outside the table or where the support-size cap erased the entry);
    ``supports_all()`` recovers the signed weight keys of every live entry by
    walking the per-round update masks backward: the last round that fired at
    i contributed its weight, and the walk continues from the source cell in
    earlier rounds.  ``int64_mode`` tells whether the values are int64 or
    exact Python ints (object dtype).
    """

    def __init__(
        self,
        lo: int,
        hi: int,
        round_keys: list[int],
        values,
        defined,
        counts,
        fired: list,
        b0: int,
        int64_mode: bool,
    ):
        self.lo = lo
        self.hi = hi
        self.round_keys = round_keys
        self._values = values
        self._defined = defined
        self._counts = counts
        self._fired = fired
        self.b0 = b0
        self.int64_mode = int64_mode

    def in_window(self, i: int) -> bool:
        return self.lo <= i <= self.hi

    def _alive(self, a: int) -> bool:
        return bool(self._defined[a]) and int(self._counts[a]) <= self.b0

    def value(self, i: int) -> int | None:
        if not self.in_window(i):
            return None
        a = i - self.lo
        if not self._alive(a):
            return None
        return int(self._values[a])

    def indices(self) -> list[int]:
        """All weights with a live (non-erased) base solution."""
        return [
            self.lo + a
            for a in range(self.hi - self.lo + 1)
            if self._alive(a)
        ]

    def supports_all(self) -> dict[int, tuple[int, ...]]:
        """Supports of every live entry, by one vectorized backward walk.

        All walks step through each round together, so the cost is rounds x
        live entries of numpy work instead of Python-level bit tests.
        """
        live = self.indices()
        if not live:
            return {}
        pos = np.array(live, dtype=np.int64) - self.lo
        collected: list[list[int]] = [[] for _ in live]
        for r in range(len(self.round_keys) - 1, -1, -1):
            bits = np.unpackbits(
                np.frombuffer(self._fired[r], dtype=np.uint8), bitorder="little"
            )
            fired = bits[pos].astype(bool)
            if fired.any():
                w = self.round_keys[r]
                for row in np.nonzero(fired)[0].tolist():
                    collected[row].append(w)
                pos = pos - np.where(fired, w, 0)
        if not (pos == -self.lo).all():
            raise ContractError("support walk did not terminate at weight 0")
        return {
            i: tuple(sorted(keys)) for i, keys in zip(live, collected)
        }


def base_window(prox: ProximityInstance) -> tuple[int, int]:
    """Residual weights [lo, hi] that ``prepare_base_solutions`` tabulates:
    [-b0*w_max, b0*w_max] intersected with the attainable range."""
    width = prox.b0 * prox.w_max
    lo = max(-width, sum(k for k in prox.profiles if k < 0))
    hi = min(width, sum(k for k in prox.profiles if k > 0))
    return lo, hi


def prepare_base_solutions(
    prox: ProximityInstance, *, counters: Counters | None = None
) -> BaseSolutions:
    """Width-limited 0/1 DP over the distinct signed weights.

    The table covers residual weights in [-b0*w_max, b0*w_max] intersected
    with the attainable range (full negative sum .. full positive sum) — any
    0/1 solution's weight lies there, so shrinking loses nothing.  Each round
    reads candidates only from the previous round's table, so every weight is
    used at most once; updates replace only on strictly greater packed profit.
    Entries whose support exceeds b0 are erased at the end, as only those can
    seed optimal solutions.

    Values are int64 when the summed first steps stay below ``_INT64_SAFE``,
    and exact Python ints in an object array otherwise; both run the same
    vectorized update per round.
    """
    keys = prox.keys_positive + prox.keys_negative
    lo, hi = base_window(prox)
    if lo > 0 or hi < 0:
        raise AssertionError("base window must contain weight 0")
    size = hi - lo + 1

    first_steps = {k: prox.profiles[k].step(1) for k in keys}
    bound = sum(abs(v) for v in first_steps.values())
    int64_mode = bound < _INT64_SAFE

    values = np.zeros(size, dtype=np.int64 if int64_mode else object)
    defined = np.zeros(size, dtype=bool)
    counts = np.zeros(size, dtype=np.int32)
    defined[0 - lo] = True
    fired: list[bytes] = []
    for w in keys:
        pw = first_steps[w]
        if w > 0:
            s_lo, s_hi = lo, hi - w  # source range so target stays inside
        else:
            s_lo, s_hi = lo - w, hi
        row = np.zeros(size, dtype=bool)
        if s_lo <= s_hi:
            src = slice(s_lo - lo, s_hi - lo + 1)
            tgt = slice(s_lo + w - lo, s_hi + w - lo + 1)
            cand = values[src] + pw
            improve = defined[src] & (~defined[tgt] | (cand > values[tgt]))
            row[tgt] = improve
            values[tgt] = np.where(improve, cand, values[tgt])
            counts[tgt] = np.where(improve, counts[src] + 1, counts[tgt])
            defined[tgt] |= improve
        fired.append(np.packbits(row, bitorder="little").tobytes())
        if counters is not None:
            counters.entry_evals += max(0, s_hi - s_lo + 1)
    return BaseSolutions(lo, hi, keys, values, defined, counts, fired, prox.b0, int64_mode)
