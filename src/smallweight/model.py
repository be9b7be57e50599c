"""Core data model: problem instances, limits, normalization, exact profit pairs.

The solvers in this package work on 0-1 knapsack and subset-sum instances with
positive integer weights.  This module defines the instance types, the hard
input limits, the normalization step shared by every solver (dropping items
that cannot fit and detecting the take-everything case), and the exact
arithmetic used for tie-broken profits.

Tie-broken profits are pairs ``(main, tie)`` compared lexicographically: the
``main`` component is the original profit and the ``tie`` component is a small
per-item perturbation that makes all item efficiencies pairwise distinct
without changing which selections are optimal for the original profits.  The
pair is packed into a single Python integer ``main * 2**shift + tie`` with a
per-instance ``shift`` large enough that every tie magnitude the solvers can
produce stays below ``2**(shift - 1)``; integer comparison and addition on the
packed form then coincide with lexicographic comparison and component-wise
addition on the pairs.  The undefined value (an unreachable table entry) is
always represented as ``None``, never as a numeric sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

MAX_ITEMS = 1 << 22
MAX_WEIGHT = 1 << 20
MAX_PROFIT = 1 << 32
MAX_TARGET = 1 << 50

# The proximity constant C.  It bounds the knapsack pipeline's support size
# b0 = floor(2C * sqrt(w_max)) and the subset-sum fold's windows: one-sided
# layer sums up to 2C * w_max^1.5, running sums within +-5C * w_max^1.5.
PROXIMITY_C = 4


class InstanceFormatError(ValueError):
    """Raised for malformed instance text or out-of-limit instance data."""


@dataclass
class Counters:
    """Monotone instrumentation counters threaded through the solvers.

    ``entry_evals`` counts matrix entry evaluations performed by the row-maxima
    machinery; ``conv_output_len`` accumulates the output lengths of integer
    set convolutions; ``window_cells`` counts the cells the knapsack window
    DP updates (at most its candidates times its window width), so it is
    positive exactly when a solve took the window route.  All only ever
    increase.
    """

    entry_evals: int = 0
    conv_output_len: int = 0
    window_cells: int = 0


class ResourceLimitError(RuntimeError):
    """Raised when a solver would exceed its configured resource budget."""


class ContractError(AssertionError):
    """Raised when an internal routine is handed data violating its contract."""


class Item(NamedTuple):
    weight: int
    profit: int


@dataclass(frozen=True)
class KnapsackInstance:
    """A 0-1 knapsack instance: maximize total profit with total weight <= t.

    Construction checks the input limits (``validate_knapsack``).
    """

    items: tuple[Item, ...]
    t: int

    def __post_init__(self) -> None:
        validate_knapsack(self)

    @property
    def n(self) -> int:
        return len(self.items)

    @property
    def w_max(self) -> int:
        return max((it.weight for it in self.items), default=1)


@dataclass(frozen=True)
class SubsetSumInstance:
    """A subset-sum instance: find / approach target t with a subset of weights.

    Construction checks the input limits (``validate_subsetsum``).
    """

    weights: tuple[int, ...]
    t: int

    def __post_init__(self) -> None:
        validate_subsetsum(self)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def w_max(self) -> int:
        return max(self.weights, default=1)


def _check_common(n: int, t: int) -> None:
    if n > MAX_ITEMS:
        raise InstanceFormatError(f"item count {n} exceeds limit {MAX_ITEMS}")
    if t < 0:
        raise InstanceFormatError("capacity must be non-negative")
    if t > MAX_TARGET:
        raise InstanceFormatError(f"capacity {t} exceeds limit {MAX_TARGET}")


def validate_knapsack(instance: KnapsackInstance) -> KnapsackInstance:
    """Check instance limits, raising InstanceFormatError on violation."""
    _check_common(instance.n, instance.t)
    for idx, (w, p) in enumerate(instance.items, start=1):
        if w < 1:
            raise InstanceFormatError(f"item {idx}: weight must be positive")
        if w > MAX_WEIGHT:
            raise InstanceFormatError(
                f"item {idx}: weight {w} exceeds limit {MAX_WEIGHT}"
            )
        if p < 0:
            raise InstanceFormatError(f"item {idx}: profit must be non-negative")
        if p > MAX_PROFIT:
            raise InstanceFormatError(
                f"item {idx}: profit {p} exceeds limit {MAX_PROFIT}"
            )
    return instance


def validate_subsetsum(instance: SubsetSumInstance) -> SubsetSumInstance:
    """Check instance limits, raising InstanceFormatError on violation."""
    _check_common(instance.n, instance.t)
    for idx, w in enumerate(instance.weights, start=1):
        if w < 1:
            raise InstanceFormatError(f"element {idx}: weight must be positive")
        if w > MAX_WEIGHT:
            raise InstanceFormatError(
                f"element {idx}: weight {w} exceeds limit {MAX_WEIGHT}"
            )
    return instance


class NormalizedItem(NamedTuple):
    weight: int
    profit: int
    index: int  # 1-based position in the original instance


@dataclass
class NormalizedKnapsack:
    """A knapsack instance after dropping items that cannot fit.

    ``items`` keep their original 1-based indices so witnesses can be reported
    in terms of the input.  ``trivial_all`` is set when every kept item fits
    simultaneously, in which case taking all of them is optimal.
    """

    items: list[NormalizedItem]
    t: int
    dropped: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.items)

    @property
    def w_max(self) -> int:
        return max((it.weight for it in self.items), default=1)

    @property
    def total_weight(self) -> int:
        return sum(it.weight for it in self.items)

    @property
    def trivial_all(self) -> bool:
        return self.total_weight <= self.t


def normalize_knapsack(instance: KnapsackInstance) -> NormalizedKnapsack:
    kept: list[NormalizedItem] = []
    dropped: list[int] = []
    for idx, (w, p) in enumerate(instance.items, start=1):
        if w > instance.t:
            dropped.append(idx)
        else:
            kept.append(NormalizedItem(w, p, idx))
    return NormalizedKnapsack(kept, instance.t, dropped)


@dataclass
class NormalizedSubsetSum:
    elements: list[tuple[int, int]]  # (weight, original 1-based index)
    t: int
    dropped: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def w_max(self) -> int:
        return max((w for w, _ in self.elements), default=1)

    @property
    def total_weight(self) -> int:
        return sum(w for w, _ in self.elements)

    @property
    def trivial_all(self) -> bool:
        return self.total_weight <= self.t


def normalize_subsetsum(instance: SubsetSumInstance) -> NormalizedSubsetSum:
    kept: list[tuple[int, int]] = []
    dropped: list[int] = []
    for idx, w in enumerate(instance.weights, start=1):
        if w > instance.t:
            dropped.append(idx)
        else:
            kept.append((w, idx))
    return NormalizedSubsetSum(kept, instance.t, dropped)


class ProfitCodec:
    """Packs exact (main, tie) profit pairs into single integers.

    ``shift`` is chosen so that ``2**(shift - 1)`` strictly exceeds every tie
    magnitude that can arise for the instance at hand (the caller supplies
    that bound).  Packed values then compare and add exactly like
    lexicographically ordered pairs.
    """

    __slots__ = ("shift", "tie_bound", "_half")

    def __init__(self, tie_bound: int):
        if tie_bound < 0:
            raise ContractError("tie bound must be non-negative")
        self.tie_bound = tie_bound
        self.shift = max(1, tie_bound.bit_length() + 1)
        self._half = 1 << (self.shift - 1)

    def encode(self, main: int, tie: int = 0) -> int:
        if not -self._half < tie < self._half:
            raise ContractError(
                f"tie component {tie} out of range for shift {self.shift}"
            )
        return (main << self.shift) + tie

    def decode(self, packed: int) -> tuple[int, int]:
        main = (packed + self._half) >> self.shift
        tie = packed - (main << self.shift)
        return main, tie

    def main(self, packed: int) -> int:
        return (packed + self._half) >> self.shift


def adjusted_tie(index: int, w_max: int) -> int:
    """Tie component of item ``index`` (1-based): index * w_max + 1.

    Distinct items get distinct ties, and cross-multiplied efficiencies
    (tie_i * w_j vs tie_j * w_i) never tie either: equality would force
    index_i * w_max * w_j + w_j == index_j * w_max * w_i + w_i, impossible
    because the left addends differ modulo w_max unless w_i == w_j, in which
    case it forces index_i == index_j.
    """
    return index * w_max + 1


def codec_for(items: Iterable[NormalizedItem], w_max: int) -> ProfitCodec:
    """Codec whose shift covers every tie aggregate the solver can form.

    Two bounds matter.  Sums of ties over distinct items stay below
    ``4 * (total + 1)``, which keeps packed addition lexicographic.  Efficiency
    comparisons cross-multiply by weights, so tie cross-terms can reach
    ``max_tie * w_max``; covering that too makes the packed-value efficiency
    order (packed_i / w_i) identical to comparing (main_i / w_i) first and
    (tie_i / w_i) second, i.e. one consistent order for both the greedy prefix
    and the downstream profit arithmetic.
    """
    ties = [adjusted_tie(it.index, w_max) for it in items]
    total = sum(ties)
    max_cross = (max(ties) if ties else 0) * w_max
    return ProfitCodec(max(4 * (total + 1), max_cross + 1))
