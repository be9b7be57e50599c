"""Subset-sum solver: greedy prefix, binary bundling, layered convolution.

The solver runs in three stages.  ``reduce_subset_sum`` takes a normalized
instance whose total exceeds the target, greedily fills a prefix in input
order, and re-expresses the problem over a signed residual multiset: adding a
leftover item contributes ``+w``, dropping a prefix item contributes ``-w``,
and the new target is the residual capacity, which lands in ``[0, w_max)``.
``binary_bundle`` splits each value's multiplicity into powers of two so that
every attainable count survives while only O(log) copies remain, organised
into layers by the power.  ``fold_bundled_layers`` folds the layers from coarsest to
finest with exact sumset convolutions, keeping every intermediate set inside
a proximity window of size O(w_max^1.5); proximity guarantees that optimal
solutions' partial sums never leave the window, so the final set contains the
optimal residual sum, and every element of it is genuinely attainable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .intset import IntegerSet, all_subset_sums, difference_set, sumset
from .model import (
    PROXIMITY_C,
    Counters,
    NormalizedSubsetSum,
    ResourceLimitError,
    SubsetSumInstance,
    normalize_subsetsum,
)

__all__ = [
    "ResidualSubsetSum",
    "BundledLayers",
    "SubsetSumAnswer",
    "reduce_subset_sum",
    "binary_bundle",
    "fold_bundled_layers",
    "solve_subset_sum",
]

# Hard cap on the bit-span of any window the layered convolution may build;
# beyond this the solve raises ResourceLimitError instead of thrashing.
_MAX_WINDOW_SPAN = 1 << 28


@dataclass(frozen=True)
class ResidualSubsetSum:
    """Signed residual problem left after the greedy prefix."""

    z_values: tuple[int, ...]  # signed, multiplicity-capped at 2 * w_max
    target: int  # residual capacity, in [0, w_max)
    prefix_sum: int  # weight of the greedy prefix
    w_max: int


@dataclass(frozen=True)
class BundledLayers:
    """Layer beta holds unscaled values; real contribution is value << beta."""

    layers: tuple[tuple[int, ...], ...]
    ell: int


@dataclass(frozen=True)
class SubsetSumAnswer:
    value: int  # largest attainable sum <= t
    attainable: bool  # is t itself attainable?


def reduce_subset_sum(normalized: NormalizedSubsetSum) -> ResidualSubsetSum:
    """Greedy prefix in input order, then the signed residual multiset.

    Caller must have handled the take-everything case: the total weight must
    exceed the target, so the greedy loop stops and the residual capacity is
    strictly below w_max.  Each signed value's multiplicity is capped at
    2*w_max — no attainable sum needs more copies than that, because optimal
    residual solutions move at most 2*w_max items relative to the prefix.
    """
    t = normalized.t
    w_max = normalized.w_max
    total = normalized.total_weight
    if total <= t:
        raise ValueError("take-everything instances never reach the reducer")
    prefix_sum = 0
    in_prefix = []
    for w, _idx in normalized.elements:
        if prefix_sum + w <= t:
            prefix_sum += w
            in_prefix.append(True)
        else:
            in_prefix.append(False)
    target = t - prefix_sum
    if not 0 <= target < w_max:
        raise AssertionError("residual capacity escaped [0, w_max)")
    cap = 2 * w_max
    counts: dict[int, int] = {}
    z_values: list[int] = []
    for (w, _idx), taken in zip(normalized.elements, in_prefix):
        if not taken:
            if counts.get(w, 0) < cap:
                counts[w] = counts.get(w, 0) + 1
                z_values.append(w)
    for (w, _idx), taken in zip(normalized.elements, in_prefix):
        if taken:
            if counts.get(-w, 0) < cap:
                counts[-w] = counts.get(-w, 0) + 1
                z_values.append(-w)
    return ResidualSubsetSum(tuple(z_values), target, prefix_sum, w_max)


def _power_decomposition(k: int) -> list[int]:
    """Exponents a_1..a_kappa with sum(2^a_i) = k, each repeated <= 2 times,
    such that the subset sums of {2^a_i} cover {0..k} exactly.

    Construction: m = floor(log2(k+1)); take 2^0..2^(m-1) (covering 0..2^m-1)
    plus the binary representation of the remainder k - (2^m - 1).
    """
    if k <= 0:
        return []
    m = (k + 1).bit_length() - 1
    exps = list(range(m))
    rem = k - ((1 << m) - 1)
    bit = 0
    while rem:
        if rem & 1:
            exps.append(bit)
        rem >>= 1
        bit += 1
    return sorted(exps)


def binary_bundle(z_values: Sequence[int], w_max: int) -> BundledLayers:
    """Group the signed multiset into power-of-two layers.

    A value with multiplicity k is replaced by copies in layers given by
    :func:`_power_decomposition`, so a count of x <= k originals is always
    expressible as a sub-multiset of the bundle, and each layer holds at most
    2 copies per value.  Layer indices never exceed floor(log2(2*w_max))
    because multiplicities are capped at 2*w_max.
    """
    ell = (2 * w_max).bit_length() - 1
    layers: list[list[int]] = [[] for _ in range(ell + 1)]
    counts: dict[int, int] = {}
    for z in z_values:
        counts[z] = counts.get(z, 0) + 1
    for z in sorted(counts):
        for exp in _power_decomposition(counts[z]):
            if exp > ell:
                raise AssertionError("bundled exponent escaped the layer range")
            layers[exp].append(z)
    return BundledLayers(tuple(tuple(sorted(l)) for l in layers), ell)


def fold_bundled_layers(
    bundled: BundledLayers,
    w_max: int,
    *,
    counters: Counters | None = None,
    trace: Callable[[int, IntegerSet], None] | None = None,
) -> IntegerSet:
    """Attainable residual sums within the proximity window.

    Folds layers from the coarsest scale down.  All sets are kept in
    scale-beta coordinates (true value = element << beta); moving from scale
    beta+1 to beta doubles every element.  Per layer the positive and negated
    negative parts are convolved separately up to the one-sided cap
    floor(2C * w_max^1.5), combined as a difference set, added to the running
    set, and clamped to +-floor(5C * w_max^1.5) in scale-beta coordinates,
    with C = ``PROXIMITY_C``.

    The returned set is sound (every element is a sum of a sub-multiset of
    the bundle) and complete for any solution whose layered partial sums
    respect the window, which proximity guarantees for optimal solutions.

    ``trace``, if given, is called as trace(beta, scaled_set) with each
    intermediate set, enabling invariant checks without changing behavior.
    """
    c2 = PROXIMITY_C * PROXIMITY_C
    cap_t = math.isqrt(4 * c2 * w_max**3)  # floor(2C * w_max^1.5)
    cap_s = math.isqrt(25 * c2 * w_max**3)  # floor(5C * w_max^1.5)
    if 2 * cap_s + 1 > _MAX_WINDOW_SPAN:
        raise ResourceLimitError(
            f"proximity window span {2 * cap_s + 1} exceeds the supported limit"
        )

    s = IntegerSet.singleton(0)
    for beta in range(bundled.ell, -1, -1):
        s = s.stretched_double().clamped(-cap_s, cap_s)
        layer = bundled.layers[beta]
        if layer:
            pos = [v for v in layer if v > 0]
            neg = [-v for v in layer if v < 0]
            t_plus = all_subset_sums(pos, lo=0, hi=cap_t)
            t_minus = all_subset_sums(neg, lo=0, hi=cap_t)
            t_layer = difference_set(t_plus, t_minus, counters=counters)
            s = sumset(s, t_layer, lo=-cap_s, hi=cap_s, counters=counters)
        if trace is not None:
            trace(beta, s)
    return s


def solve_subset_sum(
    instance: SubsetSumInstance,
    *,
    counters: Counters | None = None,
    trace: Callable[[int, IntegerSet], None] | None = None,
) -> SubsetSumAnswer:
    """Largest attainable sum <= t, and whether t itself is attainable.

    Items heavier than t can never participate and are dropped up front.  If
    everything remaining fits, that is the optimum.  Otherwise the residual
    problem is solved through the layered convolution and the answer is read
    off the final set: its maximum element not exceeding the residual
    capacity, offset by the prefix weight.
    """
    normalized = normalize_subsetsum(instance)
    total = normalized.total_weight
    if total <= instance.t:
        return SubsetSumAnswer(total, total == instance.t)
    residual = reduce_subset_sum(normalized)
    bundled = binary_bundle(residual.z_values, residual.w_max)
    s0 = fold_bundled_layers(bundled, residual.w_max, counters=counters, trace=trace)
    reachable = s0.clamped(None, residual.target)
    if not reachable:
        raise AssertionError("final set lost the empty solution")
    value = residual.prefix_sum + reachable.max()
    return SubsetSumAnswer(value, residual.target in s0)
