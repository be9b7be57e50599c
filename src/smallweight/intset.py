"""Sets of integers with exact sumset (convolution) support.

An :class:`IntegerSet` stores a finite set of (possibly negative) integers as
a big-integer bitmask plus an offset, so membership, shifting, union and
clamping cost machine-word operations per 64 values.  ``sumset`` picks, by
span and popcount, between bitmask shift-or (sparse/small inputs) and a
float64 real FFT (large dense inputs).  The FFT convolves 0/1 vectors, whose
true counts are integers; its worst-case rounding error is proven below 1/2
at every length it accepts (see ``ntt_convolve_01``), so thresholding at 1/2
recovers the exact sumset and results are exact at every size.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .model import Counters

__all__ = [
    "IntegerSet",
    "sumset",
    "difference_set",
    "all_subset_sums",
    "ntt_convolve_01",
]

# Sumsets whose output span (in bit positions) is at most this use shift-or
# outright; beyond it the estimated word-operation count of shift-or decides
# between it and the FFT.
_SMALL_SPAN = 1 << 12
_SHIFT_OR_BUDGET = 1 << 24


def _spread_table() -> np.ndarray:
    """256-entry table mapping a byte to its bits spread to even positions."""
    table = np.zeros(256, dtype=np.uint16)
    for value in range(256):
        spread = 0
        for bit in range(8):
            if value & (1 << bit):
                spread |= 1 << (2 * bit)
        table[value] = spread
    return table


_SPREAD = _spread_table()


class IntegerSet:
    """Immutable finite set of integers backed by an offset bitmask.

    Canonical form: the empty set is ``(offset=0, mask=0)``; otherwise the
    mask's lowest bit is set, i.e. ``offset`` is the minimum element.
    """

    __slots__ = ("offset", "mask")

    def __init__(self, offset: int = 0, mask: int = 0):
        if mask == 0:
            offset = 0
        else:
            low = (mask & -mask).bit_length() - 1
            if low:
                mask >>= low
                offset += low
        self.offset = offset
        self.mask = mask

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls) -> "IntegerSet":
        return cls(0, 0)

    @classmethod
    def singleton(cls, value: int) -> "IntegerSet":
        return cls(value, 1)

    @classmethod
    def from_iterable(cls, values: Iterable[int]) -> "IntegerSet":
        vals = list(values)
        if not vals:
            return cls.empty()
        lo = min(vals)
        mask = 0
        for v in vals:
            mask |= 1 << (v - lo)
        return cls(lo, mask)

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return self.mask != 0

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, value: int) -> bool:
        if not isinstance(value, int):
            return False
        k = value - self.offset
        return 0 <= k and (self.mask >> k) & 1 == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerSet):
            return NotImplemented
        return self.offset == other.offset and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.offset, self.mask))

    def __repr__(self) -> str:
        if len(self) <= 16:
            return f"IntegerSet({sorted(self)})"
        return (
            f"IntegerSet(min={self.min()}, max={self.max()}, size={len(self)})"
        )

    def min(self) -> int:
        if not self.mask:
            raise ValueError("empty set has no minimum")
        return self.offset

    def max(self) -> int:
        if not self.mask:
            raise ValueError("empty set has no maximum")
        return self.offset + self.mask.bit_length() - 1

    def span(self) -> int:
        """Number of bit positions the mask occupies (0 for the empty set)."""
        return self.mask.bit_length()

    def __iter__(self) -> Iterator[int]:
        return iter(self.values())

    def values(self) -> list[int]:
        """All elements in ascending order."""
        if not self.mask:
            return []
        bits = _mask_to_bits(self.mask)
        idx = np.nonzero(bits)[0]
        off = self.offset
        return [off + int(k) for k in idx]

    # -- pointwise transforms ----------------------------------------------

    def shifted(self, delta: int) -> "IntegerSet":
        if not self.mask:
            return self
        return IntegerSet(self.offset + delta, self.mask)

    def reflected(self) -> "IntegerSet":
        """The set of negated elements."""
        if not self.mask:
            return self
        n = self.mask.bit_length()
        rev = int(format(self.mask, f"0{n}b")[::-1], 2)
        return IntegerSet(-(self.offset + n - 1), rev)

    def stretched_double(self) -> "IntegerSet":
        """The set {2*v : v in self}."""
        if not self.mask:
            return self
        data = _mask_to_bytes(self.mask)
        spread = _SPREAD[np.frombuffer(data, dtype=np.uint8)]
        mask = int.from_bytes(spread.astype("<u2").tobytes(), "little")
        return IntegerSet(2 * self.offset, mask)

    def clamped(self, lo: int | None, hi: int | None) -> "IntegerSet":
        """Intersection with the interval [lo, hi] (None = unbounded side)."""
        if not self.mask:
            return self
        offset, mask = self.offset, self.mask
        if lo is not None and lo > offset:
            mask >>= lo - offset
            offset = lo
        if hi is not None:
            width = hi - offset + 1
            if width <= 0:
                return IntegerSet.empty()
            mask &= (1 << width) - 1
        return IntegerSet(offset, mask)

    def union(self, other: "IntegerSet") -> "IntegerSet":
        if not self.mask:
            return other
        if not other.mask:
            return self
        lo = min(self.offset, other.offset)
        return IntegerSet(
            lo,
            (self.mask << (self.offset - lo))
            | (other.mask << (other.offset - lo)),
        )

    def intersection(self, other: "IntegerSet") -> "IntegerSet":
        if not self.mask or not other.mask:
            return IntegerSet.empty()
        lo = max(self.offset, other.offset)
        a = self.mask >> (lo - self.offset)
        b = other.mask >> (lo - other.offset)
        return IntegerSet(lo, a & b)

    def issubset(self, other: "IntegerSet") -> bool:
        return self.intersection(other) == self


# -- bitmask <-> numpy helpers ----------------------------------------------


def _mask_to_bytes(mask: int) -> bytes:
    return mask.to_bytes((mask.bit_length() + 7) // 8, "little")


def _mask_to_bits(mask: int) -> np.ndarray:
    data = np.frombuffer(_mask_to_bytes(mask), dtype=np.uint8)
    return np.unpackbits(data, bitorder="little")


def _bits_to_mask(bits: np.ndarray) -> int:
    packed = np.packbits(bits.astype(np.uint8, copy=False), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


# -- boolean convolution by float64 FFT --------------------------------------

# Worst-case rounding bound (Percival, Math. Comp. 72, 2003): a float64 FFT
# convolution of length 2**k is off by at most about
# ||a||_2 ||b||_2 * (3k + (3k+1)*sqrt(5) + 3k/sqrt(2)) * eps per entry,
# assuming every twiddle factor is within eps/sqrt(2) of its exact value
# (pocketfft, NumPy's back end, computes each one directly, not by
# recurrence).  At the cap below, k = 33 counting rfft's real-to-complex
# stage, ||a||_2 ||b||_2 <= sqrt(len(a) * len(b)) <= 2**31 for 0/1 inputs and
# eps = 2**-53, which gives about 1e-4: far below 1/2, so rounding the integer
# counts at 1/2 is exact.
_MAX_FFT_LOG = 32


def ntt_convolve_01(a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
    """Exact boolean convolution of two 0/1 vectors via a float64 real FFT.

    Returns a 0/1 uint8 vector of length len(a) + len(b) - 1 whose k-th entry
    is 1 iff some i + j == k has a[i] == b[j] == 1.  Rounding error stays
    below 1/2 at every accepted length (see the bound above), so thresholding
    the counts at 1/2 is exact.  The name is kept from the number-theoretic
    transform this replaced, because the benchmark's layer trace binds it.
    """
    la, lb = len(a_bits), len(b_bits)
    if la == 0 or lb == 0:
        return np.zeros(0, dtype=np.uint8)
    out_len = la + lb - 1
    n = 1 << (out_len - 1).bit_length() if out_len > 1 else 1
    if n.bit_length() - 1 > _MAX_FFT_LOG:
        raise ValueError("convolution size exceeds supported transform length")
    fa = np.fft.rfft(a_bits, n)
    fa *= np.fft.rfft(b_bits, n)
    return (np.fft.irfft(fa, n)[:out_len] > 0.5).astype(np.uint8)


# -- sumsets ------------------------------------------------------------------


def _sumset_shift_or(a: IntegerSet, b: IntegerSet) -> int:
    """Mask of the sumset relative to offset a.offset + b.offset."""
    # Shift the larger-span operand by each element of the sparser one.
    if a.mask.bit_count() <= b.mask.bit_count():
        sparse, dense = a, b
    else:
        sparse, dense = b, a
    acc = 0
    m = sparse.mask
    base = 0
    dense_mask = dense.mask
    while m:
        chunk = m & ((1 << 64) - 1)
        while chunk:
            low = chunk & -chunk
            acc |= dense_mask << (base + low.bit_length() - 1)
            chunk ^= low
        m >>= 64
        base += 64
    return acc


def _sumset_fft(a: IntegerSet, b: IntegerSet) -> int:
    out_bits = ntt_convolve_01(_mask_to_bits(a.mask), _mask_to_bits(b.mask))
    return _bits_to_mask(out_bits)


def sumset(
    a: IntegerSet,
    b: IntegerSet,
    *,
    lo: int | None = None,
    hi: int | None = None,
    counters: Counters | None = None,
) -> IntegerSet:
    """{x + y : x in a, y in b}, optionally clamped to [lo, hi].

    Shift-or runs when the output span is small or the sparser operand's
    popcount times the denser one's word count fits ``_SHIFT_OR_BUDGET``;
    otherwise the FFT does.  Both are exact.  The clamp is applied after the
    full sumset is formed (results are identical either way; the caps the
    solvers pass keep spans bounded).
    """
    if not a.mask or not b.mask:
        return IntegerSet.empty()
    out_span = a.span() + b.span() - 1
    pop = min(a.mask.bit_count(), b.mask.bit_count())
    words = (max(a.span(), b.span()) + 63) // 64
    if out_span <= _SMALL_SPAN or pop * words <= _SHIFT_OR_BUDGET:
        mask = _sumset_shift_or(a, b)
    else:
        mask = _sumset_fft(a, b)
    if counters is not None:
        counters.conv_output_len += out_span
    return IntegerSet(a.offset + b.offset, mask).clamped(lo, hi)


def difference_set(
    a: IntegerSet,
    b: IntegerSet,
    *,
    lo: int | None = None,
    hi: int | None = None,
    counters: Counters | None = None,
) -> IntegerSet:
    """{x - y : x in a, y in b}, optionally clamped to [lo, hi]."""
    return sumset(a, b.reflected(), lo=lo, hi=hi, counters=counters)


def all_subset_sums(
    values: Sequence[int],
    *,
    lo: int | None = None,
    hi: int | None = None,
    counters: Counters | None = None,
) -> IntegerSet:
    """All sums of sub-multisets of ``values`` (0 included), clamped to [lo, hi].

    Computed as a balanced product tree of two-element sets {0, v}; clamping
    is applied at every combine, which is sound whenever the clamp interval is
    downward/upward closed for the caller's use (the solvers only clamp to
    intervals containing every sum they later consume).
    """
    level: list[IntegerSet] = [
        IntegerSet.from_iterable([0, v]) for v in values
    ]
    if not level:
        return IntegerSet.singleton(0).clamped(lo, hi)
    while len(level) > 1:
        nxt: list[IntegerSet] = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(
                sumset(level[i], level[i + 1], lo=lo, hi=hi, counters=counters)
            )
        if len(level) % 2:
            nxt.append(level[-1].clamped(lo, hi))
        level = nxt
    return level[0].clamped(lo, hi)
