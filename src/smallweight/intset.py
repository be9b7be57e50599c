"""Sets of integers with exact sumset (convolution) support.

An :class:`IntegerSet` stores a finite set of (possibly negative) integers as
a big-integer bitmask plus an offset, so membership, shifting, union and
clamping cost machine-word operations per 64 values.  ``sumset`` picks, by
span and popcount, between bitmask shift-or (sparse/small inputs) and an
exact number-theoretic transform over the prime 2**64 - 2**32 + 1 (large
dense inputs).  No floating-point transforms are used anywhere, so results
are exact at every size.
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
# outright; beyond it the estimated word-operation counts of shift-or and the
# NTT are compared.
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


# -- exact NTT over p = 2**64 - 2**32 + 1 ------------------------------------

_P = np.uint64((1 << 64) - (1 << 32) + 1)
_P_INT = (1 << 64) - (1 << 32) + 1
_M32 = np.uint64((1 << 32) - 1)
_ROOT = 7  # multiplicative generator of the field
_MAX_NTT_LOG = 32  # 2**32 divides p - 1, so sizes up to 2**32 have roots


def _addmod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    s = x + y
    ov = s < x
    if ov.any():
        s[ov] += _M32  # wrapped by 2**64 == 2**32 - 1 (mod p)
    big = s >= _P
    if big.any():
        s[big] -= _P
    return s

def _submod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    d = x - y
    borrow = x < y
    if borrow.any():
        d[borrow] -= _M32  # wrapped d = x - y + 2**64; true value is d - (2**32 - 1) mod p
    return d


def _mulmod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x_lo = x & _M32
    x_hi = x >> np.uint64(32)
    y_lo = y & _M32
    y_hi = y >> np.uint64(32)
    ll = x_lo * y_lo
    lh = x_lo * y_hi
    hl = x_hi * y_lo
    hh = x_hi * y_hi
    # 128-bit product as (hi64, lo64) without overflowing uint64 anywhere.
    mid = (ll >> np.uint64(32)) + (lh & _M32) + (hl & _M32)
    lo64 = (ll & _M32) | ((mid & _M32) << np.uint64(32))
    hi64 = hh + (lh >> np.uint64(32)) + (hl >> np.uint64(32)) + (mid >> np.uint64(32))
    # Reduce: with hi64 = d*2**32 + c, value == lo64 + c*(2**32 - 1) - d (mod p).
    c = hi64 & _M32
    d = hi64 >> np.uint64(32)
    t = lo64 - d
    under = lo64 < d
    if under.any():
        t[under] += _P
    add = (c << np.uint64(32)) - c
    r = t + add
    ov = r < t
    if ov.any():
        r[ov] += _M32
    big = r >= _P
    if big.any():
        r[big] -= _P
    return r


def _powmod_scalar(base: int, exp: int) -> int:
    return pow(base, exp, _P_INT)


def _power_array(w: int, count: int) -> np.ndarray:
    """[w**0, w**1, ..., w**(count-1)] mod p, by repeated doubling."""
    out = np.empty(count, dtype=np.uint64)
    out[0] = 1
    filled = 1
    while filled < count:
        step = np.uint64(_powmod_scalar(w, filled))
        take = min(filled, count - filled)
        out[filled : filled + take] = _mulmod(
            out[:take], np.full(take, step, dtype=np.uint64)
        )
        filled += take
    return out


def _bit_reverse_permutation(n: int) -> np.ndarray:
    logn = n.bit_length() - 1
    idx = np.arange(n, dtype=np.uint64)
    rev = np.zeros(n, dtype=np.uint64)
    for _ in range(logn):
        rev = (rev << np.uint64(1)) | (idx & np.uint64(1))
        idx >>= np.uint64(1)
    return rev.astype(np.int64)


def _ntt(a: np.ndarray, invert: bool) -> None:
    """In-place iterative transform; length must be a power of two."""
    n = len(a)
    if n == 1:
        return
    a[:] = a[_bit_reverse_permutation(n)]
    length = 2
    while length <= n:
        half = length // 2
        w = _powmod_scalar(_ROOT, (_P_INT - 1) // length)
        if invert:
            w = _powmod_scalar(w, _P_INT - 2)
        twiddle = _power_array(w, half)
        view = a.reshape(n // length, length)
        u = view[:, :half].copy()
        v = _mulmod(view[:, half:], twiddle[None, :].repeat(n // length, axis=0))
        view[:, :half] = _addmod(u, v)
        view[:, half:] = _submod(u, v)
        length *= 2
    if invert:
        inv_n = np.full(n, _powmod_scalar(n, _P_INT - 2), dtype=np.uint64)
        a[:] = _mulmod(a, inv_n)


def ntt_convolve_01(a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
    """Exact boolean convolution of two 0/1 vectors via the modular NTT.

    Returns a 0/1 uint8 vector of length len(a) + len(b) - 1 whose k-th entry
    is 1 iff some i + j == k has a[i] == b[j] == 1.  Exactness holds because
    convolution counts are below the modulus.
    """
    la, lb = len(a_bits), len(b_bits)
    if la == 0 or lb == 0:
        return np.zeros(0, dtype=np.uint8)
    out_len = la + lb - 1
    n = 1 << (out_len - 1).bit_length() if out_len > 1 else 1
    if n.bit_length() - 1 > _MAX_NTT_LOG:
        raise ValueError("convolution size exceeds supported transform length")
    fa = np.zeros(n, dtype=np.uint64)
    fb = np.zeros(n, dtype=np.uint64)
    fa[:la] = a_bits.astype(np.uint64, copy=False)
    fb[:lb] = b_bits.astype(np.uint64, copy=False)
    _ntt(fa, invert=False)
    _ntt(fb, invert=False)
    fa = _mulmod(fa, fb)
    _ntt(fa, invert=True)
    return (fa[:out_len] != 0).astype(np.uint8)


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


def _sumset_ntt(a: IntegerSet, b: IntegerSet) -> int:
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
    otherwise the NTT does.  Both are exact.  The clamp is applied after the
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
        mask = _sumset_ntt(a, b)
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
