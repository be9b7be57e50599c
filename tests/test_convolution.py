"""Integer sets and their sumset/convolution machinery."""

from __future__ import annotations

import random

import numpy as np
import pytest

from smallweight import intset
from smallweight.intset import (
    IntegerSet,
    _bits_to_mask,
    _sumset_fft,
    _sumset_shift_or,
    all_subset_sums,
    difference_set,
    ntt_convolve_01,
    sumset,
)
from smallweight.model import Counters


def brute_sumset(a: set[int], b: set[int]) -> set[int]:
    return {x + y for x in a for y in b}


def rand_values(rng: random.Random, size: int, lo: int = -40, hi: int = 40) -> set[int]:
    return {rng.randint(lo, hi) for _ in range(size)}


def test_integer_set_basics():
    s = IntegerSet.from_iterable([5, -2, 9, 5])
    assert s.values() == [-2, 5, 9]
    assert len(s) == 3
    assert 5 in s and 0 not in s
    assert s.min() == -2 and s.max() == 9
    assert bool(s)
    assert not IntegerSet.empty()
    assert IntegerSet.singleton(7).values() == [7]


def test_integer_set_transforms():
    s = IntegerSet.from_iterable([1, 4, 6])
    assert s.shifted(3).values() == [4, 7, 9]
    assert s.reflected().values() == [-6, -4, -1]
    assert s.clamped(2, 5).values() == [4]
    assert s.clamped(None, 4).values() == [1, 4]
    assert s.union(IntegerSet.from_iterable([0, 4])).values() == [0, 1, 4, 6]
    assert s.intersection(IntegerSet.from_iterable([4, 5, 6])).values() == [4, 6]
    assert IntegerSet.from_iterable([1, 6]).issubset(s)
    assert not s.issubset(IntegerSet.from_iterable([1, 6]))
    assert s.stretched_double().values() == [2, 8, 12]


def test_sumset_matches_brute_force_all_backends():
    rng = random.Random(30)
    for _ in range(200):
        a = rand_values(rng, rng.randint(0, 12))
        b = rand_values(rng, rng.randint(0, 12))
        expected = brute_sumset(a, b)
        sets = [IntegerSet.from_iterable(a), IntegerSet.from_iterable(b)]
        offset = sets[0].offset + sets[1].offset
        for transform in (_sumset_shift_or, _sumset_fft):
            got = IntegerSet(offset, transform(*sets))
            assert set(got.values()) == expected, transform.__name__
        assert set(sumset(*sets).values()) == expected


def test_sumset_algebra():
    rng = random.Random(31)
    zero = IntegerSet.singleton(0)
    empty = IntegerSet.empty()
    for _ in range(100):
        a = IntegerSet.from_iterable(rand_values(rng, rng.randint(0, 10)))
        b = IntegerSet.from_iterable(rand_values(rng, rng.randint(0, 10)))
        c = IntegerSet.from_iterable(rand_values(rng, rng.randint(0, 6)))
        ab = sumset(a, b)
        assert ab.values() == sumset(b, a).values()
        assert len(ab) <= max(1, len(a) * len(b))
        assert sumset(ab, c).values() == sumset(a, sumset(b, c)).values()
        assert sumset(a, zero).values() == a.values()
        assert not sumset(a, empty)


def test_sumset_clamping():
    a = IntegerSet.from_iterable([0, 3, 7])
    b = IntegerSet.from_iterable([0, 5])
    got = sumset(a, b, lo=3, hi=8)
    assert got.values() == [3, 5, 7, 8]


def test_difference_set():
    rng = random.Random(32)
    for _ in range(100):
        a = rand_values(rng, rng.randint(0, 10))
        b = rand_values(rng, rng.randint(0, 10))
        got = difference_set(IntegerSet.from_iterable(a), IntegerSet.from_iterable(b))
        assert set(got.values()) == {x - y for x in a for y in b}


def test_ntt_convolution_matches_numpy():
    rng = random.Random(33)
    for _ in range(60):
        la, lb = rng.randint(1, 200), rng.randint(1, 200)
        a = (np.random.default_rng(rng.randrange(2**32)).random(la) < 0.4).astype(np.int64)
        b = (np.random.default_rng(rng.randrange(2**32)).random(lb) < 0.4).astype(np.int64)
        got = ntt_convolve_01(a, b)
        ref = (np.convolve(a, b) > 0).astype(np.int64)
        assert got.shape == ref.shape
        assert ((got > 0).astype(np.int64) == ref).all()
    # All-ones inputs maximize every count, the worst case for FFT rounding;
    # their boolean convolution is all ones.
    for log in (18, 19, 20):
        ones = np.ones(1 << log, dtype=np.uint8)
        got = ntt_convolve_01(ones, ones)
        assert got.shape == ((2 << log) - 1,)
        assert got.all()


def test_ntt_length_guard_raises_before_allocating():
    class Huge:
        def __len__(self):
            return 1 << 32

    with pytest.raises(ValueError, match="supported transform length"):
        ntt_convolve_01(Huge(), Huge())


def test_sumset_dense_large_spans_take_the_fft(monkeypatch):
    # Span 2**17 with popcounts above 8192: the size the w_max = 256 fold
    # builds, beyond _SHIFT_OR_BUDGET, so sumset routes to the FFT.
    calls = []

    def counted(a_bits, b_bits):
        calls.append(len(a_bits) + len(b_bits) - 1)
        return ntt_convolve_01(a_bits, b_bits)

    monkeypatch.setattr(intset, "ntt_convolve_01", counted)
    rng = np.random.default_rng(36)
    span = 1 << 17
    for density in (0.07, 0.5):
        a = IntegerSet(-5, _bits_to_mask(rng.random(span) < density) | 1)
        b = IntegerSet(3, _bits_to_mask(rng.random(span) < 0.07) | 1)
        assert min(len(a), len(b)) > 8192
        expected = IntegerSet(a.offset + b.offset, _sumset_shift_or(a, b))
        assert sumset(a, b) == expected
    assert len(calls) == 2


def test_all_subset_sums_matches_bitset():
    rng = random.Random(34)
    for _ in range(150):
        vals = [rng.randint(1, 30) for _ in range(rng.randint(0, 12))]
        expected = {0}
        for v in vals:
            expected |= {s + v for s in expected}
        assert set(all_subset_sums(vals).values()) == expected


def test_all_subset_sums_with_negative_values_and_window():
    rng = random.Random(35)
    for _ in range(100):
        vals = [rng.randint(-20, 20) or 3 for _ in range(rng.randint(0, 10))]
        lo, hi = -35, 35
        expected = {0}
        for v in vals:
            expected |= {s + v for s in expected}
        expected = {s for s in expected if lo <= s <= hi}
        got = set(all_subset_sums(vals, lo=lo, hi=hi).values())
        # clamping at every combine may prune chains that leave the window,
        # so the result is a subset; with this window width it is exact for
        # chains that stay inside, which always includes 0
        assert got <= expected
        assert 0 in got


def test_conv_len_counter_accumulates():
    counters = Counters()
    a = IntegerSet.from_iterable(range(0, 40, 3))
    b = IntegerSet.from_iterable(range(0, 30, 2))
    out = sumset(a, b, counters=counters)
    assert counters.conv_output_len >= len(out)
    before = counters.conv_output_len
    sumset(a, b, counters=counters)
    assert counters.conv_output_len == 2 * before
