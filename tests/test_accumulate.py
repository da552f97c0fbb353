"""Tests for the chunked exact summation helper."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trigzeta.accumulate import (
    _CHUNK,
    _block_bounds,
    block_sum,
    exact_sum,
    index_blocks,
    positive_power,
)
from trigzeta.trig_sums import _block_bases, classical_form, upper_index


def test_index_blocks_cover_the_range_once():
    blocks = list(index_blocks(3, 3 + 2 * _CHUNK + 5))
    assert [b.size for b in blocks] == [_CHUNK, _CHUNK, 5]
    joined = np.concatenate(blocks)
    assert joined.dtype == np.float64
    assert np.array_equal(joined, np.arange(3, 3 + 2 * _CHUNK + 5))
    assert list(index_blocks(7, 7)) == []


def test_sum_is_exact_where_naive_summation_cancels():
    total, mag = exact_sum([np.array([1e16, 1.0, -1e16])])
    assert total == 1.0
    assert mag == 2e16 + 1.0
    assert sum([1e16, 1.0, -1e16]) == 0.0  # what the plain sum gives


def test_real_and_complex_blocks_across_block_boundaries():
    n = 3 * _CHUNK + 1
    total, mag = exact_sum(index_blocks(1, n + 1))
    assert total == complex(n * (n + 1) // 2, 0.0)
    assert mag == n * (n + 1) // 2
    total, _ = exact_sum(k * (1 - 1j) for k in index_blocks(1, n + 1))
    assert total == complex(n * (n + 1) // 2, -(n * (n + 1) // 2))


def test_empty_sum():
    assert exact_sum([]) == (0j, 0.0)
    assert exact_sum([np.array([], dtype=np.complex128)]) == (0j, 0.0)


def _outcome(f, values):
    """The bits of f(values), or the type of the exception it raises."""
    try:
        return f(values).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


_SPECIAL = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
     math.inf, -math.inf, math.nan, 1.7976931348623157e308, -1e308, 9e307,
     2.0**53, 1.0, -1.0, 2.0**-60, -(2.0**-60), 0.5]
)
# small mantissas at scattered exponents: exact ties and cancellations
_DYADIC = st.builds(math.ldexp, st.integers(-8, 8), st.integers(-1074, 1019))
_FLOATS = st.one_of(st.floats(), _SPECIAL, _DYADIC)


@settings(max_examples=400, deadline=None)
@given(st.lists(_FLOATS, max_size=10_000))
@example([2.0**53, 1.0, 2.0**-60])
@example([2.0**53, 1.0, -(2.0**-60)])
@example([2.0**53, 1.0])
@example([1e308, 1e308, -1e308])
@example([9e307, 9e307, -5e307, -5e307])
@example([math.inf, -math.inf])
@example([-0.0, -0.0])
@example([5e-324, 5e-324])
def test_block_sum_has_fsum_bits(values):
    x = np.array(values, dtype=np.float64)
    assert _outcome(block_sum, x) == _outcome(math.fsum, values)


def test_long_block_limb_columns_stay_exact():
    # 10^5 entries just below a power of two: every high limb is near
    # 2^50, so one unsplit int64 column would wrap
    x = np.full(100_000, 1.0 - 2.0**-53)
    x[::2] *= -0.75
    assert block_sum(x).hex() == math.fsum(x.tolist()).hex()


# the five distinct (kind, m, n) shapes of the catalog
_SHAPES = [classical_form(c) for c in ("E28", "E29", "E30", "E31", "E32")]


def _kernel_blocks(s: complex):
    for spec in _SHAPES:
        for q in (7, 300, 4097, 10**5):
            for lo, hi in _block_bounds(1, upper_index(q, spec.n) + 1):
                yield positive_power(_block_bases(spec, q, lo, hi), s)


@pytest.mark.parametrize("s", [1.5, 2.0, 4.0, 30.0, 2.5 + 1.3j, 3 + 15j])
def test_kernel_blocks_have_fsum_bits(s):
    for t in _kernel_blocks(complex(s)):
        for part in (t.real, t.imag) if np.iscomplexobj(t) else (t,):
            assert block_sum(part).hex() == math.fsum(part.tolist()).hex()


def _no_fsum(values):
    raise AssertionError("block handed to math.fsum")


@pytest.mark.parametrize("s", [1.5, 2.0, 4.0, 30.0])
def test_real_kernel_blocks_never_fall_back(s, monkeypatch):
    # a block sum that always handed its block to fsum would pass the
    # bit tests above; the kernel's real blocks must all stay in numpy
    monkeypatch.setattr(math, "fsum", _no_fsum)
    for t in _kernel_blocks(complex(s)):
        block_sum(t)


def test_zero_blocks_stay_in_numpy(monkeypatch):
    monkeypatch.setattr(math, "fsum", _no_fsum)
    assert block_sum(np.zeros(_CHUNK)).hex() == "0x0.0p+0"
    assert block_sum(np.full(_CHUNK, -0.0)).hex() == "0x0.0p+0"


@pytest.mark.parametrize("s", [2.5 + 1.3j, -0.5 + 18j, 1e-3 - 40j, -3 - 2j])
def test_positive_power_complex(s):
    base = np.concatenate([np.arange(1.0, 200.0), [1e-5, 0.37, 12345.678]])
    got = positive_power(base, s)
    assert got.dtype == np.complex128
    # exact conjugates, and numpy's complex power to a few ulps
    assert np.array_equal(positive_power(base, s.conjugate()), got.conj())
    want = np.power(base.astype(np.complex128), s)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_positive_power_real_is_np_power():
    base = np.arange(1.0, 5000.0)
    for s in (2.0, -0.5, 30.0):
        assert np.array_equal(positive_power(base, complex(s)), np.power(base, s))
