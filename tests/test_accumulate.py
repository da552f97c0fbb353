"""Tests for the chunked exact summation helper."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trigzeta.accumulate import (
    _CHUNK,
    _COLUMN,
    _block_bounds,
    block_sum,
    exact_sum,
    index_blocks,
    positive_power,
    power_sum,
)
from trigzeta.oracle import _dirichlet_sum
from trigzeta.trig_sums import _block_bases, classical_form, finite_trig_sum, upper_index


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


# full columns of distinct entries just below 2^e, whose high limbs are
# near 2^w, with and without an entry past the column and low bits that count
_NEAR_POWER = [1.0 - k * 2.0**-45 for k in range(1, _COLUMN + 1)]
_COLUMN_EDGES = [
    _NEAR_POWER,
    _NEAR_POWER + [2.0**-40],
    [(-1) ** k * v for k, v in enumerate(_NEAR_POWER)] + [3 * 2.0**-60],
    [2.0**900 * v for v in _NEAR_POWER + _NEAR_POWER[:1]],
    [-(2.0**-1000) * v for v in _NEAR_POWER + _NEAR_POWER[:1]] + [5e-324],
]


@settings(max_examples=400, deadline=None)
@given(st.lists(_FLOATS, max_size=10_000))
@example(_COLUMN_EDGES[0])
@example(_COLUMN_EDGES[1])
@example(_COLUMN_EDGES[2])
@example(_COLUMN_EDGES[3])
@example(_COLUMN_EDGES[4])
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
    # 2^w, so one unsplit column would pass 2^53 and round
    x = np.full(100_000, 1.0 - 2.0**-53)
    x[::2] *= -0.75
    assert block_sum(x).hex() == math.fsum(x.tolist()).hex()


# the five distinct (kind, m, n) shapes of the catalog
_SHAPES = [classical_form(c) for c in ("E28", "E29", "E30", "E31", "E32")]
_KERNEL_S = [1.5, 2.0, 4.0, 30.0, 2.5 + 1.3j, 3 + 15j]


def _kernel_blocks(s: complex):
    for spec in _SHAPES:
        for q in (7, 300, 4097, 10**5):
            for lo, hi in _block_bounds(1, upper_index(q, spec.n) + 1):
                yield positive_power(_block_bases(spec, q, lo, hi), s)


@pytest.mark.parametrize("s", _KERNEL_S)
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


def test_limb_sum_at_a_midpoint_reaches_fsum(monkeypatch):
    # 2^53 + 1 is a midpoint; what 2^-60 adds lies below the second limb,
    # so only fsum can round it up
    calls = []
    fsum = math.fsum

    def spy(values):
        calls.append(list(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", spy)
    values = [2.0**53, 1.0, 2.0**-60]
    assert block_sum(np.array(values)) == 2.0**53 + 2.0
    assert calls == [values]


def _parent_power_sum(blocks, s):
    """``exact_sum`` over ``positive_power`` of the blocks, each block's
    parts summed by fsum and its magnitudes as |t|: the finite sums'
    kernel before ``power_sum``, kept as the reference for its bits."""
    re, im, mag = [], [], []
    for base in blocks:
        t = positive_power(base, s)
        re.append(math.fsum(t.real.tolist()))
        if np.iscomplexobj(t):
            im.append(math.fsum(t.imag.tolist()))
        mag.append(float(np.sum(np.abs(t))))
    return complex(math.fsum(re), math.fsum(im)), math.fsum(mag)


@pytest.mark.parametrize("s", _KERNEL_S)
@pytest.mark.parametrize("q", [7, 4097, 10**5, 131073])
def test_finite_sums_keep_the_parent_bits(s, q):
    s = complex(s)
    for spec in _SHAPES:
        blocks = (_block_bases(spec, q, lo, hi) for lo, hi in _block_bounds(1, upper_index(q, spec.n) + 1))
        value, mag = _parent_power_sum(blocks, s)
        got = finite_trig_sum(spec, q, s)
        assert (got.value.real.hex(), got.value.imag.hex()) == (value.real.hex(), value.imag.hex())
        bound = (4.0 * abs(s) + 4.0) * sys.float_info.epsilon * mag
        if s.imag == 0.0:
            assert got.rounding_bound.hex() == bound.hex()
        else:  # the sum of b^Re(s) in place of the sum of |b^s|
            assert abs(got.rounding_bound - bound) <= 1e-15 * bound


@pytest.mark.parametrize("s", [2.0, 3.7, 2.5 + 1.3j])
@pytest.mark.parametrize("N", [63, 10**6])
def test_dirichlet_sum_keeps_the_parent_bits(s, N):
    value, mag = _parent_power_sum(index_blocks(1, N + 1), -complex(s))
    got, got_mag = _dirichlet_sum(complex(s), N)
    assert (got.real.hex(), got.imag.hex()) == (value.real.hex(), value.imag.hex())
    if complex(s).imag == 0.0:
        assert got_mag.hex() == mag.hex()
    else:
        assert abs(got_mag - mag) <= 1e-15 * mag


def test_power_sum_of_no_blocks():
    assert power_sum([], 2.0 + 0j) == (0j, 0.0)
    assert power_sum([], 2.5 + 1.3j) == (0j, 0.0)


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
