"""Chunked exact summation of numpy term arrays, and powers of positive
arrays.

Every large sum in the package (the finite trigonometric sums, both
sides of the Tannery identity, the oracle's series, integral and
log-product) is taken block by block over :func:`index_blocks`: a sum
of powers b^s of positive reals b (the finite sums' bases, the
Dirichlet sum's n^-s) by :func:`power_sum`, any other array of terms by
:func:`exact_sum`.  Each block is summed exactly rounded
(:func:`block_sum`, the bits of ``math.fsum``) and the block totals are
summed exactly rounded once more by ``math.fsum``, so a sum that fits
one block is exactly rounded and a longer one carries at most one extra
rounding per block, below eps/2 times that block's sum of magnitudes.

A block is summed without leaving numpy, by an error-free split in the
spirit of Ogita, Rump and Oishi, "Accurate Sum and Dot Product" (SISC
2005) and Rump, Ogita and Oishi, "Accurate Floating-Point Summation,
Part I" (SISC 2008).  With c the length of a column, at most
_COLUMN = 2^13 entries, and w = 52 - bit_length(c):

1. scale by a power of two (``np.ldexp``, exact) so that max|y| < 2^w;
2. split every entry into the integer-valued float h = rint(y) and the
   remainder y - h, both exact, |y - h| <= 1/2;
3. add each column of h with numpy's float sum, which is exact because
   c integers of at most 2^w stay below 2^52, and each column of
   remainders with numpy's float sum, in any order off by at most
   gamma_{c-1} (about (c - 1) eps/2) times the c/2 that bounds them,
   which is below (c - 1)/4 units of 2^-w; join the sums as one Python
   int in units of 2^-w, truncating the remainders' sums;
4. round that int once with ``float(int)`` (half to even, as ``fsum``
   rounds) and undo the scaling with ``math.ldexp``.

For a block of n entries the int then lies less than n units from the
exact scaled sum: the remainders' rounding, the truncation of their
sums and the entries that underflow in step 1 add up to less.
``math.fsum`` decides the block instead only when

* that difference could cross a rounding boundary,
* the block holds an inf or a nan (``fsum`` returns or raises),
* the entries are so large that ``fsum``'s partial sums could overflow
  (it then raises its own ``OverflowError``).

An all-zero block sums to +0.0, as ``fsum`` gives.  A subnormal result
needs no care: an exact sum below 2^-1022 is a multiple of 2^-1074, so
a float itself, and the one rounding in step 4 leaves it unchanged.

Blocks of _CHUNK = 4096 terms keep the streaming working set a few
hundred kilobytes whatever the length of the sum; larger blocks buy
little speed and cost memory.  The finite sums add to that a read-only
memo of their bases, at most 1 MiB (:mod:`trigzeta.trig_sums`).

The powers come from :func:`positive_power`, or for a whole sum from
:func:`power_sum`, which forms the same products without a complex
array: its complex-s terms go straight into the two contiguous rows of
one real array, and its magnitude sum is the sum of b^Re(s), with no
pass of ``abs``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

_CHUNK = 4096

#: entries per column sum: at most 2^13, so w >= 38
_COLUMN = 1 << 13


def _block_bounds(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Bounds (a, b) of the consecutive blocks a..b-1, at most _CHUNK
    wide, that cover lo..hi-1."""
    for a in range(lo, hi, _CHUNK):
        yield a, min(a + _CHUNK, hi)


def index_blocks(lo: int, hi: int) -> Iterator[np.ndarray]:
    """The integers lo..hi-1 as float64 arrays of at most _CHUNK entries."""
    for a, b in _block_bounds(lo, hi):
        yield np.arange(a, b, dtype=np.float64)


def _polar(base: np.ndarray, s: complex) -> tuple[np.ndarray, np.ndarray]:
    """(exp(sigma ln b), t ln b) for s = sigma + it: base**s in polar form."""
    log_base = np.log(base)
    return np.exp(s.real * log_base), s.imag * log_base


def positive_power(base: np.ndarray, s: complex) -> np.ndarray:
    """base**s for an array of positive reals, branch-free.

    Real s uses ``np.power``.  Complex s uses exp(s ln b) with the real
    natural logarithm, as exp(sigma ln b) (cos(t ln b) + i sin(t ln b)),
    so conjugate exponents give exactly conjugate results.
    """
    if s.imag == 0.0:
        return np.power(base, s.real)
    magnitude, phase = _polar(base, s)
    out = np.empty(base.shape, dtype=np.complex128)
    out.real = magnitude * np.cos(phase)
    out.imag = magnitude * np.sin(phase)
    return out


def _limb_sum(x: np.ndarray) -> float | None:
    """``math.fsum`` of the real float64 array x from its integer parts
    and remainders at a common scale, or None where fsum has to decide
    (see the module docstring)."""
    n = x.size
    if n == 0:
        return 0.0
    top, bottom = float(x.max()), float(x.min())
    if not math.isfinite(top - bottom):
        return None
    biggest = max(top, -bottom)
    if biggest == 0.0:
        return 0.0
    e = math.frexp(biggest)[1]  # biggest < 2^e
    if e + n.bit_length() > 1021:
        return None
    w = 52 - min(n, _COLUMN).bit_length()
    shift = w - e
    y = np.ldexp(x, shift)
    high = np.rint(y)
    y -= high  # the exact remainders, at most 1/2
    high_sum = low_sum = 0
    for a in range(0, n, _COLUMN):
        high_sum += int(high[a : a + _COLUMN].sum())
        low_sum += int(math.ldexp(float(y[a : a + _COLUMN].sum()), w))
    total = (high_sum << w) + low_sum
    # the exact scaled sum lies strictly between total - n and total + n
    if float(total - n) != float(total + n):
        return None
    return math.ldexp(float(total), -shift - w)


def block_sum(x: np.ndarray) -> float:
    """Exactly rounded sum of a real float64 array: the bits of
    ``math.fsum(x.tolist())``, and its exception where it raises."""
    total = _limb_sum(x)
    return math.fsum(x.tolist()) if total is None else total


def exact_sum(blocks: Iterable[np.ndarray]) -> tuple[complex, float]:
    """(sum of all entries, sum of their magnitudes) over real or
    complex blocks.

    The real and imaginary parts are summed separately, each block
    exactly rounded and the block totals exactly rounded again; the
    magnitude sum is an ordinary float sum, meant for rounding bounds.
    """
    re: list[float] = []
    im: list[float] = []
    mag: list[float] = []
    for t in blocks:
        re.append(block_sum(t.real))
        if np.iscomplexobj(t):
            im.append(block_sum(t.imag))
        mag.append(float(np.sum(np.abs(t))))
    return complex(math.fsum(re), math.fsum(im)), math.fsum(mag)


def power_sum(base_blocks: Iterable[np.ndarray], s: complex) -> tuple[complex, float]:
    """(sum of b^s, sum of |b^s|) over blocks of positive reals b: the
    value of ``exact_sum`` over ``positive_power`` of the blocks, to the
    bit.

    The terms are the same products as ``positive_power``'s.  Real s
    sums them and their magnitudes (nonnegative, so their own) straight
    from ``np.power``.  Complex s writes m cos(phase) and m sin(phase),
    with m = b^Re(s), into the two contiguous rows of one real array and
    sums each row; its magnitude sum is the sum of m, which is |b^s| in
    exact arithmetic and differs from ``exact_sum``'s rounded |b^s| only
    in the last bits.
    """
    parts: tuple[list[float], list[float]] = ([], [])
    mag: list[float] = []
    for base in base_blocks:
        if s.imag == 0.0:
            magnitude = np.power(base, s.real)
            rows = magnitude[np.newaxis]
        else:
            magnitude, phase = _polar(base, s)
            rows = np.empty((2, base.size))
            np.cos(phase, out=rows[0])
            np.sin(phase, out=rows[1])
            rows *= magnitude
        for total, row in zip(parts, rows):
            total.append(block_sum(row))
        mag.append(float(magnitude.sum()))
    return complex(math.fsum(parts[0]), math.fsum(parts[1])), math.fsum(mag)
