"""Chunked exact summation of numpy term arrays, and powers of positive
arrays.

Every large sum in the package (the finite trigonometric sums, both
sides of the Tannery identity, the oracle's series, integral and
log-product) hands its terms to :func:`exact_sum` as numpy arrays,
built block by block over :func:`index_blocks`.  Each block is summed
exactly rounded (:func:`block_sum`, the bits of ``math.fsum``) and the
block totals are summed exactly rounded once more by ``math.fsum``, so
a sum that fits one block is exactly rounded and a longer one carries
at most one extra rounding per block, below eps/2 times that block's
sum of magnitudes.

A block is summed without leaving numpy, by an error-free split into
integers in the spirit of Ogita, Rump and Oishi, "Accurate Sum and Dot
Product" (SISC 2005) and Rump, Ogita and Oishi, "Accurate
Floating-Point Summation, Part I" (SISC 2008):

1. scale by a power of two (``np.ldexp``, exact) so that max|x| < 2^50;
2. cut every entry into two 50-bit int64 limbs, the integer part and
   the next 50 bits, both exact;
3. add each limb column in int64, at most 2^13 entries at a time, which
   cannot overflow, and join the two column sums into one Python int;
4. round that int once with ``float(int)`` (half to even, as ``fsum``
   rounds) and undo the scaling with ``math.ldexp``.

What lies below the second limb moves the exact sum by less than one
unit of that limb per entry; entries that underflow in step 1 lie
there too.  ``math.fsum`` decides the block instead only when

* that movement could cross a rounding boundary,
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

The terms themselves are mostly powers b^s of positive reals b (the
finite sums' bases, the oracle's n^-s); :func:`positive_power` is the
one place that evaluates them.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

_CHUNK = 4096

#: bits per integer limb, and entries per int64 column sum:
#: 2^13 entries below 2^50 add up to less than 2^63.
_LIMB = 50
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


def positive_power(base: np.ndarray, s: complex) -> np.ndarray:
    """base**s for an array of positive reals, branch-free.

    Real s uses ``np.power``.  Complex s uses exp(s ln b) with the real
    natural logarithm, as exp(sigma ln b) (cos(t ln b) + i sin(t ln b)),
    so conjugate exponents give exactly conjugate results.
    """
    if s.imag == 0.0:
        return np.power(base, s.real)
    log_base = np.log(base)
    magnitude = np.exp(s.real * log_base)
    phase = s.imag * log_base
    out = np.empty(base.shape, dtype=np.complex128)
    out.real = magnitude * np.cos(phase)
    out.imag = magnitude * np.sin(phase)
    return out


def _column_sum(limbs: np.ndarray) -> int:
    """Exact sum of an int64 array whose entries are below 2^50."""
    return sum(
        int(limbs[a : a + _COLUMN].sum())
        for a in range(0, limbs.size, _COLUMN)
    )


def _limb_sum(x: np.ndarray) -> float | None:
    """``math.fsum`` of the real float64 array x from two integer limbs,
    or None where fsum has to decide (see the module docstring)."""
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
    shift = _LIMB - e
    y = np.ldexp(x, shift)
    hi = y.astype(np.int64)  # truncates toward zero
    lo = np.ldexp(y - hi, _LIMB).astype(np.int64)
    total = (_column_sum(hi) << _LIMB) + _column_sum(lo)
    # the exact scaled sum lies strictly between total - n and total + n
    if float(total - n) != float(total + n):
        return None
    return math.ldexp(float(total), -shift - _LIMB)


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
