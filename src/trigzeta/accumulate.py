"""Chunked exact summation of numpy term arrays.

Every large sum in the package (the finite trigonometric sums, both
sides of the Tannery identity, the oracle's series, integral and
log-product) hands its terms to :func:`exact_sum` as numpy arrays,
built block by block with :func:`index_blocks` or :func:`value_blocks`.
Each block is summed exactly rounded by ``math.fsum`` (Shewchuk
accumulation) and the block totals are summed exactly rounded once
more, so a sum that fits one block is exactly rounded and a longer one
carries at most one extra rounding per block, below eps/2 times that
block's sum of magnitudes.

Blocks of _CHUNK = 4096 terms keep the working set a few hundred
kilobytes whatever the length of the sum; larger blocks buy little
speed and cost memory.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

import numpy as np

_CHUNK = 4096


def index_blocks(lo: int, hi: int) -> Iterator[np.ndarray]:
    """The integers lo..hi-1 as float64 arrays of at most _CHUNK entries."""
    for a in range(lo, hi, _CHUNK):
        yield np.arange(a, min(a + _CHUNK, hi), dtype=np.float64)


def value_blocks(values: Iterable[complex]) -> Iterator[np.ndarray]:
    """Scalar values grouped into complex arrays of at most _CHUNK entries."""
    it = iter(values)
    while block := list(itertools.islice(it, _CHUNK)):
        yield np.array(block, dtype=np.complex128)


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
        re.append(math.fsum(t.real.tolist()))
        if np.iscomplexobj(t):
            im.append(math.fsum(t.imag.tolist()))
        mag.append(float(np.sum(np.abs(t))))
    return complex(math.fsum(re), math.fsum(im)), math.fsum(mag)
