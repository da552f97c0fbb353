"""Tests for the chunked exact summation helper."""

import numpy as np

from trigzeta.accumulate import _CHUNK, exact_sum, index_blocks, value_blocks


def test_index_blocks_cover_the_range_once():
    blocks = list(index_blocks(3, 3 + 2 * _CHUNK + 5))
    assert [b.size for b in blocks] == [_CHUNK, _CHUNK, 5]
    joined = np.concatenate(blocks)
    assert joined.dtype == np.float64
    assert np.array_equal(joined, np.arange(3, 3 + 2 * _CHUNK + 5))
    assert list(index_blocks(7, 7)) == []


def test_sum_is_exact_where_naive_summation_cancels():
    total, mag = exact_sum(value_blocks([1e16, 1.0, -1e16]))
    assert total == 1.0
    assert mag == 2e16 + 1.0
    assert sum([1e16, 1.0, -1e16]) == 0.0  # what the plain sum gives


def test_real_and_complex_blocks_across_block_boundaries():
    n = 3 * _CHUNK + 1
    total, mag = exact_sum(index_blocks(1, n + 1))
    assert total == complex(n * (n + 1) // 2, 0.0)
    assert mag == n * (n + 1) // 2
    total, _ = exact_sum(value_blocks(complex(k, -k) for k in range(1, n + 1)))
    assert total == complex(n * (n + 1) // 2, -(n * (n + 1) // 2))


def test_empty_sum():
    assert exact_sum([]) == (0j, 0.0)
    assert exact_sum(value_blocks([])) == (0j, 0.0)
