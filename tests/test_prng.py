"""Counter-addressed pseudo-random words."""

import numpy as np
import pytest

from oracles import word64

from nobfext.errors import ValidationError
from nobfext.prng import check_word, low_bits, uniform01, words


def test_word64_deterministic_and_stream_separated():
    assert word64(1, 0, 0) == word64(1, 0, 0)
    assert word64(1, 0, 0) != word64(2, 0, 0)
    assert word64(1, 0, 0) != word64(1, 1, 0)
    assert word64(1, 0, 0) != word64(1, 0, 1)
    assert 0 <= word64(123, 456, 789) < 1 << 64


def test_words_matches_scalar_path():
    for seed, stream, start in [(0, 0, 0), (1, 2, 3), (42, 7, 10**12)]:
        arr = words(seed, stream, start, 50)
        assert arr.dtype == np.uint64
        for i in range(50):
            assert int(arr[i]) == word64(seed, stream, start + i)


def test_words_chunking_invariance():
    # Any split of the counter range yields the same draws.  This is the
    # property that makes worker counts irrelevant to sampled output.
    whole = words(9, 4, 100, 64)
    for cut in [1, 7, 32, 63]:
        a = words(9, 4, 100, cut)
        b = words(9, 4, 100 + cut, 64 - cut)
        assert np.array_equal(np.concatenate([a, b]), whole)


def test_words_take_counters_up_to_the_last_word():
    top = words(9, 4, 2 ** 64 - 8, 8)
    assert top.tolist() == [word64(9, 4, c) for c in range(2 ** 64 - 8, 2 ** 64)]


def test_low_bits_range_and_uniformity():
    draws = low_bits(11, 0, 0, 1 << 14, 3)
    assert draws.max() <= 7
    counts = np.bincount(draws.astype(np.int64), minlength=8)
    freqs = counts / draws.size
    assert np.all(np.abs(freqs - 0.125) < 0.02)


def test_uniform01_range_and_mean():
    u = uniform01(2, 0, 0, 1 << 14)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1 / 12) < 0.01


def test_word_bit_balance():
    w = words(17, 3, 0, 1 << 12)
    unpacked = np.unpackbits(w.view(np.uint8))
    assert abs(unpacked.mean() - 0.5) < 0.01


def test_no_short_cycles():
    w = words(0, 0, 0, 1 << 12)
    assert len(np.unique(w)) == w.size


def test_words_over_a_stream_vector_equal_one_call_per_stream():
    streams = np.array([0, 1, 7, 544, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
    block = words(5, streams, 3, 20)
    assert block.shape == (len(streams), 20) and block.dtype == np.uint64
    for row, stream in zip(block, streams):
        assert np.array_equal(row, words(5, int(stream), 3, 20))
        assert [int(v) for v in row] == [word64(5, int(stream), 3 + c) for c in range(20)]
    # int64 streams that are in range give the same words
    assert np.array_equal(words(5, streams[:4].astype(np.int64), 3, 20), block[:4])
    assert words(5, np.arange(0, dtype=np.uint64), 0, 4).shape == (0, 4)


@pytest.mark.parametrize("seed,stream", [
    (-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64), (0, np.array([0, -1])),
    (0, np.array([0, 2 ** 64], dtype=object)), (True, 0), (1.0, 0), (0, 0.5),
    (np.array([1, 2]), 0),
])
def test_words_refuse_seeds_and_streams_outside_one_word(seed, stream):
    # no value is reduced mod 2^64 onto another value's stream
    with pytest.raises(ValidationError, match="must be"):
        words(seed, stream, 0, 4)


def test_word_range_ends_are_distinct_streams():
    assert words(2 ** 64 - 1, 0, 0, 4).tolist() == [word64(2 ** 64 - 1, 0, c)
                                                   for c in range(4)]
    assert not np.array_equal(words(2 ** 64 - 1, 0, 0, 4), words(0, 0, 0, 4))
    assert check_word(2 ** 64 - 1, "seed") == np.uint64(2 ** 64 - 1)
    with pytest.raises(ValidationError, match="seed must be in 0..2\\^64-1, got -1"):
        check_word(-1, "seed")
