"""Counter-addressed pseudo-random words."""

import numpy as np

from oracles import word64

from nobfext.prng import low_bits, uniform01, words


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
