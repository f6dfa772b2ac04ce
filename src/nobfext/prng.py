"""Counter-based deterministic pseudorandomness.

Every empirical sample in this package is addressed by a
``(master seed, stream id, counter)`` triple and produced by a stateless
SplitMix64-style mix of that triple.  Because there is no hidden generator
state, a batch of draws is identical no matter how it is chunked across
workers, which is the reproducibility contract the samplers advertise.
``run_chunked`` is the one place that splits a counter range across
worker threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

_M64 = (1 << 64) - 1
_PHI1 = 0x9E3779B97F4A7C15
_PHI2 = 0xD1B54A32D192ED03
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _finalize(z: int) -> int:
    z &= _M64
    z ^= z >> 30
    z = (z * _MUL1) & _M64
    z ^= z >> 27
    z = (z * _MUL2) & _M64
    z ^= z >> 31
    return z


def word64(seed: int, stream: int, counter: int) -> int:
    """One 64-bit word for the (seed, stream, counter) triple."""
    h = _finalize((seed + _PHI1) & _M64)
    h = _finalize(h ^ _finalize((stream + _PHI2) & _M64))
    h = _finalize(h ^ _finalize((counter + _PHI1) & _M64))
    return h


def bits(seed: int, stream: int, counter: int, nbits: int) -> int:
    """nbits deterministic bits; wide draws consume consecutive sub-words.

    A draw of more than 64 bits folds ceil(nbits/64) words addressed at
    counters ``counter * nwords + j``, so callers may still use one counter
    per draw.
    """
    if nbits <= 0:
        raise ValueError("nbits must be positive")
    nwords = -(-nbits // 64)
    value = 0
    for j in range(nwords):
        value |= word64(seed, stream, counter * nwords + j) << (64 * j)
    return value & ((1 << nbits) - 1)


def _finalize_array(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MUL2)
    z ^= z >> np.uint64(31)
    return z


def words(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """count consecutive words as a uint64 array, matching word64 exactly."""
    out = np.empty(count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h1 = _finalize((seed + _PHI1) & _M64)
        h2 = _finalize(h1 ^ _finalize((stream + _PHI2) & _M64))
        ctr = np.arange(start, start + count, dtype=np.uint64)
        inner = _finalize_array(ctr + np.uint64(_PHI1))
        out[:] = _finalize_array(np.uint64(h2) ^ inner)
    return out


def uniform01(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """count doubles in [0, 1), one per counter."""
    w = words(seed, stream, start, count)
    return (w >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def low_bits(seed: int, stream: int, start: int, count: int, nbits: int) -> np.ndarray:
    """count draws of nbits each (nbits <= 64), as uint64."""
    if not 1 <= nbits <= 64:
        raise ValueError("nbits must be in 1..64")
    w = words(seed, stream, start, count)
    if nbits == 64:
        return w
    return w & np.uint64((1 << nbits) - 1)


def chunk_ranges(total: int, workers: int) -> list[tuple[int, int]]:
    """Split [0, total) into one (start, count) per worker, in order."""
    workers = max(1, min(workers, total)) if total else 1
    base, extra = divmod(total, workers)
    out = []
    start = 0
    for i in range(workers):
        count = base + (1 if i < extra else 0)
        out.append((start, count))
        start += count
    return out


def run_chunked(fn, total: int, workers: int) -> list:
    """Apply fn(start, count) over a worker-split counter range.

    Results come back in range order, so any associative combination is
    independent of the worker count.
    """
    chunks = chunk_ranges(total, workers)
    if workers <= 1 or len(chunks) <= 1:
        return [fn(s, c) for s, c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda sc: fn(*sc), chunks))
