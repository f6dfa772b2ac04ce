"""Counter-based deterministic pseudorandomness.

Every empirical sample in this package is addressed by a
``(master seed, stream id, counter)`` triple and produced by a stateless
SplitMix64-style mix of that triple.  Because there is no hidden generator
state, a batch of draws is identical no matter how it is chunked across
workers, which is the reproducibility contract the samplers advertise.
Seeds, streams and counters outside 0..2^64-1 are refused (`check_word`),
never reduced onto another value; `words` takes a vector of streams too.
``chunk_ranges`` is the one chunk plan: near-equal pieces, at least one
per worker, so a kernel's temporaries do not grow with the sample count.
Exact seed walks and the code search take CHUNK = 2^18, as their per-call
set-up is dearer (exact compare-zeroed took 34 ms in 2^15 pieces, 27 in
2^18; `build-code` 69 and 27).  Sampled walks take DRAW_CHUNK = 2^15: a
2^18-word temporary is 2 MiB and streams through L3 (2^18 words took
4.9 ms in one call, 1.8 ms in 2^15-word calls; 2-core x86-64, numpy 2.4).
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from .errors import ValidationError

_M64 = (1 << 64) - 1
_PHI1 = 0x9E3779B97F4A7C15
_PHI2 = 0xD1B54A32D192ED03
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
CHUNK = 1 << 18  # the most seeds an exact walk's kernel call is given at once
DRAW_CHUNK = 1 << 15  # the most draws a sampled walk's kernel call is given


def _finalize_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a fresh uint64 array or scalar."""
    z, t = np.asarray(z), np.empty(np.shape(z), dtype=np.uint64)
    z ^= np.right_shift(z, np.uint64(30), out=t)
    z *= np.uint64(_MUL1)
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= np.uint64(_MUL2)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def check_word(value, what: str) -> np.ndarray:
    """An int or integer array of values in 0..2^64-1 as uint64; anything
    else (a bool, a float, a negative or wider int) is a ValidationError."""
    v = np.asarray(value)
    if v.dtype.kind not in "iu" or (v.dtype.kind == "i" and v.size and v.min() < 0):
        raise ValidationError(f"{what} must be in 0..2^64-1, got {value!r}")
    return v.astype(np.uint64)


def words(seed: int, stream, start: int, count: int) -> np.ndarray:
    """count consecutive words as a uint64 array: the word at counter c
    mixes the seed, then the stream, then c.  A vector of S streams gives
    an (S, count) array, row k equal to the words of stream k."""
    s = check_word(seed, "seed")
    if s.ndim:
        raise ValidationError("seed must be one integer")
    check_word(start, "counter start")
    check_word(count, "count")
    with np.errstate(over="ignore"):
        h1 = _finalize_array(s + np.uint64(_PHI1))
        hs = _finalize_array(check_word(stream, "stream") + np.uint64(_PHI2))
        h2 = _finalize_array(h1 ^ hs)
        ctr = np.arange(start, start + count, dtype=np.uint64)
        inner = _finalize_array(ctr + np.uint64(_PHI1))
        return _finalize_array(h2[..., None] ^ inner)


def uniform01(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """count doubles in [0, 1), one per counter."""
    w = words(seed, stream, start, count)
    return (w >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def low_bits(seed: int, stream: int, start: int, count: int, nbits: int) -> np.ndarray:
    """count draws of nbits each (nbits <= 64), as uint64."""
    if not 1 <= nbits <= 64:
        raise ValueError("nbits must be in 1..64")
    w = words(seed, stream, start, count)
    if nbits < 64:
        w &= np.uint64((1 << nbits) - 1)
    return w


def chunk_ranges(total: int, workers: int, size: int | None = None) -> list[tuple[int, int]]:
    """Split [0, total) into near-equal (start, count) pieces, in order: one
    per worker, or as many more as keep each within `size` (default CHUNK)."""
    pieces = max(min(workers, total), -(-total // (size or CHUNK))) if total else 1
    base, extra = divmod(total, pieces)
    starts = [i * base + min(i, extra) for i in range(pieces + 1)]
    return [(lo, hi - lo) for lo, hi in zip(starts, starts[1:])]


def run_chunked(fn, total: int, workers: int):
    """Yield fn(start, count) over the DRAW_CHUNK pieces of [0, total), in
    range order.  Worker threads take piece indices from a shared counter,
    at most 2 * workers ahead of the last piece yielded; an exception from
    fn is raised when its piece is reached, and the threads are joined
    before the generator returns, raises or is closed."""
    chunks = chunk_ranges(total, workers, DRAW_CHUNK)
    if workers <= 1 or len(chunks) <= 1:
        yield from itertools.starmap(fn, chunks)
        return
    ahead, order, done = threading.Semaphore(2 * workers), itertools.count(), {}
    ready, stop = threading.Condition(), threading.Event()

    def work():
        while ahead.acquire() and not stop.is_set() and (i := next(order)) < len(chunks):
            try:
                out = True, fn(*chunks[i])
            except BaseException as exc:  # raised by the consumer, in range order
                out = False, exc
            with ready:
                done[i] = out
                ready.notify()

    threads = [threading.Thread(target=work, daemon=True) for _ in chunks[:workers]]
    for t in threads:
        t.start()
    try:
        for i in range(len(chunks)):
            with ready:
                ready.wait_for(lambda: i in done)
                ok, out = done.pop(i)
            ahead.release()
            if not ok:
                raise out
            yield out
    finally:
        stop.set()
        ahead.release(len(threads))
        for t in threads:
            t.join()
