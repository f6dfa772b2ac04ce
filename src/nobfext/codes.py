"""Binary linear [r, m, d] codes with verified minimum distance.

A code holds its m generator rows as r-bit ints (coordinate j is bit j,
the bit order of `nobfext.bitops`), and the kernels read them in the
`bitops` word layout.  The extractor compresses an r-bit vector y to Gy
by `compress_batch`, the `bitops` linear map of G's columns, for any r
and m; the codewords vG are the XORs of G's rows.  Distance is
established only by exhaustive enumeration of `bitops.xor_table`s, also
for the distance a loaded document claims; `verified_d = 0` means
unverified and such codes are rejected downstream.  The code search keeps
only exhaustively verified codes; it rejects most attempts before any
scan, by a codeword of weight at most the best distance so far among a
few XORs of the attempt's echelon rows (`echelon_batch`, which also
checks every code's rank), which is a proof that the attempt's distance
is no better.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache

import numpy as np

from . import prng
from .bitops import (PACKED_WIDTH, apply_linear_map, as_words, bit_field,
                     hex_from_words, ints_from_words, linear_map_tables, n_words,
                     popcount, words_from_hex, words_from_ints, xor_table)
from .errors import (DimensionError, Record, SearchBudgetExceeded, ValidationError,
                     WorkCapExceeded, parse_errors)
from .schemas import integer

DISTANCE_M_CAP = 24
BUILD_M_CAP = 20
DEFAULT_ATTEMPTS = 4096
WITNESS_ROWS = 3  # echelon rows XORed, at most, into a search attempt's witnesses


def echelon_batch(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(echelon, ranks) of a stack of (A, m, W) word matrices over GF(2).

    Row i is XORed with each earlier echelon row whose pivot bit it has
    (all tested at once: an echelon row is zero at the other pivots); if
    nonzero, its lowest set bit becomes its pivot and is cleared from the
    earlier rows.  Row i of `echelon` is that row, zero when it depends on
    rows 0..i-1; the nonzero rows are the reduced echelon form."""
    e = np.array(rows, dtype=np.uint64)
    pivots = np.zeros_like(e)  # each row's pivot bit in its word, zero for a zero row
    first = np.arange(len(e))
    for i in range(e.shape[1]):
        row = e[:, i]
        has = (pivots[:, :i] & row[:, None]).any(axis=2)
        row ^= np.bitwise_xor.reduce(np.where(has[:, :, None], e[:, :i], np.uint64(0)),
                                     axis=1)
        at = (first, (row != 0).argmax(axis=1))
        pivot = pivots[:, i]
        pivot[at] = row[at] & (~row[at] + np.uint64(1))
        has = (e[:, :i] & pivot[:, None]).any(axis=2)
        e[:, :i] ^= np.where(has[:, :, None], row[:, None], np.uint64(0))
    return e, np.count_nonzero(pivots.any(axis=2), axis=1)


class LinearCode(Record):
    __slots__ = ("r", "rows", "verified_d", "construction")

    def __init__(self, r: int, rows, verified_d: int = 0, construction: dict | None = None):
        super().__init__(integer(r), tuple(map(integer, rows)), verified_d,
                         {"kind": "explicit"} if construction is None else construction)
        if not self.rows or self.r < 1:
            raise ValidationError("need m >= 1 and r >= 1")
        for i, row in enumerate(self.rows):
            if row < 0 or row >> self.r:
                raise DimensionError(f"row {i} has bits set beyond r = {self.r}")
        if echelon_batch(words_from_ints(self.rows, self.r)[None])[1][0] != self.m:
            raise ValidationError("generator matrix must have full row rank")
        if not 0 <= self.verified_d <= self.r:
            raise ValidationError("verified_d outside 0..r")

    @property
    def m(self) -> int:
        return len(self.rows)

    def to_json(self) -> dict:
        return {
            "format": "linear-code",
            "version": 1,
            "m": self.m,
            "r": self.r,
            "rows": hex_from_words(words_from_ints(self.rows, self.r), self.r),
            "verified_d": self.verified_d,
            "construction": dict(self.construction),
        }

    @classmethod
    @parse_errors("linear code")
    def from_json(cls, obj: dict) -> "LinearCode":
        if obj.get("format") != "linear-code":
            raise ValidationError("not a linear-code object")
        r = integer(obj["r"])
        rows = ints_from_words(words_from_hex(obj["rows"], r))
        if integer(obj["m"]) != len(rows):
            raise DimensionError("generator matrix shape does not match (m, r)")
        code = cls(r, rows, construction=dict(obj.get("construction", {"kind": "explicit"})))
        # a claimed distance is re-derived, never trusted; 0 claims none
        claimed = integer(obj.get("verified_d", 0))
        if claimed and min_distance_exact(code) != claimed:
            raise ValidationError(
                f"code claims verified_d = {claimed}, but its minimum distance "
                f"is {code.verified_d}")
        return code

    def __repr__(self) -> str:
        return f"LinearCode[{self.r},{self.m},{self.verified_d or '?'}]"


def compress_batch(code: LinearCode, ys) -> np.ndarray:
    """G y for packed r-bit values (1-D or (N, W) words, see `bitops`):
    one `apply_linear_map` whose input bit j maps to column j of G.
    z has the layout of ys: 1-D for 1-D input, else (N, n_words(m))."""
    y = as_words(ys, code.r, "packed code length")
    columns = words_from_ints([sum((row >> j & 1) << i for i, row in enumerate(code.rows))
                               for j in range(code.r)], code.m)
    z = apply_linear_map(linear_map_tables(columns), y)
    return z if np.ndim(ys) == 2 else z[:, 0]


def _min_weight(rows: np.ndarray, stop_at: int = 0) -> int:
    """Minimum weight of a nonzero XOR of the (m, W) word rows.

    The `xor_table` of the low rows (at most 2^16 entries and 2^22 words,
    stored word-major) is scanned once per entry h of the `xor_table` of
    the other rows.  The scan stops once the minimum is at most `stop_at`:
    a code search that needs more than its best distance so far cannot
    keep an attempt that has gone that low.
    """
    m, w = rows.shape
    mlow = min(m, 16, max(0, 22 - (w - 1).bit_length()))
    low = xor_table(rows[:mlow].T[:, :, None])[:, :, 0]  # one table per word
    best = PACKED_WIDTH * w  # no codeword is heavier
    for combo, h in enumerate(xor_table(rows[mlow:])):
        weights = popcount((low ^ h[:, None]).T)[0 if combo else 1:]  # skip the zero message
        if weights.size:
            best = min(best, int(weights.min()))
            if best <= stop_at:
                break
    return best


def min_distance_exact(code: LinearCode) -> int:
    """Exhaustive minimum distance; stores the result into verified_d."""
    if code.m > DISTANCE_M_CAP:
        raise WorkCapExceeded(required=1 << code.m, cap=1 << DISTANCE_M_CAP,
                              what="codeword enumeration")
    code.verified_d = _min_weight(words_from_ints(code.rows, code.r))
    return code.verified_d


@lru_cache(maxsize=None)
def _witness_index(m: int) -> np.ndarray:
    """Every combination of 1..WITNESS_ROWS of m row indices, as rows of
    WITNESS_ROWS entries padded with m, the index of a zero row."""
    idx = np.array([c + (m,) * (WITNESS_ROWS - k) for k in range(1, WITNESS_ROWS + 1)
                    for c in itertools.combinations(range(m), k)], dtype=np.intp)
    idx.flags.writeable = False  # one cached table serves every search
    return idx


def _witness_weights(echelon: np.ndarray) -> np.ndarray:
    """Least weight of an XOR of 1..WITNESS_ROWS rows of each full-rank
    (A, m, W) echelon form: an upper bound on each attempt's distance."""
    a, m, w = echelon.shape
    rows = np.concatenate([echelon, np.zeros((a, 1, w), dtype=np.uint64)], axis=1)
    combos = np.bitwise_xor.reduce(rows[:, _witness_index(m)], axis=2)
    return popcount(combos.reshape(-1, w)).reshape(a, -1).min(axis=1)


def build_good_code(m: int, r: int, target_d: int, seed: int,
                    attempts: int = DEFAULT_ATTEMPTS) -> LinearCode:
    """Seeded random search for a full-rank generator with verified
    distance >= target_d.

    Attempt a draws row i as words i*W .. i*W+W-1 of
    ``prng.words(seed, a, 0, m*W)``, masked to r bits (W = ceil(r/64)).
    One reduced echelon elimination both skips a rank-deficient attempt
    and gives the rows whose XORs of at most
    WITNESS_ROWS are tried first: once a best distance b exists, such a
    codeword of weight <= b proves the attempt no better, and it is
    dropped unscanned (the information-set step of the Brouwer-Zimmermann
    method).  Only the rest get the exhaustive `_min_weight` scan, which
    stops as soon as it goes <= b; a kept code's verified_d is therefore
    always its exact distance.  Draws, echelon forms (`echelon_batch`)
    and witness weights come a block of attempts at a time: one attempt,
    then twice as many per block up to `prng.CHUNK` witness words, so an
    early success does little extra work.  Decisions and scans run attempt
    by attempt, so no result depends on the blocks.  Deterministic per
    seed.  Exhausting the attempt budget raises SearchBudgetExceeded
    carrying the best code found.
    """
    m, r, target_d, attempts = map(integer, (m, r, target_d, attempts))
    if m > BUILD_M_CAP:
        raise WorkCapExceeded(required=m, cap=BUILD_M_CAP, what="code search m")
    if not 1 <= m <= r:
        raise ValidationError("need 1 <= m <= r")
    if not 1 <= target_d <= r - m + 1:
        raise ValidationError(
            f"target_d must be in 1..{r - m + 1} (Singleton bound for [{r},{m}])")
    if attempts < 1:
        raise ValidationError("need at least one attempt")
    w = n_words(r)
    cap = max(1, prng.CHUNK // (_witness_index(m).size * w))
    best: LinearCode | None = None
    first, block = 0, 1
    while first < attempts:
        streams = np.arange(first, min(first + block, attempts), dtype=np.uint64)
        draws = prng.words(seed, streams, 0, m * w).reshape(-1, w)
        rows = bit_field(draws, 0, r).reshape(len(streams), m, w)
        echelon, ranks = echelon_batch(rows)
        witness = _witness_weights(echelon)
        for k in np.flatnonzero(ranks == m):
            b = best.verified_d if best else 0
            if b and witness[k] <= b:
                continue
            d = _min_weight(rows[k], stop_at=b)
            if d <= b:
                continue
            best = LinearCode(r, ints_from_words(rows[k]), verified_d=d,
                              construction={"kind": "random-search", "seed": seed,
                                            "target_d": target_d,
                                            "attempt": first + int(k)})
            if d >= target_d:
                return best
        first, block = first + block, min(2 * block, cap)
    raise SearchBudgetExceeded(
        f"no [{r},{m}] code with distance >= {target_d} in {attempts} attempts",
        best=best, best_distance=best.verified_d if best else 0)


_PRESET_RE = {
    "identity": re.compile(r"^identity-(\d+)$"),
    "repetition": re.compile(r"^repetition-(\d+)$"),
    "simplex": re.compile(r"^simplex-k(\d+)$"),
}


def preset_code(name: str) -> LinearCode:
    """Named fixture codes, distance re-verified at load.

    identity-k      [k, k, 1]
    repetition-r    [r, 1, r]
    hamming-7-4     [7, 4, 3]
    simplex-k<k>    [2^k - 1, k, 2^(k-1)]
    """
    if not isinstance(name, str):
        raise ValidationError(f"preset name must be a string, got {name!r}")
    m = _PRESET_RE["identity"].match(name)
    if m:
        k = int(m.group(1))
        r, rows, expect = k, tuple(1 << i for i in range(k)), 1
    elif _PRESET_RE["repetition"].match(name):
        r = int(_PRESET_RE["repetition"].match(name).group(1))
        rows, expect = ((1 << r) - 1,), r
    elif name == "hamming-7-4":
        # bit j of a row is coordinate j: rows 1000011, 0100101, 0010110, 0001111
        r, rows, expect = 7, (0b1100001, 0b1010010, 0b0110100, 0b1111000), 3
    elif _PRESET_RE["simplex"].match(name):
        k = int(_PRESET_RE["simplex"].match(name).group(1))
        if k < 1:
            raise ValidationError("simplex needs k >= 1")
        r = (1 << k) - 1
        # the columns of G are the 2^k - 1 nonzero k-bit vectors: column c - 1 is c
        rows = tuple(sum((c >> i & 1) << (c - 1) for c in range(1, r + 1)) for i in range(k))
        expect = 1 << (k - 1)
    else:
        raise ValidationError(f"unknown preset code {name!r}")
    code = LinearCode(r, rows, construction={"kind": "preset", "name": name})
    d = min_distance_exact(code)
    if d != expect:
        raise ValidationError(
            f"preset {name} failed distance re-verification: got {d}, expected {expect}")
    return code
