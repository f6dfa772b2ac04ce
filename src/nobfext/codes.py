"""Binary linear [r, m, d] codes with verified minimum distance.

The extractor compresses an r-bit vector y to Gy by `compress_batch`, the
`bitops` linear map of G's columns, for any r and m; the codewords vG are
the XORs of G's rows.  Distance is established only by exhaustive
enumeration of `bitops.xor_table`s, also for the distance a loaded
document claims; `verified_d = 0` means unverified and such codes are
rejected downstream.  The code search keeps only exhaustively verified
codes; it rejects most attempts before any scan, by a codeword of weight
at most the best distance so far among a few XORs of the attempt's echelon
rows, which is a proof that the attempt's distance is no better.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import prng
from .bitops import (PACKED_WIDTH, apply_linear_map, as_words, bit_field,
                     ints_from_words, linear_map_tables, n_words, popcount,
                     words_from_ints, xor_table)
from .errors import (DimensionError, SearchBudgetExceeded, ValidationError,
                     WorkCapExceeded, parse_errors)
from .gf2 import BitMatrix, echelon_batch, gf2_rank
from .schemas import integer

DISTANCE_M_CAP = 24
BUILD_M_CAP = 20
DEFAULT_ATTEMPTS = 4096
WITNESS_ROWS = 3  # echelon rows XORed, at most, into a search attempt's witnesses


@dataclass
class LinearCode:
    m: int
    r: int
    g: BitMatrix
    verified_d: int = 0
    construction: dict = field(default_factory=lambda: {"kind": "explicit"})

    def __post_init__(self):
        if self.m < 1 or self.r < 1:
            raise ValidationError("need m >= 1 and r >= 1")
        if self.g.nrows != self.m or self.g.cols != self.r:
            raise DimensionError("generator matrix shape does not match (m, r)")
        if gf2_rank(self.g) != self.m:
            raise ValidationError("generator matrix must have full row rank")
        if not 0 <= self.verified_d <= self.r:
            raise ValidationError("verified_d outside 0..r")

    def to_json(self) -> dict:
        return {
            "format": "linear-code",
            "version": 1,
            "m": self.m,
            "r": self.r,
            "rows": self.g.to_hex_rows(),
            "verified_d": self.verified_d,
            "construction": dict(self.construction),
        }

    @classmethod
    @parse_errors("linear code")
    def from_json(cls, obj: dict) -> "LinearCode":
        if obj.get("format") != "linear-code":
            raise ValidationError("not a linear-code object")
        g = BitMatrix.from_hex_rows(int(obj["r"]), obj["rows"])
        code = cls(m=int(obj["m"]), r=int(obj["r"]), g=g,
                   construction=dict(obj.get("construction", {"kind": "explicit"})))
        # a claimed distance is re-derived, never trusted; 0 claims none
        claimed = int(obj.get("verified_d", 0))
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
    columns = words_from_ints(code.g.transpose().rows, code.m)
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
    code.verified_d = _min_weight(words_from_ints(code.g.rows, code.r))
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
    always its exact distance.  Draws, echelon forms (`gf2.echelon_batch`)
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
            g = BitMatrix(cols=r, rows=tuple(ints_from_words(rows[k])))
            best = LinearCode(m=m, r=r, g=g, verified_d=d,
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
        code = LinearCode(m=k, r=k, g=BitMatrix.identity(k),
                          construction={"kind": "preset", "name": name})
        expect = 1
    elif _PRESET_RE["repetition"].match(name):
        r = int(_PRESET_RE["repetition"].match(name).group(1))
        code = LinearCode(m=1, r=r, g=BitMatrix(cols=r, rows=((1 << r) - 1,)),
                          construction={"kind": "preset", "name": name})
        expect = r
    elif name == "hamming-7-4":
        # bit j of a row is coordinate j: rows 1000011, 0100101, 0010110, 0001111
        g = BitMatrix(cols=7, rows=(0b1100001, 0b1010010, 0b0110100, 0b1111000))
        code = LinearCode(m=4, r=7, g=g,
                          construction={"kind": "preset", "name": name})
        expect = 3
    elif _PRESET_RE["simplex"].match(name):
        k = int(_PRESET_RE["simplex"].match(name).group(1))
        if k < 1:
            raise ValidationError("simplex needs k >= 1")
        r = (1 << k) - 1
        # the columns of G are the 2^k - 1 nonzero k-bit vectors
        g = BitMatrix(cols=k, rows=tuple(range(1, r + 1))).transpose()
        code = LinearCode(m=k, r=r, g=g,
                          construction={"kind": "preset", "name": name})
        expect = 1 << (k - 1)
    else:
        raise ValidationError(f"unknown preset code {name!r}")
    d = min_distance_exact(code)
    if d != expect:
        raise ValidationError(
            f"preset {name} failed distance re-verification: got {d}, expected {expect}")
    return code
