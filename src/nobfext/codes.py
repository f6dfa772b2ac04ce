"""Binary linear [r, m, d] codes with verified minimum distance.

The extractor uses a generator matrix both ways: a message v encodes to
the codeword vG, and an r-bit vector y compresses to Gy.  Distance is
established only by exhaustive enumeration; `verified_d = 0` means
unverified and such codes are rejected downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import prng
from .bitops import PACKED_WIDTH
from .errors import (DimensionError, SearchBudgetExceeded, ValidationError,
                     WorkCapExceeded, parse_errors)
from .gf2 import BitMatrix, BitVector, gf2_matvec, gf2_rank, row_combination

DISTANCE_M_CAP = 24
BUILD_M_CAP = 20
DEFAULT_ATTEMPTS = 4096


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

    def row_ints(self) -> list[int]:
        return list(self.g.rows)

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
        return cls(m=int(obj["m"]), r=int(obj["r"]), g=g,
                   verified_d=int(obj.get("verified_d", 0)),
                   construction=dict(obj.get("construction", {"kind": "explicit"})))

    def __repr__(self) -> str:
        return f"LinearCode[{self.r},{self.m},{self.verified_d or '?'}]"


def encode_message(code: LinearCode, v: BitVector) -> BitVector:
    """vG: XOR of the generator rows selected by the message bits."""
    if len(v) != code.m:
        raise DimensionError(f"message has {len(v)} bits, m = {code.m}")
    acc = 0
    for i in range(code.m):
        if v[i]:
            acc ^= code.g.rows[i]
    return BitVector(code.r, acc)


def compress(code: LinearCode, y: BitVector) -> BitVector:
    """Gy: one output bit per generator row."""
    if len(y) != code.r:
        raise DimensionError(f"input has {len(y)} bits, r = {code.r}")
    return gf2_matvec(code.g, y)


def _min_weight_u64(rows: list[int], m: int) -> int:
    """Minimum nonzero-codeword weight for r <= PACKED_WIDTH, via a subset-XOR table
    on the low rows and a scan over high-row combinations."""
    mlow = min(m, 16)
    low = np.zeros(1 << mlow, dtype=np.uint64)
    for j in range(mlow):
        low[1 << j:2 << j] = low[:1 << j] ^ np.uint64(rows[j])
    high = [0]
    for j in range(mlow, m):
        high += [h ^ rows[j] for h in high]
    best = None
    for hi_idx, h in enumerate(high):
        w = np.bitwise_count(low ^ np.uint64(h))
        if hi_idx == 0:
            w = w[1:]  # skip the zero message
        cand = int(w.min())
        if best is None or cand < best:
            best = cand
    return best


def min_distance_exact(code: LinearCode) -> int:
    """Exhaustive minimum distance; stores the result into verified_d."""
    if code.m > DISTANCE_M_CAP:
        raise WorkCapExceeded(required=1 << code.m, cap=1 << DISTANCE_M_CAP,
                              what="codeword enumeration")
    rows = code.row_ints()
    if code.r <= PACKED_WIDTH:
        d = _min_weight_u64(rows, code.m)
    else:
        # Gray-code walk; one row XOR per step.
        cw = 0
        d = None
        for i in range(1, 1 << code.m):
            cw ^= rows[(i & -i).bit_length() - 1]
            w = cw.bit_count()
            if d is None or w < d:
                d = w
    code.verified_d = int(d)
    return code.verified_d


def check_row_combinations(code: LinearCode) -> bool:
    """Every nonempty row combination has weight in [verified_d, r]."""
    if code.verified_d < 1:
        raise ValidationError("distance not verified")
    for s in range(1, 1 << code.m):
        members = [i for i in range(code.m) if (s >> i) & 1]
        w = row_combination(code.g, members).weight()
        if not code.verified_d <= w <= code.r:
            return False
    return True


def build_good_code(m: int, r: int, target_d: int, seed: int,
                    attempts: int = DEFAULT_ATTEMPTS) -> LinearCode:
    """Seeded random search for a full-rank generator with verified
    distance >= target_d.

    Deterministic per seed.  Exhausting the attempt budget raises
    SearchBudgetExceeded carrying the best code found.
    """
    if m > BUILD_M_CAP:
        raise WorkCapExceeded(required=m, cap=BUILD_M_CAP, what="code search m")
    if not 1 <= m <= r:
        raise ValidationError("need 1 <= m <= r")
    if not 1 <= target_d <= r - m + 1:
        raise ValidationError(
            f"target_d must be in 1..{r - m + 1} (Singleton bound for [{r},{m}])")
    if attempts < 1:
        raise ValidationError("need at least one attempt")
    best: LinearCode | None = None
    for attempt in range(attempts):
        rows = [prng.bits(seed, attempt, i, r) for i in range(m)]
        g = BitMatrix(cols=r, rows=tuple(rows))
        if gf2_rank(g) != m:
            continue
        code = LinearCode(m=m, r=r, g=g,
                          construction={"kind": "random-search", "seed": seed,
                                        "target_d": target_d, "attempt": attempt})
        d = min_distance_exact(code)
        if d >= target_d:
            return code
        if best is None or d > best.verified_d:
            best = code
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
        g = BitMatrix.from01([
            "1000011",
            "0100101",
            "0010110",
            "0001111",
        ])
        code = LinearCode(m=4, r=7, g=g,
                          construction={"kind": "preset", "name": name})
        expect = 3
    elif _PRESET_RE["simplex"].match(name):
        k = int(_PRESET_RE["simplex"].match(name).group(1))
        if k < 1:
            raise ValidationError("simplex needs k >= 1")
        r = (1 << k) - 1
        rows = []
        for i in range(k):
            bits = 0
            for j in range(r):
                if ((j + 1) >> i) & 1:
                    bits |= 1 << j
            rows.append(bits)
        code = LinearCode(m=k, r=r, g=BitMatrix(cols=r, rows=tuple(rows)),
                          construction={"kind": "preset", "name": name})
        expect = 1 << (k - 1)
    else:
        raise ValidationError(f"unknown preset code {name!r}")
    d = min_distance_exact(code)
    if d != expect:
        raise ValidationError(
            f"preset {name} failed distance re-verification: got {d}, expected {expect}")
    return code
