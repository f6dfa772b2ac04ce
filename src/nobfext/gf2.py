"""Packed GF(2) vectors and matrices, and the reduced echelon kernel.

Bit-order convention used everywhere in this package: coordinate 0 is the
least significant bit of the integer payload.  Hex serialization writes
ceil(len/4) nibbles with the least significant nibble first, i.e. the most
significant hex digit comes last; `BitVector` encodes and parses through
the word codec of `nobfext.bitops`, which the batch paths use too.  G y
is the batch kernel `codes.compress_batch`.  `echelon_batch` reduces a
stack of matrices in that word layout at once, for the code search;
`gf2_rank` is its one-matrix view.

Values are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitops import hex_from_words, ints_from_words, words_from_hex, words_from_ints
from .errors import DimensionError, ValidationError


@dataclass(frozen=True)
class BitVector:
    """A length-n vector over GF(2), packed into one int."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError(f"negative length {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValidationError(
                f"payload 0x{self.bits:x} has bits set beyond length {self.n}"
            )

    @classmethod
    def from_hex(cls, n: int, s: str) -> "BitVector":
        return cls(n, ints_from_words(words_from_hex([s], n))[0])

    def to_hex(self) -> str:
        return hex_from_words(words_from_ints([self.bits], self.n), self.n)[0]

    def __repr__(self) -> str:
        return f"BitVector({self.n}, 0b{format(self.bits, f'0{max(self.n, 1)}b')})"


@dataclass(frozen=True)
class BitMatrix:
    """A rows x cols matrix over GF(2); each row packed as in BitVector."""

    cols: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.cols < 0:
            raise ValidationError(f"negative column count {self.cols}")
        for i, r in enumerate(self.rows):
            if r < 0 or r >> self.cols:
                raise ValidationError(f"row {i} has bits set beyond {self.cols} columns")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, k: int) -> "BitMatrix":
        return cls(k, tuple(1 << i for i in range(k)))

    @classmethod
    def from_rows(cls, rows: Sequence[BitVector]) -> "BitMatrix":
        if not rows:
            raise ValidationError("a matrix needs at least one row")
        cols = rows[0].n
        for r in rows:
            if r.n != cols:
                raise DimensionError("rows of differing lengths")
        return cls(cols, tuple(r.bits for r in rows))

    def transpose(self) -> "BitMatrix":
        cols = [0] * self.cols
        for i, r in enumerate(self.rows):
            while r:
                j = (r & -r).bit_length() - 1
                cols[j] |= 1 << i
                r &= r - 1
        return BitMatrix(self.nrows, tuple(cols))

    def to_hex_rows(self) -> list[str]:
        return [BitVector(self.cols, r).to_hex() for r in self.rows]

    @classmethod
    def from_hex_rows(cls, cols: int, hex_rows: Sequence[str]) -> "BitMatrix":
        return cls.from_rows([BitVector.from_hex(cols, s) for s in hex_rows])

    def __repr__(self) -> str:
        return f"BitMatrix({self.nrows}x{self.cols})"


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


def gf2_rank(g: BitMatrix) -> int:
    """Rank over GF(2): `echelon_batch` of the one matrix g."""
    return int(echelon_batch(words_from_ints(g.rows, g.cols)[None])[1][0])
