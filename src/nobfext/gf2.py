"""Packed GF(2) vectors and matrices, one value at a time.

Bit-order convention used everywhere in this package: coordinate 0 is the
least significant bit of the integer payload.  Hex serialization writes
ceil(len/4) nibbles with the least significant nibble first, i.e. the most
significant hex digit comes last; `BitVector` encodes and parses through
the word codec of `nobfext.bitops`, which the batch paths use too.  G y
is the batch kernel `codes.compress_batch`.

Values are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


def gf2_echelon(rows: Iterable[int]) -> list[int]:
    """Reduced row echelon form of packed rows over GF(2), zero rows dropped.

    Each returned row's lowest set bit is its pivot, and no other returned
    row has that bit; the row count is the rank.
    """
    basis: list[int] = []
    pivots: list[int] = []
    for row in rows:
        for b, p in zip(basis, pivots):
            if row & p:
                row ^= b
        if row:
            pivot = row & -row
            for i, b in enumerate(basis):
                if b & pivot:
                    basis[i] = b ^ row
            basis.append(row)
            pivots.append(pivot)
    return basis


def gf2_rank(g: BitMatrix) -> int:
    """Rank over GF(2): the row count of the reduced echelon form."""
    return len(gf2_echelon(g.rows))
