"""Packed GF(2) vectors and matrices, one value at a time.

Bit-order convention used everywhere in this package: coordinate 0 is the
least significant bit of the integer payload.  Hex serialization writes
ceil(len/4) nibbles with the least significant nibble first, i.e. the most
significant hex digit comes last; `BitVector` encodes and parses through
the word codec of `nobfext.bitops`, which the batch paths use too.  vG is
`row_combination`, and G y the batch kernel `codes.compress_batch`.

Values are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
    def zeros(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def from_bits(cls, coords: Iterable[int]) -> "BitVector":
        """Coordinate sequence, index 0 first: from_bits([1,1,0]) has x0=x1=1."""
        value = 0
        n = 0
        for b in coords:
            if b not in (0, 1):
                raise ValidationError(f"coordinate {b!r} is not a bit")
            value |= b << n
            n += 1
        return cls(n, value)

    @classmethod
    def from01(cls, s: str) -> "BitVector":
        """Parse a coordinate string, leftmost character = coordinate 0."""
        return cls.from_bits(int(c) if c in "01" else -1 for c in s.replace(" ", ""))

    @classmethod
    def from_hex(cls, n: int, s: str) -> "BitVector":
        return cls(n, ints_from_words(words_from_hex([s], n))[0])

    def to_hex(self) -> str:
        return hex_from_words(words_from_ints([self.bits], self.n), self.n)[0]

    def to01(self) -> str:
        return "".join(str((self.bits >> i) & 1) for i in range(self.n))

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __iter__(self) -> Iterator[int]:
        return ((self.bits >> i) & 1 for i in range(self.n))

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise DimensionError(f"xor of lengths {self.n} and {other.n}")
        return BitVector(self.n, self.bits ^ other.bits)

    def __and__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise DimensionError(f"and of lengths {self.n} and {other.n}")
        return BitVector(self.n, self.bits & other.bits)

    def weight(self) -> int:
        return self.bits.bit_count()

    def dot(self, other: "BitVector") -> int:
        """GF(2) inner product."""
        if self.n != other.n:
            raise DimensionError(f"dot of lengths {self.n} and {other.n}")
        return (self.bits & other.bits).bit_count() & 1

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

    @classmethod
    def from01(cls, rows: Sequence[str]) -> "BitMatrix":
        return cls.from_rows([BitVector.from01(s) for s in rows])

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.rows[i])

    def transpose(self) -> "BitMatrix":
        cols = [0] * self.cols
        for i, r in enumerate(self.rows):
            while r:
                j = (r & -r).bit_length() - 1
                cols[j] |= 1 << i
                r &= r - 1
        return BitMatrix(self.nrows, tuple(cols))

    def to_hex_rows(self) -> list[str]:
        return [self.row(i).to_hex() for i in range(self.nrows)]

    @classmethod
    def from_hex_rows(cls, cols: int, hex_rows: Sequence[str]) -> "BitMatrix":
        return cls.from_rows([BitVector.from_hex(cols, s) for s in hex_rows])

    def __repr__(self) -> str:
        return f"BitMatrix({self.nrows}x{self.cols})"


def row_combination(g: BitMatrix, s: Iterable[int]) -> BitVector:
    """GF(2) sum of the rows indexed by s (0-based); s must be nonempty.

    The result is a codeword of the code generated by g.
    """
    idx = sorted(set(s))
    if not idx:
        raise ValidationError("row combination over an empty index set")
    if idx[0] < 0 or idx[-1] >= g.nrows:
        raise ValidationError(f"row index out of range 0..{g.nrows - 1}: {idx}")
    acc = 0
    for i in idx:
        acc ^= g.rows[i]
    return BitVector(g.cols, acc)


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
