"""Packed GF(2) vectors and matrices."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import matvec

from nobfext.bitops import hex_from_words, ints_from_words, words_from_hex, words_from_ints
from nobfext.codes import LinearCode, compress_batch
from nobfext.errors import DimensionError, ValidationError
from nobfext.gf2 import BitMatrix, BitVector, echelon_batch, gf2_rank


def test_bitvector_basic_construction():
    v = BitVector(6, 0b001011)
    assert (v.n, v.bits) == (6, 0b001011)
    assert repr(v) == "BitVector(6, 0b001011)"
    with pytest.raises(ValidationError):
        BitVector(-1, 0)


def test_bitvector_rejects_stray_bits():
    with pytest.raises(ValidationError):
        BitVector(3, 0b1000)


def test_hex_round_trip_bit_order():
    # Least-significant nibble first: 110100 packs to 0x0b, rendered "b0".
    v = BitVector(6, 0b001011)
    assert v.to_hex() == "b0"
    assert BitVector.from_hex(6, "b0") == v
    for n in [1, 3, 4, 7, 8, 13, 64, 65, 130]:
        rng = random.Random(n)
        for _ in range(20):
            bits = rng.getrandbits(n)
            u = BitVector(n, bits)
            assert BitVector.from_hex(n, u.to_hex()) == u


def test_from_hex_rejects_non_hex_characters():
    # each of these would parse as a Python integer literal in base 16
    for s in ["1_2", "21 ", "+12", "fx0", "-1f"]:
        with pytest.raises(ValidationError):
            BitVector.from_hex(12, s)


# characters a hex string must not hold, including ones int(s, 16) takes
# and a non-ASCII digit (str.isdigit and int() accept it)
_NOT_HEX = "+_x -\u0663\u00e9\x00g"


@st.composite
def _hex_batches(draw):
    """A width and a list of hex strings for it, mostly well formed, with
    up to three strings of the wrong length, with a non-hex character or
    with bits beyond the width put in anywhere."""
    width = draw(st.integers(1, 130))
    digits = -(-width // 4)

    def hex_of(value):
        return format(value, f"0{digits}x")[::-1]

    good = st.integers(0, (1 << width) - 1).map(hex_of)
    strings = draw(st.lists(st.one_of(good, good.map(str.upper)), max_size=6))
    bad = st.one_of(
        st.integers(0, (1 << 4 * digits) - 1).map(hex_of),  # may spill past width
        st.text("0123456789abcdefABCDEF" + _NOT_HEX,
                min_size=max(0, digits - 1), max_size=digits + 1),
        st.tuples(good, st.integers(0, digits - 1), st.sampled_from(_NOT_HEX)).map(
            lambda t: t[0][:t[1]] + t[2] + t[0][t[1] + 1:]))
    for _ in range(draw(st.integers(0, 3))):
        strings.insert(draw(st.integers(0, len(strings))), draw(bad))
    return width, strings


def _words_or_error(codec, strings, width):
    try:
        words = codec(strings, width)
    except ValidationError as exc:
        return str(exc)
    return words.dtype, words.shape, words.tolist()


@settings(max_examples=400, deadline=None)
@given(_hex_batches())
@example((4, ["\u0663"]))                # one non-ASCII digit of the right length
@example((5, ["1f", "x", "g0"]))          # bits beyond the width come first
@example((5, ["10", "x", "g0"]))          # then the wrong length
@example((130, []))
@example((64, ["f" * 16, "F" * 16]))
def test_hex_codec_matches_per_string_oracle(batch):
    width, strings = batch
    got = _words_or_error(words_from_hex, strings, width)
    assert got == _words_or_error(oracles.words_from_hex, strings, width)
    if not isinstance(got, str):  # parsed: the codec's other half gives the strings back
        assert hex_from_words(words_from_hex(strings, width), width) == [
            s.lower() for s in strings]


def test_matrix_construction_and_shape_checks():
    g = BitMatrix.from_rows([BitVector(3, 0b011), BitVector(3, 0b110)])
    assert g.nrows == 2 and g.cols == 3
    assert g.rows == (0b011, 0b110)
    with pytest.raises(DimensionError):
        BitMatrix.from_rows([BitVector(3, 0), BitVector(2, 0)])
    with pytest.raises(ValidationError):
        BitMatrix.from_rows([])
    with pytest.raises(ValidationError):
        BitMatrix(cols=2, rows=(0b100,))
    assert BitMatrix.identity(3).rows == (1, 2, 4)


def _matvec(g: BitMatrix, y: int) -> int:
    """G y through the compression kernel (a code needs full row rank)."""
    code = LinearCode(m=g.nrows, r=g.cols, g=g)
    return int(compress_batch(code, np.array([y], dtype=np.uint64))[0])


def test_matvec_examples():
    assert _matvec(BitMatrix.identity(3), 0b101) == 0b101
    g = BitMatrix(cols=3, rows=(0b011, 0b110))  # rows 110 and 011, coordinate 0 first
    assert _matvec(g, 0b111) == 0b00
    assert _matvec(g, 0b001) == 0b01


def test_matvec_linearity_random():
    # widths up to 200 columns span one to four words
    rng = random.Random(7)
    for _ in range(50):
        cols = rng.randrange(1, 200)
        nrows = rng.randrange(1, min(cols, 12) + 1)
        g = BitMatrix(cols=cols,
                      rows=tuple(rng.getrandbits(cols) for _ in range(nrows)))
        if gf2_rank(g) != nrows:
            continue
        code = LinearCode(m=nrows, r=cols, g=g)
        x, y = rng.getrandbits(cols), rng.getrandbits(cols)
        z = ints_from_words(compress_batch(code, words_from_ints([x ^ y, x, y], cols)))
        assert z[0] == z[1] ^ z[2]
        assert z[1] == matvec(g, x)


def test_transpose_involution():
    rng = random.Random(3)
    for _ in range(30):
        cols = rng.randrange(1, 16)
        nrows = rng.randrange(1, 16)
        g = BitMatrix(cols=cols,
                      rows=tuple(rng.getrandbits(cols) for _ in range(nrows)))
        assert g.transpose().transpose() == g
        t = g.transpose()
        for i in range(nrows):
            for j in range(cols):
                assert g.rows[i] >> j & 1 == t.rows[j] >> i & 1


def test_rank():
    assert gf2_rank(BitMatrix.identity(4)) == 4
    assert gf2_rank(BitMatrix(2, (0b11, 0b11))) == 1
    assert gf2_rank(BitMatrix(3, (0, 0, 0))) == 0
    # rank is invariant under row swaps and row additions
    rng = random.Random(11)
    for _ in range(30):
        cols = rng.randrange(1, 10)
        nrows = rng.randrange(1, 10)
        rows = [rng.getrandbits(cols) for _ in range(nrows)]
        g = BitMatrix(cols=cols, rows=tuple(rows))
        i, j = rng.randrange(nrows), rng.randrange(nrows)
        mixed = list(rows)
        if i != j:
            mixed[i] ^= mixed[j]
        assert gf2_rank(BitMatrix(cols=cols, rows=tuple(mixed))) == gf2_rank(g)


def _random_rows(rng, nrows, cols):
    """nrows random rows of cols bits, some zero, repeated or sums of two
    earlier rows, some of them sparse."""
    rows = []
    for i in range(nrows):
        kind = rng.randrange(6)
        if kind == 0:
            rows.append(0)
        elif kind == 1 and i:
            rows.append(rows[rng.randrange(i)])
        elif kind == 2 and i > 1:
            rows.append(rows[rng.randrange(i)] ^ rows[rng.randrange(i)])
        elif kind == 3:
            rows.append(1 << rng.randrange(cols))
        else:
            rows.append(rng.getrandbits(cols))
    return rows


@pytest.mark.parametrize("count", [1, 2, 9])
def test_echelon_batch_equals_oracle_echelon(count):
    # a stack of matrices, reduced at once, gives each one's echelon form
    # in the order the row-by-row oracle builds it, and its rank; rows
    # beyond the column count, zero rows, and one to four words per row
    rng = random.Random(29 + count)
    for _ in range(60):
        cols = rng.choice([1, 3, 8, 63, 64, 65, 130, 200, 256])
        nrows = rng.randrange(0, 24)
        mats = [_random_rows(rng, nrows, cols) for _ in range(count)]
        stack = np.array([words_from_ints(rows, cols) for rows in mats], dtype=np.uint64)
        echelon, ranks = echelon_batch(stack)
        assert echelon.shape == stack.shape and ranks.shape == (count,)
        for rows, got, rank in zip(mats, echelon, ranks):
            want = oracles.gf2_echelon(rows)
            assert [v for v in ints_from_words(got) if v] == want
            assert rank == len(want) == gf2_rank(BitMatrix(cols=cols, rows=tuple(rows)))
        assert np.array_equal(stack, np.array([words_from_ints(rows, cols) for rows in mats],
                                              dtype=np.uint64))  # input untouched


def test_gf2_rank_is_the_one_matrix_view():
    assert gf2_rank(BitMatrix(5, ())) == 0
    wide = BitMatrix(cols=300, rows=(1 << 299, (1 << 299) | 1, 1))
    assert gf2_rank(wide) == 2
    assert gf2_rank(BitMatrix(cols=2, rows=(1, 2, 3, 1, 2))) == 2


def test_hex_rows_round_trip():
    g = BitMatrix(7, (0b0110011, 0b1001100, 0b1111111))
    assert BitMatrix.from_hex_rows(7, g.to_hex_rows()) == g
