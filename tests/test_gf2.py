"""Packed GF(2) vectors and matrices."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import matvec

from nobfext.bitops import hex_from_words, words_from_hex
from nobfext.codes import LinearCode, compress
from nobfext.errors import DimensionError, ValidationError
from nobfext.gf2 import BitMatrix, BitVector, gf2_rank, row_combination


def test_bitvector_basic_construction():
    v = BitVector.from01("110100")
    assert len(v) == 6
    assert v.bits == 0b001011
    assert v.to01() == "110100"
    assert [v[i] for i in range(6)] == [1, 1, 0, 1, 0, 0]
    assert list(v) == [1, 1, 0, 1, 0, 0]


def test_bitvector_rejects_stray_bits():
    with pytest.raises(ValidationError):
        BitVector(3, 0b1000)


def test_bitvector_zeros_ones_from_bits():
    assert BitVector.zeros(5).bits == 0
    assert BitVector.from_bits([1, 0, 1, 0, 1]).bits == 0b10101


def test_hex_round_trip_bit_order():
    # Least-significant nibble first: 110100 packs to 0x0b, rendered "b0".
    v = BitVector.from01("110100")
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


def test_xor_and_dimension_checks():
    a = BitVector.from01("1100")
    b = BitVector.from01("1010")
    assert (a ^ b).to01() == "0110"
    assert (a & b).to01() == "1000"
    with pytest.raises(DimensionError):
        _ = a ^ BitVector.from01("110")
    with pytest.raises(DimensionError):
        _ = a & BitVector.from01("11010")


def test_weight_dot_slice():
    v = BitVector.from01("1101001")
    assert v.weight() == 4
    assert v.dot(BitVector.from01("1000001")) == 0  # bits 0 and 6: 1+1
    assert v.dot(BitVector.from01("1000000")) == 1


def test_matrix_construction_and_shape_checks():
    g = BitMatrix.from01(["110", "011"])
    assert g.nrows == 2 and g.cols == 3
    assert g.row(0).to01() == "110"
    with pytest.raises(ValidationError):
        BitMatrix(cols=2, rows=(0b100,))
    assert BitMatrix.identity(3).rows == (1, 2, 4)


def _matvec(g: BitMatrix, y: BitVector) -> BitVector:
    """G y through the compression kernel (a code needs full row rank)."""
    return compress(LinearCode(m=g.nrows, r=g.cols, g=g), y)


def test_matvec_examples():
    assert _matvec(BitMatrix.identity(3), BitVector.from01("101")).to01() == "101"
    g = BitMatrix.from01(["110", "011"])
    assert _matvec(g, BitVector.from01("111")).to01() == "00"
    assert _matvec(g, BitVector.from01("100")).to01() == "10"
    with pytest.raises(DimensionError):
        _matvec(g, BitVector.from01("1111"))


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
        x = BitVector(cols, rng.getrandbits(cols))
        y = BitVector(cols, rng.getrandbits(cols))
        assert _matvec(g, x ^ y) == _matvec(g, x) ^ _matvec(g, y)
        assert _matvec(g, x).bits == matvec(g, x.bits)


def test_row_combination_dedupe_and_errors():
    g = BitMatrix.from01(["110", "011"])
    assert row_combination(g, [0, 1]).to01() == "101"
    assert row_combination(g, [0, 0, 1]).to01() == "101"  # set semantics
    assert row_combination(g, [1]).to01() == "011"
    with pytest.raises(ValidationError):
        row_combination(g, [])
    with pytest.raises(ValidationError):
        row_combination(g, [2])


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
                assert g.row(i)[j] == t.row(j)[i]


def test_rank():
    assert gf2_rank(BitMatrix.identity(4)) == 4
    assert gf2_rank(BitMatrix.from01(["11", "11"])) == 1
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


def test_hex_rows_round_trip():
    g = BitMatrix.from01(["1100110", "0011001", "1111111"])
    assert BitMatrix.from_hex_rows(7, g.to_hex_rows()) == g
