"""GF(2) rows as the codes keep them: the hex codec of `nobfext.bitops`,
the echelon kernel, and the row checks and matrix-vector product of
`LinearCode`."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import matvec

from nobfext.bitops import hex_from_words, ints_from_words, words_from_hex, words_from_ints
from nobfext.codes import LinearCode, compress_batch, echelon_batch
from nobfext.errors import DimensionError, ValidationError


def test_hex_round_trip_bit_order():
    # Least-significant nibble first: 110100 packs to 0x0b, rendered "b0".
    assert hex_from_words(words_from_ints([0b001011], 6), 6) == ["b0"]
    assert ints_from_words(words_from_hex(["b0"], 6)) == [0b001011]
    for n in [1, 3, 4, 7, 8, 13, 64, 65, 130]:
        rng = random.Random(n)
        values = [rng.getrandbits(n) for _ in range(20)]
        hexes = hex_from_words(words_from_ints(values, n), n)
        assert ints_from_words(words_from_hex(hexes, n)) == values


def test_from_hex_rejects_non_hex_characters():
    # each of these would parse as a Python integer literal in base 16
    for s in ["1_2", "21 ", "+12", "fx0", "-1f"]:
        with pytest.raises(ValidationError):
            words_from_hex([s], 12)


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
    code = LinearCode(3, [0b011, 0b110])
    assert (code.m, code.r, code.rows) == (2, 3, (0b011, 0b110))
    assert LinearCode(3, (1, 2, 4)).m == 3
    with pytest.raises(ValidationError):
        LinearCode(3, ())  # no rows: m = 0
    for r, rows in [(3, (0b001, 2.5)), (2.5, (0b01,))]:
        with pytest.raises(ValidationError):
            LinearCode(r, rows)


def test_bitvector_rejects_stray_bits():
    # a row is an r-bit vector: bits beyond r, within the word or not, are refused
    for stray in [0b1000, 1 << 64, -1]:
        with pytest.raises(DimensionError):
            LinearCode(3, (0b001, stray))


def _matvec(r: int, rows, y: int) -> int:
    """G y through the compression kernel (a code needs full row rank)."""
    return int(compress_batch(LinearCode(r, rows), np.array([y], dtype=np.uint64))[0])


def test_matvec_examples():
    assert _matvec(3, (1, 2, 4), 0b101) == 0b101
    rows = (0b011, 0b110)  # rows 110 and 011, coordinate 0 first
    assert _matvec(3, rows, 0b111) == 0b00
    assert _matvec(3, rows, 0b001) == 0b01


def test_matvec_linearity_random():
    # widths up to 200 columns span one to four words
    rng = random.Random(7)
    for _ in range(50):
        cols = rng.randrange(1, 200)
        nrows = rng.randrange(1, min(cols, 12) + 1)
        rows = [rng.getrandbits(cols) for _ in range(nrows)]
        if len(oracles.gf2_echelon(rows)) != nrows:
            continue
        code = LinearCode(cols, rows)
        x, y = rng.getrandbits(cols), rng.getrandbits(cols)
        z = ints_from_words(compress_batch(code, words_from_ints([x ^ y, x, y], cols)))
        assert z[0] == z[1] ^ z[2]
        assert z[1] == matvec(code, x)


def _full_rank(r: int, rows) -> bool:
    """Whether LinearCode takes rows as a generator matrix."""
    try:
        LinearCode(r, rows)
    except ValidationError as exc:
        assert "full row rank" in str(exc)
        return False
    return True


def test_rank():
    assert _full_rank(4, (1, 2, 4, 8))
    assert not _full_rank(2, (0b11, 0b11))
    assert not _full_rank(3, (0, 0, 0))
    # rank is invariant under row swaps and row additions
    rng = random.Random(11)
    for _ in range(30):
        cols = rng.randrange(1, 10)
        nrows = rng.randrange(1, 10)
        rows = [rng.getrandbits(cols) for _ in range(nrows)]
        i, j = rng.randrange(nrows), rng.randrange(nrows)
        mixed = list(rows)
        if i != j:
            mixed[i] ^= mixed[j]
        full = _full_rank(cols, rows)
        assert full == (len(oracles.gf2_echelon(rows)) == nrows)
        assert _full_rank(cols, mixed) == full
        assert _full_rank(cols, rows[::-1]) == full


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
            assert rank == len(want)
        assert np.array_equal(stack, np.array([words_from_ints(rows, cols) for rows in mats],
                                              dtype=np.uint64))  # input untouched


def test_gf2_rank_is_the_one_matrix_view():
    # echelon_batch gives the rank of a row list, and LinearCode refuses
    # rows of lower rank than their count: no rows, rows of five words,
    # repeated rows
    def rank(cols, rows):
        stack = np.array([words_from_ints(rows, cols)], dtype=np.uint64)
        return int(echelon_batch(stack)[1][0])

    assert rank(5, []) == 0
    wide = (1 << 299, (1 << 299) | 1, 1)
    assert rank(300, wide) == 2
    assert not _full_rank(300, wide) and _full_rank(300, wide[:2])
    assert rank(2, (1, 2, 3, 1, 2)) == 2
    assert not _full_rank(2, (1, 2, 3, 1, 2))


def test_hex_rows_round_trip():
    code = LinearCode(7, (0b0110011, 0b1001100, 0b1010101))
    doc = code.to_json()
    assert doc["rows"] == ["33", "c4", "55"]
    assert LinearCode.from_json(doc).rows == code.rows
