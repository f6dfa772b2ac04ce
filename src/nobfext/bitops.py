"""Word-level bit kernels shared by the generators, block functions, codes
and enumeration kernels.

All outcome integers follow the package convention: coordinate i of a
source is bit i (LSB-first) of the packed int.  A batch of packed values
of one width is a uint64 array of shape (N, W), W = `n_words(width)`, with
word 0 least significant; a 1-D (N,) array is the W = 1 layout, so it
holds at most PACKED_WIDTH bits per value.  `as_words` turns either form
into (N, W) words and, like `check_packed`, raises WorkCapExceeded for a
1-D array of wider values instead of dropping the high bits.  The word
count always comes from the value width.  `shift_right` and `bit_field`
move bits across word boundaries and `popcount` sums the per-word counts,
so the extractor's steps run on any width.  Hex strings carry ceil(width/4)
digits (at least one), least significant nibble first.  The package's one
codec for them works on (N, digits) byte matrices: `hex_chars` writes one,
`words_from_hex` reads one through a 256-entry table of nibble values, and
`hex_from_words` is the string view of `hex_chars`.

Scatter and gather move bits in runs: consecutive indices j whose
positions p advance with them (p - j constant) move with one
shift-and-mask, so a position list of r runs costs r array passes
whatever its length (Hacker's Delight, section 7).  Every GF(2)-linear
map in the package, of any input and output width, is evaluated by the
method of Four Russians (Arlazarov, Dinic, Kronrod and Faradzev 1970):
`xor_table` builds the XORs of each group of 8 input columns, and
`apply_linear_map` does one 256-entry table lookup per input byte.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionError, ValidationError, WorkCapExceeded

PACKED_WIDTH = 64  # bits in one packed uint64 value

_NIBBLE_CHARS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
# the value of each hex character byte, 16 for every other byte
_NIBBLE_VALUES = np.frombuffer(bytes(
    int(c, 16) if c in "0123456789abcdefABCDEF" else 16 for c in map(chr, range(256))),
    dtype=np.uint8)


def check_packed(width: int, what: str) -> None:
    """Reject a `width`-bit packed value that does not fit one uint64."""
    if width > PACKED_WIDTH:
        raise WorkCapExceeded(what, width, PACKED_WIDTH)


def n_words(width: int) -> int:
    """Words per packed value of `width` bits (at least one)."""
    return max(1, -(-width // PACKED_WIDTH))


def _top_mask(width: int) -> np.uint64:
    """Mask of the bits of the last word that a `width`-bit value uses."""
    return np.uint64((1 << ((width - 1) % PACKED_WIDTH + 1)) - 1 if width else 0)


def as_words(values, width: int, what: str) -> np.ndarray:
    """Packed `width`-bit values as (N, W) words: a 1-D array is the W = 1
    layout (WorkCapExceeded when width > PACKED_WIDTH), a 2-D one must
    have W = n_words(width) columns.  Words must be unsigned, or signed
    and nonnegative; floats, bools and other kinds are a ValidationError."""
    v = np.asarray(values)
    if v.dtype != np.uint64:
        if v.size and v.dtype.kind not in "iu":
            raise ValidationError(f"{what}: words must be integers, got {v.dtype} values")
        if v.size and v.dtype.kind == "i" and v.min() < 0:
            raise ValidationError(f"{what}: words must be nonnegative, got {v.min()}")
        v = v.astype(np.uint64)
    if v.ndim == 1:
        check_packed(width, what)
        return v[:, None]
    if v.ndim != 2 or v.shape[1] != n_words(width):
        raise DimensionError(
            f"{what}: {width}-bit values need {n_words(width)} words each, "
            f"got shape {v.shape}")
    return v


def words_from_ints(values: Sequence[int], width: int) -> np.ndarray:
    """(N, W) words of nonnegative ints below 2^width."""
    w = n_words(width)
    buf = b"".join(int(v).to_bytes(8 * w, "little") for v in values)
    return np.frombuffer(buf, dtype="<u8").astype(np.uint64).reshape(len(values), w)


def ints_from_words(words: np.ndarray) -> list[int]:
    """The int of each row of an (N, W) word array."""
    rows = np.ascontiguousarray(words, dtype="<u8")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _hex_digits(width: int) -> int:
    return max(1, -(-width // 4))


def hex_chars(words: np.ndarray, width: int) -> np.ndarray:
    """(N, digits) uint8 matrix of the hex characters of each packed
    `width`-bit value (1-D or (N, W) words), least significant nibble first."""
    raw = np.ascontiguousarray(as_words(words, width, "hex value width"),
                               dtype="<u8").view(np.uint8)
    nibbles = np.empty((raw.shape[0], 2 * raw.shape[1]), dtype=np.uint8)
    nibbles[:, 0::2] = raw & 15
    nibbles[:, 1::2] = raw >> 4
    return _NIBBLE_CHARS[nibbles[:, :_hex_digits(width)]]


def hex_from_words(words: np.ndarray, width: int) -> list[str]:
    """Hex string of each packed `width`-bit value (1-D or (N, W) words)."""
    chars = hex_chars(words, width)
    text = chars.tobytes().decode("ascii")
    d = chars.shape[1]
    return [text[i:i + d] for i in range(0, len(text), d)]


def words_from_hex(strings: Sequence[str], width: int) -> np.ndarray:
    """(N, W) words of hex strings of `width`-bit values.  The first string
    of the wrong length, with a non-hex character or with bits set beyond
    `width` (checked in that order) is a ValidationError."""
    digits = _hex_digits(width)
    strings = list(strings)
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    wrong = np.flatnonzero(lengths != digits)
    head = strings[:wrong[0]] if wrong.size else strings
    # "replace" turns each non-ASCII character into one "?", not a hex digit
    chars = np.frombuffer("".join(head).encode("ascii", "replace"), dtype=np.uint8)
    nibbles = _NIBBLE_VALUES[chars].reshape(len(head), digits)
    non_hex = (nibbles > 15).any(axis=1)
    beyond = nibbles[:, -1] >> np.uint8(width - 4 * (digits - 1))
    bad = np.flatnonzero(non_hex | (beyond != 0))
    if bad.size:
        s = head[bad[0]]
        if non_hex[bad[0]]:
            raise ValidationError(f"{s!r} is not a hex string")
        raise ValidationError(f"hex payload {s!r} has bits set beyond length {width}")
    if wrong.size:
        raise ValidationError(f"expected {digits} hex digits for length {width}, "
                              f"got {lengths[wrong[0]]}")
    padded = np.zeros((len(head), 16 * n_words(width)), dtype=np.uint8)
    padded[:, :digits] = nibbles
    raw = padded[:, 0::2] | (padded[:, 1::2] << np.uint8(4))
    return raw.view("<u8").astype(np.uint64, copy=False)


def shift_right(words: np.ndarray, s: int) -> np.ndarray:
    """Logical right shift by s >= 0 bits of each value in (N, W) words."""
    q, b = divmod(s, PACKED_WIDTH)
    keep = max(0, words.shape[1] - q)
    out = np.empty_like(words)
    out[:, keep:] = 0
    np.right_shift(words[:, q:], np.uint64(b), out=out[:, :keep])
    if b and keep > 1:
        out[:, :keep - 1] |= words[:, q + 1:] << np.uint64(PACKED_WIDTH - b)
    return out


def bit_field(words: np.ndarray, start: int, width: int) -> np.ndarray:
    """Bits start .. start+width-1 of each value in (N, W) words, as
    (N, n_words(width)) words."""
    q, b = divmod(start, PACKED_WIDTH)
    k = n_words(width)
    out = shift_right(words[:, q:q + k + 1], b)[:, :k]
    out[:, -1] &= _top_mask(width)
    return out


def popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each value in (N, W) words: the per-word counts summed
    a word at a time (numpy reduces a short last axis far slower)."""
    total = np.bitwise_count(words[:, 0])
    for k in range(1, words.shape[1]):
        total = total + np.bitwise_count(words[:, k]).astype(np.uint32)
    return total


def _runs(positions: Sequence[int]) -> list[tuple[int, int, np.uint64]]:
    """Maximal runs (j0, p0, mask) with positions[j0 + k] == p0 + k."""
    runs = []
    j0 = 0
    for j in range(1, len(positions) + 1):
        if j == len(positions) or positions[j] != positions[j - 1] + 1:
            runs.append((j0, int(positions[j0]), np.uint64((1 << (j - j0)) - 1)))
            j0 = j
    return runs


def _move_runs(values: np.ndarray, positions: Sequence[int], gather: bool) -> np.ndarray:
    """Bit j of each value to positions[j] (bit positions[j] to bit j when
    gathering), one shift-and-mask per run into one scratch array; the
    first run's array is the output."""
    v, out, part = values.astype(np.uint64, copy=False), None, None
    for j0, p0, mask in _runs(positions):
        part = np.right_shift(v, np.uint64(p0 if gather else j0), out=part)
        part &= mask
        part <<= np.uint64(j0 if gather else p0)
        if out is None:
            out, part = part, None
        else:
            out |= part
    return np.zeros(v.shape, dtype=np.uint64) if out is None else out


def scatter_bits_vec(values: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Deposit bit j of each value at positions[j]; one pass per run."""
    return _move_runs(values, positions, gather=False)


def gather_bits_vec(values: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Collect the bits at positions into compact values, positions[j] -> bit j;
    one pass per run."""
    return _move_runs(values, positions, gather=True)


def xor_table(rows: np.ndarray) -> np.ndarray:
    """(..., 2^k, W) words whose entry v is the XOR of the rows of a
    (..., k, W) array at the set bits of v; built by doubling, k passes."""
    *lead, k, w = rows.shape
    table = np.zeros((*lead, 1 << k, w), dtype=np.uint64)
    for b in range(k):
        table[..., 1 << b:2 << b, :] = table[..., :1 << b, :] ^ rows[..., b:b + 1, :]
    return table


def linear_map_tables(columns: np.ndarray) -> np.ndarray:
    """(ceil(B/8), 256, W') byte tables of the GF(2)-linear map whose input
    bit b maps to the W'-word value columns[b] of a (B, W') array: table k
    is the `xor_table` of columns 8k .. 8k+7."""
    cols = np.pad(columns, ((0, -len(columns) % 8), (0, 0)))
    return xor_table(cols.reshape(-1, 8, cols.shape[1]))


def apply_linear_map(tables: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(N, W') words of the map of `linear_map_tables` on 1-D or (N, W)
    words: one lookup per input byte, read through a uint8 view."""
    v = np.ascontiguousarray(values, dtype="<u8")
    raw = (v if v.ndim == 2 else v[:, None]).view(np.uint8)
    out = np.zeros((len(v), tables.shape[2]), dtype=np.uint64)
    idx = np.empty(len(v), dtype=np.intp)  # take is several times slower on uint8
    rows = np.empty_like(out)
    for k, table in enumerate(tables):
        idx[:] = raw[:, k]
        out ^= table.take(idx, axis=0, out=rows, mode="clip")  # mode "raise" would buffer out
    return out
