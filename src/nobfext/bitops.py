"""Word-level bit kernels shared by the generators and enumeration kernels.

All outcome integers follow the package convention: coordinate i of a
source is bit i (LSB-first) of the packed int.  Batch kernels carry one
packed value per uint64, so a packed value holds at most PACKED_WIDTH
bits; `check_packed` enforces that where packed values are made, raising
WorkCapExceeded instead of dropping the high bits.

Scatter and gather move bits in runs: consecutive indices j whose
positions p advance with them (p - j constant) move with one
shift-and-mask, so a position list of r runs costs r array passes
whatever its length (Hacker's Delight, section 7).  A GF(2)-linear map of
at most 64 input bits is evaluated by the method of Four Russians: one
256-entry table per input byte, so a map costs at most 8 lookups per
value (Arlazarov, Dinic, Kronrod and Faradzev 1970).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import WorkCapExceeded

PACKED_WIDTH = 64  # bits in one packed uint64 value


def check_packed(width: int, what: str) -> None:
    """Reject a `width`-bit packed value that does not fit one uint64."""
    if width > PACKED_WIDTH:
        raise WorkCapExceeded(what, width, PACKED_WIDTH)


def _runs(positions: Sequence[int]) -> list[tuple[int, int, np.uint64]]:
    """Maximal runs (j0, p0, mask) with positions[j0 + k] == p0 + k."""
    runs = []
    j0 = 0
    for j in range(1, len(positions) + 1):
        if j == len(positions) or positions[j] != positions[j - 1] + 1:
            runs.append((j0, int(positions[j0]), np.uint64((1 << (j - j0)) - 1)))
            j0 = j
    return runs


def scatter_bits_vec(values: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Deposit bit j of each value at positions[j]; one pass per run."""
    out = np.zeros(values.shape, dtype=np.uint64)
    v = values.astype(np.uint64, copy=False)
    for j0, p0, mask in _runs(positions):
        part = (v >> np.uint64(j0)) & mask
        part <<= np.uint64(p0)
        out |= part
    return out


def gather_bits_vec(values: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Collect the bits at positions into compact values, positions[j] -> bit j;
    one pass per run."""
    out = np.zeros(values.shape, dtype=np.uint64)
    v = values.astype(np.uint64, copy=False)
    for j0, p0, mask in _runs(positions):
        part = (v >> np.uint64(p0)) & mask
        part <<= np.uint64(j0)
        out |= part
    return out


def linear_map_tables(columns: np.ndarray) -> np.ndarray:
    """Byte tables of the GF(2)-linear map whose input bit b maps to the
    word columns[b] (at most 64 columns): row k, entry v is the XOR of the
    columns at the set bits of v << 8k.  Built by doubling, 8 passes."""
    cols = np.zeros(-(-len(columns) // 8) * 8, dtype=np.uint64)
    cols[:len(columns)] = columns
    cols = cols.reshape(-1, 8)
    tables = np.zeros((cols.shape[0], 256), dtype=np.uint64)
    for b in range(8):
        tables[:, 1 << b:2 << b] = tables[:, :1 << b] ^ cols[:, b:b + 1]
    return tables


def apply_linear_map(tables: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The map of `linear_map_tables` on each value: one lookup per byte."""
    v = values.astype(np.uint64, copy=False)
    out = np.zeros(v.shape, dtype=np.uint64)
    byte = np.uint64(0xFF)
    for k, table in enumerate(tables):
        out ^= table[(v >> np.uint64(8 * k)) & byte]
    return out
