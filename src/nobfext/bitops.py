"""Bit scatter/gather helpers shared by the enumeration kernels.

All outcome integers follow the package convention: coordinate i of a
source is bit i (LSB-first) of the packed int.  Batch kernels carry one
packed value per uint64, so a packed value holds at most PACKED_WIDTH
bits; `check_packed` enforces that where packed values are made, raising
WorkCapExceeded instead of dropping the high bits.
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


def scatter_bits_vec(values: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Deposit bit j of each value at positions[j]."""
    out = np.zeros(values.shape, dtype=np.uint64)
    v = values.astype(np.uint64, copy=False)
    for j, p in enumerate(positions):
        out |= ((v >> np.uint64(j)) & np.uint64(1)) << np.uint64(p)
    return out


def gather_bits_vec(values: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Collect the bits at positions into compact values, positions[j] -> bit j."""
    out = np.zeros(values.shape, dtype=np.uint64)
    v = values.astype(np.uint64, copy=False)
    for j, p in enumerate(positions):
        out |= ((v >> np.uint64(p)) & np.uint64(1)) << np.uint64(j)
    return out
