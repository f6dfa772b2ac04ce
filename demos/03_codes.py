#!/usr/bin/env python3
"""Binary linear codes used as output compressors: presets, exact distance
checks, and the seeded random search for a good generator matrix.

The m x r generator matrix G turns r block bits into m output bits via
z = G y.  Large minimum distance of the row span is what makes linear
tests on z reduce to heavy parities on y.
"""
import numpy as np

from nobfext import (SearchBudgetExceeded, build_good_code, compress_batch,
                     min_distance_exact, preset_code)


def coords(value: int, width: int) -> str:
    """The bits of a packed value, coordinate 0 first."""
    return format(value, f"0{width}b")[::-1]


def codeword(code, v: int) -> int:
    """vG: the XOR of the rows of G that the message v selects."""
    cw = 0
    for i, row in enumerate(code.rows):
        if v >> i & 1:
            cw ^= row
    return cw


###############################################################################
# Preset codes, distances re-verified by brute force
###############################################################################

for name in ["identity-3", "repetition-5", "hamming-7-4", "simplex-k3"]:
    c = preset_code(name)
    d = min_distance_exact(c)
    weights = [codeword(c, v).bit_count() for v in range(1, 1 << c.m)]
    print(f"{name:14s} [r={c.r}, m={c.m}, d={c.verified_d}] "
          f"brute-force distance {d}, "
          f"all 2^m-1 row combinations in [d, r]: {all(d <= w <= c.r for w in weights)}")

###############################################################################
# Encoding and compressing are transposes of each other
###############################################################################

c = preset_code("hamming-7-4")
msg = 0b1101  # coordinates 0, 2 and 3
cw = codeword(c, msg)
print(f"\nmessage {coords(msg, c.m)} -> codeword {coords(cw, c.r)} "
      f"(weight {cw.bit_count()})")

y = 0b0001011  # coordinates 0, 1 and 3
z = int(compress_batch(c, np.array([y], dtype=np.uint64))[0])
print(f"block bits {coords(y, c.r)} -> output {coords(z, c.m)}")
for i, row in enumerate(c.rows):
    print(f"  z_{i} = <row {i} of G, y> = {(row & y).bit_count() & 1}")

###############################################################################
# Seeded search for an [r, m] code of target distance
###############################################################################

found = build_good_code(m=3, r=9, target_d=4, seed=5)
print(f"\nsearch m=3 r=9 d>=4: found d={found.verified_d} "
      f"at attempt {found.construction['attempt']} "
      f"(seed {found.construction['seed']})")
print("  rows:", [format(r, '09b')[::-1] for r in found.rows])

again = build_good_code(m=3, r=9, target_d=4, seed=5)
print(f"  deterministic: same matrix on rerun? {again.rows == found.rows}")

###############################################################################
# An honest failure: [7,4] with distance 4 violates the Griesmer bound
###############################################################################

try:
    build_good_code(m=4, r=7, target_d=4, seed=2, attempts=300)
except SearchBudgetExceeded as exc:
    print(f"\nsearch m=4 r=7 d>=4 fails as it must: {exc}")
    print(f"  best distance seen in budget: {exc.best_distance}")
