#!/usr/bin/env python3
"""Binary linear codes used as output compressors: presets, exact distance
checks, and the seeded random search for a good generator matrix.

The m x r generator matrix G turns r block bits into m output bits via
z = G y.  Large minimum distance of the row span is what makes linear
tests on z reduce to heavy parities on y.
"""
from nobfext import (BitVector, SearchBudgetExceeded, build_good_code,
                     compress, encode_message, min_distance_exact,
                     preset_code, row_combination)

###############################################################################
# Preset codes, distances re-verified by brute force
###############################################################################

for name in ["identity-3", "repetition-5", "hamming-7-4", "simplex-k3"]:
    c = preset_code(name)
    d = min_distance_exact(c)
    weights = [encode_message(c, BitVector(c.m, v)).weight() for v in range(1, 1 << c.m)]
    print(f"{name:14s} [r={c.r}, m={c.m}, d={c.verified_d}] "
          f"brute-force distance {d}, "
          f"all 2^m-1 row combinations in [d, r]: {all(d <= w <= c.r for w in weights)}")

###############################################################################
# Encoding and compressing are transposes of each other
###############################################################################

c = preset_code("hamming-7-4")
msg = BitVector.from_bits([1, 0, 1, 1])
cw = encode_message(c, msg)
print(f"\nmessage {msg.to01()} -> codeword {cw.to01()} "
      f"(weight {cw.weight()})")

y = BitVector.from_bits([1, 1, 0, 1, 0, 0, 0])
z = compress(c, y)
print(f"block bits {y.to01()} -> output {z.to01()}")
for i in range(c.m):
    row = row_combination(c.g, [i])
    print(f"  z_{i} = <row {i} of G, y> = {row.dot(y)}")

###############################################################################
# Seeded search for an [r, m] code of target distance
###############################################################################

found = build_good_code(m=3, r=9, target_d=4, seed=5)
print(f"\nsearch m=3 r=9 d>=4: found d={found.verified_d} "
      f"at attempt {found.construction['attempt']} "
      f"(seed {found.construction['seed']})")
print("  rows:", [format(r, '09b')[::-1] for r in found.g.rows])

again = build_good_code(m=3, r=9, target_d=4, seed=5)
print(f"  deterministic: same matrix on rerun? {again.g.rows == found.g.rows}")

###############################################################################
# An honest failure: [7,4] with distance 4 violates the Griesmer bound
###############################################################################

try:
    build_good_code(m=4, r=7, target_d=4, seed=2, attempts=300)
except SearchBudgetExceeded as exc:
    print(f"\nsearch m=4 r=7 d>=4 fails as it must: {exc}")
    print(f"  best distance seen in budget: {exc.best_distance}")
