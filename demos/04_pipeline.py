#!/usr/bin/env python3
"""The extractor end to end: partition the input into blocks, apply a
resilient function per block, compress the block bits through a linear
code, and look at the output distribution.

Small instances are fully enumerable, so the demo closes by comparing
the extractor's exact output law against uniform.
"""
import numpy as np

from nobfext import (ConstantAdversary, Majority, NobfSourceSpec, UniformBits,
                     derive_params, explicit_params, extract_batch,
                     output_distribution, preset_code, statistical_distance,
                     trace_batch, Distribution)


def coords(value: int, width: int) -> str:
    """The bits of a packed value, coordinate 0 first."""
    return format(value, f"0{width}b")[::-1]


def from_hex(h: str) -> int:
    """A trace document's hex field (least significant nibble first)."""
    return int(h[::-1], 16)


###############################################################################
# A hand-sized instance: n=9 input, 3 blocks of 3, identity compressor
###############################################################################

params = explicit_params(n=9, ell=3, block_len=3,
                         code=preset_code("identity-3"), f=Majority(3))
x = 0b001110011  # coordinates 0, 1, 4, 5 and 6
print(f"params: n={params.n} ell={params.ell} block_len={params.block_len} "
      f"code=[r={params.code.r},m={params.code.m},d={params.code.verified_d}] "
      f"f=majority({params.f.arity})")

trace = trace_batch(np.array([x], dtype=np.uint64), params)[0]
blocks = [from_hex(h) for h in trace["blocks"]]
votes = params.f.eval_batch(np.array(blocks, dtype=np.uint64))
print(f"x = {coords(x, params.n)}")
for i, (b, vote) in enumerate(zip(blocks, votes)):
    print(f"  block {i}: {coords(b, params.block_len)}  majority -> {vote}")
print(f"block bits y = {coords(from_hex(trace['y']), params.ell)}, "
      f"used prefix = {coords(from_hex(trace['y_used']), params.r)}, "
      f"output z = {coords(from_hex(trace['z']), params.m)}")

###############################################################################
# A batch: one packed input per row, one packed z per row
###############################################################################

rng = np.random.default_rng(3)
xs = rng.integers(0, 1 << 9, size=50, dtype=np.uint64)
zs = extract_batch(xs, params)
print(f"\nz of 50 random inputs, counts per value 0..7: "
      f"{np.bincount(zs.astype(np.int64), minlength=8).tolist()}")

###############################################################################
# Parameters derived from (n, delta, t) at a realistic scale
###############################################################################

p = derive_params(n=1 << 20, delta=0.8, t=16)
print(f"\nderive_params(n=2^20, delta=0.8, t=16):")
print(f"  ell={p.ell} blocks of {p.block_len} bits, "
      f"code [r={p.code.r}, m={p.code.m}, d={p.code.verified_d}], "
      f"alpha={p.alpha}")

###############################################################################
# Exact output law of the composed system
###############################################################################

spec = NobfSourceSpec(n=9, bad_positions=[], good_dist=UniformBits(9))
dist = output_distribution(spec, params)
sd = statistical_distance(dist, Distribution.uniform(params.code.m))
print(f"\nno bad bits, uniform good bits: SD(Z, U_{params.code.m}) = {sd:.6f}")

spec_bad = NobfSourceSpec(n=9, bad_positions=[0, 1],
                          good_dist=UniformBits(7),
                          adversary=ConstantAdversary(0b11))
dist_bad = output_distribution(spec_bad, params)
sd_bad = statistical_distance(dist_bad, Distribution.uniform(params.code.m))
print(f"two stuck-at-one bits in block 0: SD(Z, U_{params.code.m}) = "
      f"{sd_bad:.6f}")
print(f"  Pr[z_0 = 1] = "
      f"{sum(dist_bad.probs[v] for v in range(8) if v & 1):.4f} "
      f"(two of three votes rigged, so block 0's majority is forced)")
