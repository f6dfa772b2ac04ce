#!/usr/bin/env python3
"""The extractor end to end: partition the input into blocks, apply a
resilient function per block, compress the block bits through a linear
code, and look at the output distribution.

Small instances are fully enumerable, so the demo closes by comparing
the extractor's exact output law against uniform.
"""
import numpy as np

from nobfext import (BitVector, ConstantAdversary, Majority, NobfSourceSpec,
                     UniformBits, derive_params, explicit_params, extract,
                     extract_batch, output_distribution, preset_code,
                     statistical_distance, Distribution)

###############################################################################
# A hand-sized instance: n=9 input, 3 blocks of 3, identity compressor
###############################################################################

params = explicit_params(n=9, ell=3, block_len=3,
                         code=preset_code("identity-3"), f=Majority(3))
x = BitVector.from_bits([1, 1, 0, 0, 1, 1, 1, 0, 0])
print(f"params: n={params.n} ell={params.ell} block_len={params.block_len} "
      f"code=[r={params.code.r},m={params.code.m},d={params.code.verified_d}] "
      f"f=majority({params.f.arity})")

trace = extract(x, params)
print(f"x = {x.to01()}")
for i, b in enumerate(trace.blocks):
    print(f"  block {i}: {b.to01()}  majority -> {Majority(3).eval(b)}")
print(f"block bits y = {trace.y.to01()}, used prefix = {trace.y_used.to01()}, "
      f"output z = {trace.z.to01()}")

###############################################################################
# Batch extraction agrees with the scalar path
###############################################################################

rng = np.random.default_rng(3)
xs = rng.integers(0, 1 << 9, size=50, dtype=np.uint64)
zs = extract_batch(xs, params)
ok = all(int(zs[i]) == extract(BitVector(9, int(xs[i])), params).z.bits
         for i in range(len(xs)))
print(f"\nbatch of 50 random inputs matches scalar extract: {ok}")

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
