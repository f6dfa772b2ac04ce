#!/usr/bin/env python3
"""Diagnostics that mirror the analysis of the extractor, each checked on
instances small enough to enumerate exactly.

The chain of facts: bad bits leave most block outputs fixed; zeroing the
bad bits changes the extractor output rarely; the statistical distance
between the real and zeroed outputs is at most the probability that some
used block is undetermined; and small parity biases multiply through the
code, which is what Fourier-side bounds quantify.
"""
import math

from nobfext import (ConstantAdversary, Distribution, NobfSourceSpec,
                     ParityOfGood, Tribes, UniformBits, compare_zeroed,
                     explicit_params, fixedness_probability, output_distribution,
                     parseval_bound, preset_code, statistical_distance,
                     vazirani_check, worst_case_adversary, xor_bias_product,
                     zeroed_counterpart)

###############################################################################
# A fully enumerable system: 8 bits, two blocks of Tribes(2,2), identity code
###############################################################################

params = explicit_params(n=8, ell=2, block_len=4,
                         code=preset_code("identity-2"), f=Tribes(2, 2))
spec = NobfSourceSpec(8, bad_positions=[1, 5], good_dist=UniformBits(6),
                      adversary=ParityOfGood())
print(f"system: n=8, blocks of 4, f=tribes(2,2), bad bits {spec.bad_positions}")

###############################################################################
# Step 1: how often are all used block outputs already determined?
###############################################################################

fx = fixedness_probability(spec, params)
print(f"\nPr[every block output fixed ignoring bad bits] = {fx.value:.6f} "
      f"({fx.method})")

###############################################################################
# Step 2: zero the bad bits and compare outputs exactly
###############################################################################

zspec = zeroed_counterpart(spec)
print(f"zeroed counterpart keeps the good marginal, pins bad bits to 0")
rep = compare_zeroed(spec, params)
print(f"SD(Z, Z') = {rep.sd.value:.6f} exactly")

###############################################################################
# Step 3: the coupling bound ties the two together
###############################################################################

undet = 1.0 - fx.value
print(f"coupling bound: SD(Z, Z') = {rep.sd.value:.6f} <= "
      f"Pr[some block undetermined] = {undet:.6f}  "
      f"{'OK' if rep.sd.value <= undet + 1e-12 else 'VIOLATED'}")

###############################################################################
# Step 4: no fixed adversary is special; search for the worst one
###############################################################################

worst = worst_case_adversary(spec, params)
zero_dist = output_distribution(zspec, params)
achieved = output_distribution(
    NobfSourceSpec(8, [1, 5], UniformBits(6), worst.adversary), params)
print(f"\nworst adversary ({worst.method}, {worst.sweeps} sweeps): "
      f"SD = {worst.sd:.6f}")
print(f"  re-derived from its output law: "
      f"{statistical_distance(achieved, zero_dist):.6f}")
print(f"  still below the coupling bound {undet:.6f}: {worst.sd <= undet + 1e-12}")

###############################################################################
# Step 5: Fourier-side bounds on any output law
###############################################################################

d = output_distribution(spec, params)
vz = vazirani_check(d)
print(f"\noutput law of the parity adversary: SD(Z, U_2) = {vz.sd:.6f}")
print(f"  max parity bias {vz.max_bias:.6f}, "
      f"vazirani bound {vz.bound:.6f}, holds: {vz.holds}")
print(f"  parseval bound {parseval_bound(d):.6f} (tighter)")

###############################################################################
# Step 6: parity biases multiply when independent bits are XORed
###############################################################################

distances = [0.3, 0.1, 0.25]
xr = xor_bias_product(distances)
# the XOR is 1 with probability sum over odd-parity outcomes of prod Pr[bit]
p1 = sum(math.prod(0.5 - e if (o >> i) & 1 else 0.5 + e for i, e in enumerate(distances))
         for o in range(1 << len(distances)) if bin(o).count("1") % 2)
brute = abs(p1 - 0.5)
print(f"\nXOR of bits at distances {distances} from fair:")
print(f"  product formula {xr.distance:.6f}, brute convolution {brute:.6f}")

same = xor_bias_product([0.25] * 3)
print(f"  equal distances e=0.25, t=3: exact {same.distance:.6f} vs "
      f"e^t = {same.literal_bound:.6f} -> literal form holds: "
      f"{same.literal_holds} (the honest bound carries a (2e)^t shape)")
