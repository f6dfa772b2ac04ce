#!/usr/bin/env python3
"""Resilient boolean functions: bias, coalition influence, and how the
Monte-Carlo estimator tracks the exact enumerator.

A block function is resilient when no small coalition of coordinates can
decide its value often, with the remaining coordinates drawn at random.
"""
from nobfext import (Distribution, Majority, RecursiveMajority3, Tribes,
                     UniformBits, bias_under, default_block_function,
                     influence_exact, influence_max_exact, influence_mc,
                     is_monotone)

###############################################################################
# The stock functions and their bias under uniform inputs
###############################################################################

def label(f):
    d = f.descriptor()
    args = ",".join(str(v) for k, v in d.items() if k != "kind")
    return f"{d['kind']}({args})"


zoo = [Majority(3), Majority(5), Tribes(2, 2), RecursiveMajority3(2)]
for f in zoo:
    b = bias_under(f, Distribution.uniform(f.arity))
    print(f"{label(f):24s} arity={f.arity:2d} monotone={is_monotone(f)} "
          f"bias={b:.6f}")

###############################################################################
# Exact coalition influence: can these q bits swing the output?
###############################################################################

print("\ninfluence of coalitions in Majority(5):")
for coalition in [[0], [0, 1], [0, 1, 2]]:
    rest = 5 - len(coalition)
    val = influence_exact(Majority(5), coalition, UniformBits(rest))
    print(f"  I({coalition}) = {val:.4f}")

val, witness = influence_max_exact(Tribes(2, 2), 1, UniformBits(3))
print(f"worst single bit in Tribes(2,2): coalition {witness} "
      f"influence {val:.4f}  (= 3/8)")

###############################################################################
# Influence grows with the coalition, never shrinks
###############################################################################

f = Tribes(2, 2)
chain = []
for size in range(f.arity + 1):
    coalition = list(range(size))
    chain.append(influence_exact(f, coalition, UniformBits(f.arity - size)))
print(f"\nnested coalitions {{}},{{0}},{{0,1}},... in Tribes(2,2): "
      f"{[f'{v:.4f}' for v in chain]}")
assert all(a <= b + 1e-12 for a, b in zip(chain, chain[1:]))
print("  monotone in the coalition, as required")

###############################################################################
# Monte-Carlo influence brackets the exact value
###############################################################################

exact = influence_exact(Majority(5), [0, 3], UniformBits(3))
est = influence_mc(Majority(5), [0, 3], UniformBits(3),
                   samples=20000, seed=11)
print(f"\nI({{0,3}}) in Majority(5): exact {exact:.6f}, "
      f"MC interval [{est.lo:.4f}, {est.hi:.4f}] from {est.samples} draws")
assert est.lo <= exact <= est.hi

###############################################################################
# Picking a block function for a given block length
###############################################################################

for arity in [3, 4, 9, 12]:
    g = default_block_function(arity)
    print(f"default block function for arity {arity:2d}: {label(g)}")
