"""Reference evaluators for library kernels.

The source oracles recompute one outcome of a `nobfext.sources` batch
kernel with Python integers straight from the construction's definition,
sharing no code with the numpy kernels they are compared against.
`clopper_pearson` computes the interval with `scipy.stats.beta.ppf`, the
textbook route that `nobfext.stats` replaces with `betaincinv`.
`countdown_code` searches once per target distance where
`bfext._default_code_builder` searches once in all.  `scatter_bits` and
`gather_bits` move one bit at a time where `nobfext.bitops` moves runs;
`tribes_value` tests one tribe at a time.
"""

import numpy as np
from scipy.stats import beta

from nobfext.codes import build_good_code
from nobfext.errors import SearchBudgetExceeded
from nobfext.sources import (ConstantAdversary, EpsBiased, ExactTwise,
                             MajorityOfGood, ParityOfGood, TableAdversary,
                             UniformBits)


def scatter_bits(values, positions) -> list[int]:
    """Bit j of each value deposited at positions[j]."""
    return [sum(((int(v) >> j) & 1) << p for j, p in enumerate(positions))
            for v in values]


def gather_bits(values, positions) -> list[int]:
    """Bit positions[j] of each value collected into bit j."""
    return [sum(((int(v) >> p) & 1) << j for j, p in enumerate(positions))
            for v in values]


def tribes_value(w: int, s: int, bits: int) -> int:
    """1 when some tribe i (bits i*w .. i*w+w-1) is all ones."""
    full = (1 << w) - 1
    return int(any((bits >> (i * w)) & full == full for i in range(s)))


def gf2e_mul(a: int, b: int, e: int, poly: int) -> int:
    """Product in GF(2^e) with the given reduction polynomial."""
    res = 0
    top = 1 << e
    while b:
        if b & 1:
            res ^= a
        a <<= 1
        if a & top:
            a ^= poly
        b >>= 1
    return res


def exact_twise_outcome(gen: ExactTwise, seed: int) -> int:
    """Bit i = low bit of the seed's degree-(t-1) polynomial at point i."""
    e, poly = gen.field_bits, gen._poly
    coeffs = [(seed >> (j * e)) & ((1 << e) - 1) for j in range(gen.t)]
    out = 0
    for i in range(gen.n_good):
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = gf2e_mul(acc, i, e, poly) ^ c
        out |= (acc & 1) << i
    return out


def eps_biased_outcome(gen: EpsBiased, seed: int) -> int:
    """Bit i = <x^i, y> for the seed's field elements x (low) and y (high)."""
    e, poly = gen.field_bits, gen._poly
    x = seed & ((1 << e) - 1)
    y = seed >> e
    out = 0
    xi = 1
    for i in range(gen.n_good):
        out |= ((xi & y).bit_count() & 1) << i
        xi = gf2e_mul(xi, x, e, poly)
    return out


def generator_outcome(gen, seed: int) -> int:
    if isinstance(gen, UniformBits):
        return seed
    if isinstance(gen, ExactTwise):
        return exact_twise_outcome(gen, seed)
    if isinstance(gen, EpsBiased):
        return eps_biased_outcome(gen, seed)
    raise TypeError(f"no oracle for {type(gen).__name__}")


def adversary_bad_bits(adv, good: int, n_good: int, q: int) -> int:
    """Bad-bit pattern for one good outcome (valid inputs only)."""
    if isinstance(adv, ConstantAdversary):
        return adv.pattern
    if isinstance(adv, ParityOfGood):
        return (1 << q) - 1 if good.bit_count() & 1 else 0
    if isinstance(adv, MajorityOfGood):
        return (1 << q) - 1 if 2 * good.bit_count() > n_good else 0
    if isinstance(adv, TableAdversary):
        return int(adv.table[good])
    raise TypeError(f"no oracle for {type(adv).__name__}")


def clopper_pearson(k, n, confidence: float = 0.99):
    """Clopper-Pearson bounds as beta quantiles from scipy.stats; k and n
    may be arrays of equal shape."""
    k, n = np.asarray(k), np.asarray(n)
    alpha = 1.0 - confidence
    lo = np.where(k == 0, 0.0, beta.ppf(alpha / 2, k, n - k + 1))
    hi = np.where(k == n, 1.0, beta.ppf(1 - alpha / 2, k + 1, n - k))
    return lo, hi


def countdown_code(m: int, ell: int):
    """The derived-parameter code by a countdown: a 256-attempt search (seed
    0) for each target distance from the Singleton bound down; the first
    search that succeeds gives the code."""
    for target in range(ell - m + 1, 0, -1):
        try:
            return build_good_code(m, ell, target, seed=0, attempts=256)
        except SearchBudgetExceeded:
            continue
    raise AssertionError(f"no [{ell},{m}] code reaches distance 1")
