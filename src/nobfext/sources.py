"""Non-oblivious bit-fixing sources.

A source on n bits is described by a set of "bad" coordinates, a
distribution over the remaining "good" coordinates, and an adversary that
fills the bad coordinates as an arbitrary deterministic function of the
realized good bits.  The module provides good-bit generators (uniform,
exactly t-wise independent via random low-degree polynomials over GF(2^e),
small-bias via the powering construction, explicit tables), pluggable
adversaries, seeded sampling, and exact enumeration of the full source
distribution at desk scale.

Every source concept has one batch kernel over packed uint64 values:
`outcomes_for_seeds`, `bad_bits_batch` and `compose_batch`.  Values
wider than PACKED_WIDTH bits raise WorkCapExceeded in `sample_batch`,
`sample_nobf_batch`, `read_sample_batch`, `bad_bits_batch` and the support
walk.

The generator kernels work on whole words.  ExactTwise is a GF(2)-linear
map of its seed, evaluated through byte tables (at most 8 lookups per
seed); EpsBiased takes parities of x^i & y, or, for batches of at least
2^e seeds, XORs column words of x from a table of the whole field, so no
table outgrows its batch; compose scatters the good and bad bits in runs
of consecutive positions.

Exact oracles walk the good-bit support (`GoodBitDistribution.support`),
so exactness is bounded by the seed space (at most 2^24 seeds) and the
packed width, not by n; only `exact_table` and `enumerate_nobf`, whose
results are tables of 2^n_good and 2^n entries, keep n <= 24.  Every
oracle, exact or sampled, runs its per-chunk kernel through
`GoodBitDistribution.walk`, in the pieces of `prng.chunk_ranges` (at most
2^18 seeds or 2^15 draws each).  The work cap is the `cap` argument of each
exact oracle (default DEFAULT_WORK_CAP = 2^28 units), checked by
`GoodBitDistribution.check_work` against the support size times the
oracle's units per walked outcome before the first chunk.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import prng
from .bitops import (PACKED_WIDTH, apply_linear_map, check_packed, gather_bits_vec,
                     hex_chars, linear_map_tables, scatter_bits_vec, words_from_hex)
from .errors import (DEFAULT_WORK_CAP, DimensionError, ValidationError, WorkCapExceeded,
                     parse_errors)
from .schemas import (check_count, integer, integers, parse_json, read_text, staged_outputs,
                      validate_document)

ENUM_SEED_BITS_CAP = 24   # exact oracles enumerate at most 2^24 seeds
ENUM_N_CAP = 24           # tables of outcomes have at most 2^24 entries


# ---------------------------------------------------------------------------
# GF(2^e) arithmetic for the generator constructions


def _poly_mod(a: int, b: int) -> int:
    bl = b.bit_length()
    while a.bit_length() >= bl:
        a ^= b << (a.bit_length() - bl)
    return a


def _mul_mod(a: int, b: int, f: int) -> int:
    """a * b modulo f in GF(2)[X], for a of degree below deg f."""
    top = 1 << (f.bit_length() - 1)
    res = 0
    while b:
        if b & 1:
            res ^= a
        a <<= 1
        if a & top:
            a ^= f
        b >>= 1
    return res


def _is_irreducible(f: int) -> bool:
    """Ben-Or's test: f of degree e is irreducible iff X^(2^i) - X and f
    are coprime for every i <= e/2 (no factor of degree i divides f)."""
    xpow = 0b10
    for _ in range((f.bit_length() - 1) // 2):
        xpow = _mul_mod(xpow, xpow, f)
        a, b = f, xpow ^ 0b10
        while b:
            a, b = b, _poly_mod(a, b)
        if a != 1:
            return False
    return True


@lru_cache(maxsize=None)
def irreducible_poly(e: int) -> int:
    """Smallest irreducible polynomial of degree e over GF(2), as a bitmask.

    Found by scanning candidates in increasing order with Ben-Or's test
    rather than from a hard-coded table; cached per degree.  Constant term
    must be 1 (x never divides an irreducible of degree >= 1 other than x
    itself).
    """
    if e < 1:
        raise ValidationError("field degree must be >= 1")
    if e == 1:
        return 0b11  # x + 1
    for low in range(1, 1 << e, 2):
        if _is_irreducible((1 << e) | low):
            return (1 << e) | low
    raise AssertionError("unreachable: irreducibles exist for every degree")


def gf2e_times_columns(b, e: int, poly: int) -> np.ndarray:
    """Multiplication by each element of b as e columns: column c holds
    b * X^c, so a * b is the XOR of the columns at the set bits of a.
    Shape (e,) + b.shape; e shift-and-reduce passes."""
    cols = np.empty((e,) + np.shape(b), dtype=np.uint64)
    v = np.array(b, dtype=np.uint64)
    one, top, p = np.uint64(1), np.uint64(e), np.uint64(poly)
    for c in range(e):
        cols[c] = v
        v <<= one
        v ^= p * ((v >> top) & one)
    return cols


def gf2e_times(cols: np.ndarray, a: np.ndarray) -> np.ndarray:
    """a * b for the columns `gf2e_times_columns(b, ...)`: e masked XORs."""
    res = np.zeros(cols.shape[1:], dtype=np.uint64)
    one = np.uint64(1)
    for c, col in enumerate(cols):
        res ^= col * ((a >> np.uint64(c)) & one)
    return res


# ---------------------------------------------------------------------------
# Distributions over {0,1}^m

PROB_SUM_TOL = 1e-12


def _table_width(m) -> int:
    """m as the width of a table of 2^m entries: a nonnegative integer."""
    if (m := integer(m)) < 0:
        raise ValidationError(f"table width must be >= 0, got {m}")
    return m


@dataclass(frozen=True, eq=False)
class Distribution:
    """Exact probability table or seeded sample batch over m-bit strings.

    Exact tables index outcomes by their packed-int value (coordinate i =
    bit i).  Empirical distributions keep the raw samples plus the seed
    that produced them; they are always flagged as estimates.
    """

    m: int
    probs: np.ndarray | None = None
    samples: np.ndarray | None = None
    seed: int | None = None

    @property
    def kind(self) -> str:
        return "exact" if self.probs is not None else "empirical"

    @property
    def is_exact(self) -> bool:
        return self.probs is not None

    @classmethod
    def exact(cls, m: int, probs) -> "Distribution":
        m, table = _table_width(m), np.asarray(probs, dtype=np.float64)
        if table.shape != (1 << m,):
            raise DimensionError(f"table of length {table.size} for width {m}")
        if np.any(table < 0):
            raise ValidationError("probabilities must be nonnegative")
        total = float(table.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, not 1 within {PROB_SUM_TOL}")
        return cls(m=m, probs=table)

    @classmethod
    def from_table(cls, probs) -> "Distribution":
        """An exact table whose width m is read off its length."""
        table = np.asarray(probs, dtype=np.float64)
        m = max(0, int(table.size).bit_length() - 1)
        if table.ndim != 1 or table.size != 1 << m:
            raise ValidationError("table length must be a power of two")
        return cls.exact(m, table)

    @classmethod
    def empirical(cls, m: int, samples, seed: int | None = None) -> "Distribution":
        check_packed(m, "empirical sample width")
        arr = np.asarray(samples, dtype=np.uint64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("empirical distribution needs a nonempty 1-d sample array")
        if m < PACKED_WIDTH and np.any(arr >> np.uint64(m)):
            raise ValidationError(f"sample outside width {m}")
        return cls(m=m, samples=arr, seed=seed)

    @classmethod
    def uniform(cls, m: int) -> "Distribution":
        m = _table_width(m)
        if m > ENUM_N_CAP:  # refused before the table is allocated
            raise WorkCapExceeded("uniform table too wide", 2 ** m, 2 ** ENUM_N_CAP)
        return cls.exact(m, np.full(1 << m, 1.0 / (1 << m)))

    @classmethod
    def point_mass(cls, m: int, outcome: int) -> "Distribution":
        table = np.zeros(1 << _table_width(m))
        outcome = integer(outcome)
        if not 0 <= outcome < table.size:
            raise ValidationError(f"outcome {outcome} outside 0..{table.size - 1}")
        table[outcome] = 1.0
        return cls.exact(m, table)

    @property
    def n_samples(self) -> int:
        return 0 if self.samples is None else int(self.samples.size)

    def as_table(self) -> np.ndarray:
        """Exact table, or the plug-in frequency table for empirical data."""
        if self.probs is not None:
            return self.probs
        counts = np.bincount(self.samples.astype(np.int64), minlength=1 << self.m)
        return counts / self.samples.size

    def marginal(self, positions: Sequence[int]) -> "Distribution":
        """Exact marginal on the given coordinates (positions[j] -> bit j)."""
        if self.probs is None:
            raise ValidationError("marginal requires an exact table")
        pos = list(positions)
        if any(p < 0 or p >= self.m for p in pos):
            raise ValidationError(f"position outside width {self.m}")
        outcomes = np.arange(1 << self.m, dtype=np.uint64)
        projected = gather_bits_vec(outcomes, pos).astype(np.int64)
        table = np.bincount(projected, weights=self.probs, minlength=1 << len(pos))
        return Distribution.exact(len(pos), table)


# ---------------------------------------------------------------------------
# Good-bit distributions


class GoodBitDistribution:
    """Distribution of the good coordinates of an NOBF source.

    Generator-backed kinds expose a finite seed space: ``outcomes_for_seeds``
    maps each seed to an n_good-bit outcome, and a uniformly random seed
    induces the distribution.  Explicit tables have no seed space and are
    sampled by inverse CDF.
    """

    kind: str = "abstract"
    n_good: int
    seed_bits: int | None  # log2 of the seed space; None for explicit tables
    # a GF(2)-linear generator's outcomes of the unit seeds 1 << j; else None
    unit_columns: np.ndarray | None = None

    def claimed_twise(self) -> int | None:
        """Independence parameter this generator guarantees, if derivable."""
        return None

    def outcomes_for_seeds(self, seeds: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def seed_ranges(self) -> list[tuple[int, int]]:
        """The (first seed, count) pieces of `prng.chunk_ranges` over the seed
        space (at most 2^18 seeds each, each starting at a multiple of 64).
        Seed spaces above 2^ENUM_SEED_BITS_CAP and outcomes wider than
        PACKED_WIDTH raise WorkCapExceeded."""
        check_packed(self.n_good, "packed good-bit width")
        if self.seed_bits > ENUM_SEED_BITS_CAP:
            raise WorkCapExceeded(
                "seed space too large to enumerate", 2 ** self.seed_bits, 2 ** ENUM_SEED_BITS_CAP
            )
        return prng.chunk_ranges(1 << self.seed_bits, 1)

    def support(self) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        """Walk the support as chunks of (packed outcomes, weights).

        Generator-backed kinds yield the outcomes of each seed piece of
        `seed_ranges` (at most 2^18 seeds) with weights None: each
        seed weighs one, and sums are divided by `support_total` (the
        seed-space size) once, so they stay exact.  Explicit tables yield
        their nonzero rows with their probabilities.  Seed spaces above
        2^ENUM_SEED_BITS_CAP and outcomes wider than PACKED_WIDTH raise
        WorkCapExceeded when this is called, before any chunk.
        """
        return ((self.outcomes_for_seeds(np.arange(lo, lo + count, dtype=np.uint64)), None)
                for lo, count in self.seed_ranges())

    @property
    def support_total(self) -> float:
        """Total weight of the support walk."""
        return float(self.support_size)

    @property
    def support_size(self) -> int:
        """Outcomes the support walk visits at most."""
        return 1 << (self.n_good if self.seed_bits is None else self.seed_bits)

    def check_work(self, units: int, cap: int, what: str) -> None:
        """Raise WorkCapExceeded when `units` of work for each walked
        outcome, over the whole support, exceed `cap`."""
        if self.support_size * units > cap:
            raise WorkCapExceeded(what, self.support_size * units, cap)

    def walk(self, kernel: Callable, exact: bool, seed: int | None = None,
             samples: int | None = None, workers: int = 1, units: int = 1,
             cap: int = DEFAULT_WORK_CAP, what: str = "support walk",
             on_seeds: bool = False):
        """The sum of kernel(goods, weights) over the good bits, and the
        total weight to divide it by.  Exact walks run the kernel on each
        chunk of `support()` (with `on_seeds`, as kernel(lo, count) on each
        of `seed_ranges()`), total `support_total`, once its own refusals
        and then `units` per outcome against `cap` (`check_work`) have
        passed; sampled ones on the draws at counters 0..samples-1 of
        (seed, stream 0) with weights None, total `samples`, in the pieces
        `prng.run_chunked` yields.  Seed pieces hold up to prng.CHUNK = 2^18
        seeds, as a seed walk's per-piece set-up is dearer; draw pieces
        2^15 draws, whose temporaries stay in L2 (`prng` has the timings).
        Results are added in range order, as they come, into one running
        total (`_add`), so the sum does not depend on `workers`."""
        if exact:
            chunks = self.seed_ranges() if on_seeds else self.support()
            parts, total = itertools.starmap(kernel, chunks), self.support_total
            self.check_work(units, cap, what)
        else:
            if samples is None or seed is None:
                raise ValidationError("exact enumeration infeasible; provide seed and samples")
            if check_count(samples, "samples") < 1:
                raise ValidationError("need at least one sample")
            parts, total = prng.run_chunked(
                lambda start, count: kernel(self.sample_batch(seed, 0, start, count), None),
                samples, workers), samples
        acc = None
        for part in parts:
            acc = _add(acc, part)
            del part  # free this piece's result before the next one comes
        return acc, total

    def table_of(self, key: Callable[[np.ndarray], np.ndarray], size: int) -> np.ndarray:
        """Probability table over 0..size-1 of `key(goods)`, binned over the
        support walk."""
        counts, total = self.walk(
            lambda goods, weights: np.bincount(key(goods).astype(np.int64),
                                               weights=weights, minlength=size), True)
        return counts / total

    def exact_table(self) -> np.ndarray:
        """Exact probability table over 2^n_good outcomes (desk scale only)."""
        if self.n_good > ENUM_N_CAP:
            raise WorkCapExceeded("good-bit table too wide", 2 ** self.n_good, 2 ** ENUM_N_CAP)
        return self.table_of(lambda goods: goods, 1 << self.n_good)

    def sample_batch(self, seed: int, stream: int, start: int, count: int) -> np.ndarray:
        """count outcomes for counters start..start+count-1; chunking-invariant."""
        if self.seed_bits is None:
            raise NotImplementedError
        check_packed(self.n_good, "packed good-bit width")
        if self.seed_bits == 0:
            gen_seeds = np.zeros(count, dtype=np.uint64)
        else:
            gen_seeds = prng.low_bits(seed, stream, start, count, self.seed_bits)
        return self.outcomes_for_seeds(gen_seeds)

    def descriptor(self) -> dict:
        raise NotImplementedError


def _add(acc, part):
    """acc + part, element by element for tuples; acc None is the empty sum.
    Later parts are added in place into a copy of the first."""
    if isinstance(part, tuple):
        return tuple(map(_add, acc or (None,) * len(part), part))
    if acc is None:
        return part + 0
    acc += part
    return acc


def mass(hit: np.ndarray, weights: np.ndarray | None):
    """The weight of the outcomes a boolean mask `hit` marks in one chunk
    of `GoodBitDistribution.walk`: a count when weights is None."""
    return int(np.count_nonzero(hit)) if weights is None else float(weights[hit].sum())


class UniformBits(GoodBitDistribution):
    """Uniform good bits; the seed simply is the outcome."""

    kind = "uniform"

    def __init__(self, n_good: int):
        n_good = integer(n_good)
        if n_good < 0:
            raise ValidationError("negative bit count")
        self.n_good = n_good
        self.seed_bits = n_good

    def claimed_twise(self) -> int | None:
        return self.n_good

    @property
    def unit_columns(self) -> np.ndarray:
        return np.uint64(1) << np.arange(self.n_good, dtype=np.uint64)

    def outcomes_for_seeds(self, seeds: np.ndarray) -> np.ndarray:
        return seeds.astype(np.uint64, copy=False)

    def descriptor(self) -> dict:
        return {"kind": "uniform", "n_good": self.n_good}


class ExactTwise(GoodBitDistribution):
    """Exactly t-wise independent bits from random degree-(t-1) polynomials.

    A seed supplies t coefficients in GF(2^e); bit i is the low bit of the
    polynomial evaluated at the field element with integer value i.  Any t
    evaluation points determine a bijection between coefficient tuples and
    value tuples (Vandermonde), so every t-coordinate restriction is
    exactly uniform.  Requires 2^e >= n_good distinct points.

    The outcome is GF(2)-linear in the seed: one `bitops.apply_linear_map`
    whose columns are `unit_columns`, the outcomes of the unit seeds, built
    once per instance (tables of at most 16 KB, at most 8 lookups a seed).
    """

    kind = "exact-twise"

    def __init__(self, n_good: int, t: int, field_bits: int | None = None):
        n_good, t = integer(n_good), integer(t)
        if t < 1:
            raise ValidationError("t must be >= 1")
        if n_good < 1:
            raise ValidationError("need at least one good bit")
        e_min = max(1, (n_good - 1).bit_length())
        e = e_min if field_bits is None else integer(field_bits)
        if (1 << e) < n_good:
            raise ValidationError(
                f"field of 2^{e} elements has fewer than n_good={n_good} points; "
                f"need field_bits >= {e_min}"
            )
        if e * t > 63:
            raise ValidationError(
                f"seed space of 2^{e * t} exceeds the 2^63 sampling limit; "
                f"reduce t (<= {63 // e} at field_bits={e}) or n_good"
            )
        self.n_good = n_good
        self.t = t
        self.field_bits = e
        self.seed_bits = e * t
        self._poly = irreducible_poly(e)

    def claimed_twise(self) -> int | None:
        return self.t

    @cached_property
    def unit_columns(self) -> np.ndarray:
        # seed bit j*e + c is bit c of coefficient j, i.e. the coefficient
        # X^c; at point i it contributes X^c * i^j, whose low bit is bit i
        # of that seed bit's outcome word
        e, poly = self.field_bits, self._poly
        points = np.arange(self.n_good, dtype=np.uint64)
        times_points = gf2e_times_columns(points, e, poly)
        weights = np.uint64(1) << points
        power = np.ones(self.n_good, dtype=np.uint64)
        columns = []
        for _ in range(self.t):
            low = gf2e_times_columns(power, e, poly) & np.uint64(1)
            columns.extend(np.bitwise_or.reduce(low * weights, axis=1))
            power = gf2e_times(times_points, power)
        return np.array(columns, dtype=np.uint64)

    @cached_property
    def _tables(self) -> np.ndarray:
        return linear_map_tables(self.unit_columns[:, None])

    def outcomes_for_seeds(self, seeds: np.ndarray) -> np.ndarray:
        return apply_linear_map(self._tables, seeds)[:, 0]

    def descriptor(self) -> dict:
        return {
            "kind": "exact-twise",
            "n_good": self.n_good,
            "t": self.t,
            "field_bits": self.field_bits,
        }


class EpsBiased(GoodBitDistribution):
    """Small-bias bits via the powering construction (Alon et al. 1992).

    A seed supplies x, y in GF(2^e); bit i is the GF(2) inner product of
    the bit representations of x^i and y.  The parity over a nonempty
    index set S equals <p_S(x), y> for the nonzero polynomial
    p_S(X) = sum_{i in S} X^i, which is unbiased unless x is one of its
    at most n_good-1 roots, so every linear test has bias at most
    (n_good - 1) / 2^e <= epsilon.

    The kernel computes the powers x^i of each distinct x in a batch by
    n_good multiplications by x through its e columns x * X^c (e words per
    x), and takes bit i as the parity of x^i & y.  The outcome is also
    linear in y, the XOR of the e column words of x (bit i of column c is
    coefficient c of x^i) at the set bits of y: a batch of at least 2^e
    seeds reads those from a table of the whole field, built once per
    instance (e words per element, at most e per seed of the batch) and
    shared by every chunk, and makes e passes over the batch.
    """

    kind = "eps-biased"

    def __init__(self, n_good: int, epsilon: float, field_bits: int | None = None):
        n_good = integer(n_good)
        if n_good < 1:
            raise ValidationError("need at least one good bit")
        if (isinstance(epsilon, (bool, np.bool_)) or not isinstance(epsilon, numbers.Real)
                or not 0 < epsilon <= 1):
            raise ValidationError(f"epsilon must be a number in (0, 1], got {epsilon!r}")
        if field_bits is None:
            e = 1
            while (n_good - 1) / (1 << e) > epsilon:
                e += 1
        else:
            e = integer(field_bits)
            if (n_good - 1) / (1 << e) > epsilon:
                raise ValidationError(
                    f"field_bits={e} gives bias bound {(n_good - 1) / (1 << e):g} > epsilon"
                )
        if 2 * e > 63:
            raise ValidationError(
                f"seed space of 2^{2 * e} exceeds the 2^63 sampling limit; relax epsilon"
            )
        self.n_good = n_good
        self.epsilon = float(epsilon)
        self.field_bits = e
        self.seed_bits = 2 * e
        self._poly = irreducible_poly(e)

    @cached_property
    def _field_columns(self) -> np.ndarray:
        """(e, 2^e) words: bit i of word c is coefficient c of x^i, for every
        x; worker threads that race here build equal tables.  Each power's
        coefficient bits also select the columns of x * X^c that multiply
        it by x, all e at once, on uint32 field elements."""
        xs = np.arange(1 << self.field_bits, dtype=np.uint64)
        times_x = gf2e_times_columns(xs, self.field_bits, self._poly).astype(np.uint32)
        shifts = np.arange(self.field_bits, dtype=np.uint32)[:, None]
        bits, wide = np.empty_like(times_x), np.empty(times_x.shape, dtype=np.uint64)
        cols, xi = np.zeros_like(wide), np.ones(len(xs), dtype=np.uint32)
        for i in range(self.n_good):
            np.right_shift(xi, shifts, out=bits)
            bits &= np.uint32(1)  # row c: coefficient c of x^i
            cols |= np.left_shift(bits, np.uint64(i), out=wide, casting="unsafe")
            np.negative(bits, out=bits)
            bits &= times_x
            xi = np.bitwise_xor.reduce(bits, axis=0)  # x^(i+1)
        return cols

    def outcomes_for_seeds(self, seeds: np.ndarray) -> np.ndarray:
        e, one = self.field_bits, np.uint64(1)
        s = seeds.astype(np.uint64, copy=False)
        x, y = s & np.uint64((1 << e) - 1), s >> np.uint64(e)
        out = np.zeros(s.shape, dtype=np.uint64)
        if 1 << e > len(s):  # bit i is the parity of x^i & y, per distinct x
            xs, which = np.unique(x, return_inverse=True)
            times_x = gf2e_times_columns(xs, e, self._poly)
            xi = np.ones(xs.shape, dtype=np.uint64)
            for i in range(self.n_good):
                bit = np.bitwise_count(xi[which] & y).astype(np.uint64) & one
                out |= bit << np.uint64(i)
                xi = gf2e_times(times_x, xi)
            return out
        x, bit, picked = x.view(np.intp), np.empty_like(y), np.empty_like(y)
        for col in self._field_columns:  # the columns at the set bits of y
            np.bitwise_and(y, one, out=bit)
            np.negative(bit, out=bit)
            bit &= col.take(x, out=picked, mode="clip")  # mode "raise" would buffer out
            out ^= bit
            y >>= one
        return out

    def descriptor(self) -> dict:
        return {
            "kind": "eps-biased",
            "n_good": self.n_good,
            "epsilon": self.epsilon,
            "field_bits": self.field_bits,
        }


class ExplicitTable(GoodBitDistribution):
    """Good bits drawn from an explicit probability table (no seed space)."""

    kind = "explicit-table"

    def __init__(self, probs):
        dist = Distribution.from_table(probs)
        self.n_good = dist.m
        self.seed_bits = None
        self.probs = dist.probs
        self._cdf = np.cumsum(self.probs)
        # a draw at or above the rounded-down total maps to the last outcome
        # that has positive probability, never to a zero-probability tail
        self._last = int(np.flatnonzero(self.probs)[-1])

    support_total = 1.0

    def support(self) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        """The nonzero rows, in increasing order, as one chunk."""
        rows = np.flatnonzero(self.probs)
        return iter([(rows.astype(np.uint64), self.probs[rows])])

    def sample_batch(self, seed: int, stream: int, start: int, count: int) -> np.ndarray:
        u = prng.uniform01(seed, stream, start, count)
        idx = np.searchsorted(self._cdf, u, side="right")
        return np.minimum(idx, self._last).astype(np.uint64)

    def descriptor(self) -> dict:
        return {"kind": "explicit-table", "probs": [float(p) for p in self.probs]}


@parse_errors("good-bit distribution")
def good_dist_from_descriptor(d: dict) -> GoodBitDistribution:
    kind = d.get("kind")
    if kind == "uniform":
        return UniformBits(d["n_good"])
    field_bits = d.get("field_bits")
    if kind == "exact-twise":
        return ExactTwise(d["n_good"], d["t"], field_bits)
    if kind == "eps-biased":
        return EpsBiased(d["n_good"], float(d["epsilon"]), field_bits)
    if kind == "explicit-table":
        return ExplicitTable(d["probs"])
    raise ValidationError(f"unknown good-bit distribution kind {kind!r}")


@dataclass(frozen=True)
class TwiseReport:
    ok: bool
    worst_subset: tuple[int, ...] | None
    worst_distance: float


def verify_twise(dist: GoodBitDistribution, n: int, t: int,
                 cap: int = DEFAULT_WORK_CAP) -> TwiseReport:
    """Check that every t-coordinate marginal is exactly uniform.

    All C(n, t) marginals are binned into one (C(n, t), 2^t) table per
    chunk of the support walk (so n may reach PACKED_WIDTH when the seed
    space is small); rejected when that table, or C(n, t) gathers per walked
    outcome (`check_work`), exceed the work cap.  The report carries the
    worst subset (0-based) and its statistical distance from uniform.
    """
    n, t = integer(n), integer(t)
    if n != dist.n_good:
        raise DimensionError(f"distribution is over {dist.n_good} bits, not {n}")
    if not 1 <= t <= n:
        raise ValidationError(f"t={t} outside 1..{n}")
    what = "t-wise verification too large; shrink n or t"
    if math.comb(n, t) << t > cap:
        raise WorkCapExceeded(what, math.comb(n, t) << t, cap)
    counts, total = dist.walk(lambda goods, weights: np.fromiter(
        (np.bincount(gather_bits_vec(goods, subset).astype(np.int64), weights=weights,
                     minlength=1 << t) for subset in combinations(range(n), t)),
        (np.int64 if weights is None else np.float64, 1 << t), math.comb(n, t)),
        True, units=math.comb(n, t), cap=cap, what=what)
    worst_sd = 0.0
    worst_subset: tuple[int, ...] | None = None
    target = 1.0 / (1 << t)
    for subset, marg in zip(combinations(range(n), t), counts / total):
        sd = 0.5 * float(np.abs(marg - target).sum())
        if sd > worst_sd:
            worst_sd = sd
            worst_subset = subset
    return TwiseReport(ok=worst_sd <= 1e-12, worst_subset=worst_subset, worst_distance=worst_sd)


# ---------------------------------------------------------------------------
# Adversaries


class AdversaryStrategy:
    """Deterministic map from the realized good bits to the bad bits.

    Bad-bit results are packed with bit j = value at the j-th smallest bad
    position.  Strategies see only the good bits; the brute-force-worst
    search (in the extractor module) fixes its target before searching and
    resolves to an explicit table.
    """

    kind: str = "abstract"
    description: str = ""

    def bad_bits_batch(self, goods: np.ndarray, n_good: int, q: int) -> np.ndarray:
        """The packed q bad bits for each packed n_good-bit good outcome;
        either width above PACKED_WIDTH raises WorkCapExceeded."""
        check_packed(n_good, "packed good-bit width")
        check_packed(q, "packed bad-bit width")
        return self._bad_bits(goods, n_good, q)

    def _bad_bits(self, goods: np.ndarray, n_good: int, q: int) -> np.ndarray:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError


class ConstantAdversary(AdversaryStrategy):
    kind = "constant"

    def __init__(self, pattern: int = 0):
        if pattern < 0:
            raise ValidationError("pattern must be nonnegative")
        self.pattern = pattern
        self.description = f"constant bad-bit pattern 0b{pattern:b}"

    def _bad_bits(self, goods: np.ndarray, n_good: int, q: int) -> np.ndarray:
        if self.pattern >> q:
            raise ValidationError(f"constant pattern 0b{self.pattern:b} wider than q={q}")
        return np.full(goods.shape, self.pattern, dtype=np.uint64)

    def descriptor(self) -> dict:
        return {"kind": "constant", "pattern": self.pattern}


class ParityOfGood(AdversaryStrategy):
    """Every bad bit equals the parity of all good bits."""

    kind = "parity-of-good"
    description = "all bad bits = XOR of the good bits"

    def _bad_bits(self, goods: np.ndarray, n_good: int, q: int) -> np.ndarray:
        par = np.bitwise_count(goods.astype(np.uint64)).astype(np.uint64) & np.uint64(1)
        return par * np.uint64((1 << q) - 1)

    def descriptor(self) -> dict:
        return {"kind": "parity-of-good"}


class MajorityOfGood(AdversaryStrategy):
    """Every bad bit equals the strict majority of the good bits (ties -> 0)."""

    kind = "majority-of-good"
    description = "all bad bits = strict majority of the good bits"

    def _bad_bits(self, goods: np.ndarray, n_good: int, q: int) -> np.ndarray:
        maj = (2 * np.bitwise_count(goods.astype(np.uint64)) > n_good).astype(np.uint64)
        return maj * np.uint64((1 << q) - 1)

    def descriptor(self) -> dict:
        return {"kind": "majority-of-good"}


class TableAdversary(AdversaryStrategy):
    """Explicit function table good-outcome -> bad pattern.

    Missing entries (sentinel -1) are rejected at use, not silently zeroed;
    any other negative entry is refused here.
    The brute-force-worst search resolves to this class with its label and
    provenance attached.
    """

    def __init__(self, n_good: int, entries, label: str = "explicit-function-table",
                 provenance: dict | None = None):
        n_good = _table_width(n_good)
        size = 1 << n_good
        table = np.full(size, -1, dtype=np.int64)
        if isinstance(entries, dict):
            # JSON object keys are digit strings
            keys = [integer(int(k) if isinstance(k, str) and k.isascii() and k.isdigit()
                            else k) for k in entries]
            for k in keys:
                if not 0 <= k < size:
                    raise ValidationError(f"table key {k} outside 0..{size - 1}")
            table[keys] = integers(list(entries.values()))
        else:
            table = integers(entries)
            if table.shape != (size,):
                raise ValidationError(f"table must have 2^{n_good} entries, got {table.size}")
        if np.any(table < -1):  # -1 alone marks a missing entry
            g = int(np.argmax(table < -1))
            raise ValidationError(f"table entry {int(table[g])} for good outcome {g} is negative")
        self.kind = label
        self.n_good = n_good
        self.table = table
        self.provenance = provenance or {}
        self.description = label

    def _bad_bits(self, goods: np.ndarray, n_good: int, q: int) -> np.ndarray:
        if n_good != self.n_good:
            raise DimensionError(f"table is over {self.n_good} good bits, not {n_good}")
        vals = self.table[goods.astype(np.int64)]
        if np.any(vals < 0):
            missing = int(goods[np.argmax(vals < 0)])
            raise ValidationError(f"adversary table has no entry for good outcome {missing}")
        wide = (vals >> q) != 0
        if np.any(wide):
            raise ValidationError(f"table entry {int(vals[np.argmax(wide)])} wider than q={q}")
        return vals.astype(np.uint64)

    def descriptor(self) -> dict:
        d = {
            "kind": self.kind,
            "n_good": self.n_good,
            "table": [int(v) for v in self.table],
        }
        if self.provenance:
            d["provenance"] = self.provenance
        return d


@parse_errors("adversary")
def adversary_from_descriptor(d: dict) -> AdversaryStrategy:
    kind = d.get("kind")
    if kind == "constant":
        return ConstantAdversary(integer(d.get("pattern", 0)))
    if kind == "parity-of-good":
        return ParityOfGood()
    if kind == "majority-of-good":
        return MajorityOfGood()
    if kind in ("explicit-function-table", "brute-force-worst"):
        return TableAdversary(
            integer(d["n_good"]), d["table"], label=kind, provenance=d.get("provenance")
        )
    raise ValidationError(f"unknown adversary kind {kind!r}")


# ---------------------------------------------------------------------------
# The source spec and its oracles


class NobfSourceSpec:
    """Full description of a (q, t, gamma) non-oblivious bit-fixing source."""

    def __init__(self, n: int, bad_positions: Iterable[int],
                 good_dist: GoodBitDistribution,
                 adversary: AdversaryStrategy | None = None,
                 t: int | None = None, gamma: float = 0.0):
        if n < 1:
            raise ValidationError(f"a source needs n >= 1 bits, got n={n}")
        bad = tuple(sorted(set(map(integer, bad_positions))))
        if bad and (bad[0] < 0 or bad[-1] >= n):
            raise ValidationError(f"bad positions outside 0..{n - 1}: {bad}")
        q = len(bad)
        if good_dist.n_good != n - q:
            raise DimensionError(
                f"good distribution covers {good_dist.n_good} bits but n - q = {n - q}"
            )
        if adversary is None:
            adversary = ConstantAdversary(0)
        if t is None:
            t = good_dist.claimed_twise() or 0
        if t < 0 or t > n - q:
            raise ValidationError(f"t={t} violates 0 <= t <= n - q = {n - q}")
        claimed = good_dist.claimed_twise()
        if claimed is not None and t > claimed:
            raise ValidationError(
                f"t={t} exceeds the generator's guaranteed independence {claimed}"
            )
        if not 0 <= gamma < math.inf:
            raise ValidationError(f"gamma must be finite and nonnegative, got {gamma}")
        badset = set(bad)
        self.n = n
        self.bad_positions = bad
        self.good_positions = tuple(i for i in range(n) if i not in badset)
        self.good_dist = good_dist
        self.adversary = adversary
        self.t = t
        self.gamma = float(gamma)

    @property
    def q(self) -> int:
        return len(self.bad_positions)

    def compose_batch(self, goods: np.ndarray, bads: np.ndarray) -> np.ndarray:
        return scatter_bits_vec(goods, self.good_positions) | scatter_bits_vec(
            bads, self.bad_positions
        )

    def to_descriptor(self) -> dict:
        return {
            "format": "nobf-source-spec",
            "version": 1,
            "n": self.n,
            "bad_positions": list(self.bad_positions),
            "good_dist": self.good_dist.descriptor(),
            "adversary": self.adversary.descriptor(),
            "t": self.t,
            "gamma": self.gamma,
        }

    @classmethod
    @parse_errors("source spec")
    def from_descriptor(cls, d: dict) -> "NobfSourceSpec":
        """A spec document or a gen-source config (bad_positions default [])."""
        if d.get("format") not in (None, "nobf-source-spec"):
            raise ValidationError(f"not a source spec: format={d.get('format')!r}")
        return cls(
            n=integer(d["n"]),
            bad_positions=d.get("bad_positions", []),
            good_dist=good_dist_from_descriptor(d["good_dist"]),
            adversary=adversary_from_descriptor(d["adversary"]) if "adversary" in d else None,
            t=integer(d["t"]) if "t" in d else None,
            gamma=float(d.get("gamma", 0.0)),
        )


def sample_nobf_batch(spec: NobfSourceSpec, seed: int, count: int,
                      stream: int = 0, start: int = 0) -> np.ndarray:
    """count samples addressed by (seed, stream, start..); identical results
    for any chunking of the counter range."""
    check_packed(spec.n, "packed sampling width")
    goods = spec.good_dist.sample_batch(seed, stream, start, count)
    bads = spec.adversary.bad_bits_batch(goods, spec.n - spec.q, spec.q)
    return spec.compose_batch(goods, bads)


def enumerate_nobf(spec: NobfSourceSpec) -> Distribution:
    """Exact probability table of the full n-bit source.

    The composed inputs are binned over the good-bit support walk.  The
    result is a table of 2^n entries, so n is capped at ENUM_N_CAP (24)
    besides the walk's seed-space cap; the extractor's oracles walk the
    support themselves and build no such table.
    """
    if spec.n > ENUM_N_CAP:
        raise WorkCapExceeded("source too wide to enumerate", 2 ** spec.n, 2 ** ENUM_N_CAP)
    n_good = spec.n - spec.q
    return Distribution.exact(spec.n, spec.good_dist.table_of(
        lambda goods: spec.compose_batch(
            goods, spec.adversary.bad_bits_batch(goods, n_good, spec.q)),
        1 << spec.n))


def zeroed_counterpart(spec: NobfSourceSpec) -> NobfSourceSpec:
    """The same source with the bad bits pinned to 0, independent of the
    good bits (the comparison source used throughout the analysis)."""
    return NobfSourceSpec(
        n=spec.n,
        bad_positions=spec.bad_positions,
        good_dist=spec.good_dist,
        adversary=ConstantAdversary(0),
        t=spec.t,
        gamma=spec.gamma,
    )


# ---------------------------------------------------------------------------
# Sample-batch files: one JSON header line, then hex strings (LSB nibble first)


def write_sample_batch(path, spec: NobfSourceSpec, samples: np.ndarray, seed: int,
                       stream: int = 0) -> None:
    header = {
        "count": int(samples.size),
        "format": "nobf-samples",
        "n": spec.n,
        "seed": int(seed),
        "stream": int(stream),
    }
    chars = hex_chars(samples, spec.n)
    lines = np.column_stack([chars, np.full(len(chars), ord("\n"), dtype=np.uint8)])
    with staged_outputs() as stage, open(stage(path), "w") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        fh.write(lines.tobytes().decode("ascii"))


def read_sample_batch(path) -> tuple[dict, np.ndarray]:
    header_line, _, body = read_text(path).partition("\n")
    header = parse_json(header_line, f"sample header in {path}")
    if not isinstance(header, dict) or header.get("format") != "nobf-samples":
        raise ValidationError(f"{path} is not a nobf-samples file")
    validate_document(header)
    n = int(header["n"])
    check_packed(n, "packed sample width")
    hexes = list(filter(None, map(str.strip, body.split("\n"))))
    samples = words_from_hex(hexes, n)[:, 0]
    if samples.size != header["count"]:
        raise ValidationError("sample count does not match header")
    return header, samples
