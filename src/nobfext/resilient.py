"""Boolean functions with measurable bias and coalition influence.

A coalition Q is influential on a fixing of the remaining coordinates when
both output values stay attainable by varying the Q-coordinates; the
influence of Q is the probability of that event over a random fixing.
Majority, tribes, and recursive majority are provided as concrete
functions whose bias and influence are classical and small enough to
enumerate; an explicit-table function lets anything else plug in, its
truth table written as one 2^arity-bit value in the `bitops` hex codec.

Each function has one evaluator, `eval_batch`, on packed inputs of any
arity in the word layout of `nobfext.bitops` ((N, W) uint64 words, or a
1-D array when the arity is at most 64).
The influence and undetermination scans pack their inputs one word each,
so they take arities up to PACKED_WIDTH.  Majority, tribes and recursive
majority are monotone (Ben-Or and Linial 1985), marked by the class
attribute `monotone`; for them a coalition is undetermined exactly when f
differs between the coalition all 0 and all 1, two evaluations whatever
its size.  Other functions are scanned over all 2^|Q| coalition patterns.
A batch of more than 2^|rest| fixings is read from one scan over every fixing;
`_scan_evals` keeps the direct scan's units, so `--max-enum` refusals stay.
`influence_max_exact` reads every coalition of a monotone f on uniform
fixings from two subset-sum tables of its truth table, when the table's
2^arity evaluations are within the walks' units; those units are checked
either way, so refusals stay.  Other fixings and functions walk.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, partial
from typing import TYPE_CHECKING

import numpy as np

from . import prng
from .bitops import (as_words, check_packed, hex_from_words, popcount, scatter_bits_vec,
                     shift_right, words_from_hex, words_from_ints)
from .errors import (DEFAULT_WORK_CAP, DimensionError, ValidationError, WorkCapExceeded,
                     parse_errors)
from .schemas import check_count, integer
from .sources import Distribution, GoodBitDistribution, UniformBits, mass

if TYPE_CHECKING:
    from .stats import Estimate

TABLE_ARITY_CAP = 20
SCAN_BITS_CAP = 20  # coalition size of the 2^|Q| scan of a non-monotone f
SUBSET_ENUM_CAP = 10 ** 6


class ResilientFunction:
    """Total deterministic boolean function on {0,1}^arity."""

    arity: int
    kind: str
    monotone: bool = False  # True only where monotone for every instance

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        """One uint8 value per packed input: (N, W) words, W = ceil(arity/64),
        or a 1-D array when arity <= PACKED_WIDTH."""
        raise NotImplementedError

    def _words(self, xs) -> np.ndarray:
        return as_words(xs, self.arity, "packed block arity")

    def truth_table(self) -> np.ndarray:
        if self.arity > TABLE_ARITY_CAP:
            raise WorkCapExceeded(required=1 << self.arity,
                                  cap=1 << TABLE_ARITY_CAP,
                                  what="truth table size")
        return self.eval_batch(np.arange(1 << self.arity, dtype=np.uint64))

    @cached_property
    def _values(self) -> np.ndarray:
        """`truth_table()` as uint64, built once per instance."""
        return self.truth_table().astype(np.uint64)

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(arity={self.arity})"


class Majority(ResilientFunction):
    """Strict majority; even arities are rejected rather than tie-broken."""

    kind = "majority"
    monotone = True

    def __init__(self, arity: int):
        arity = integer(arity)
        if arity < 1 or arity % 2 == 0:
            raise ValidationError("majority needs odd arity >= 1")
        self.arity = arity

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        return (popcount(self._words(xs)) > self.arity // 2).astype(np.uint8)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "arity": self.arity}


class Tribes(ResilientFunction):
    """OR of s disjoint ANDs of width w (arity = w * s).

    All tribes are tested at once: after ANDing the input with its shifts
    by 1..w-1 (log2 w doubling steps, each a shift across words), bit i*w
    is set exactly when tribe i is all ones.  The instance keeps no
    per-tribe state.
    """

    kind = "tribes"
    monotone = True

    def __init__(self, w: int, s: int):
        w, s = integer(w), integer(s)
        if w < 1 or s < 1:
            raise ValidationError("tribes needs w >= 1 and s >= 1")
        self.w = w
        self.s = s
        self.arity = w * s

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        x = self._words(xs)  # ends with bit p set where bits p..p+w-1 all are
        span = 1
        while 2 * span <= self.w:
            x = x & shift_right(x, span)
            span *= 2
        x = x & shift_right(x, self.w - span)
        starts = ((1 << self.arity) - 1) // ((1 << self.w) - 1)  # bit i*w, i < s
        return (popcount(x & words_from_ints([starts], self.arity)) > 0).astype(np.uint8)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "w": self.w, "s": self.s}


class RecursiveMajority3(ResilientFunction):
    """Depth-d ternary majority tree on 3^d leaves (depth 1 = majority-3).

    Bit-sliced: step k = 0..d-1 replaces bit p by the majority of bits p,
    p + 3^k and p + 2*3^k, so after d steps bit 0 is the root.
    """

    kind = "recursive-majority-3"
    monotone = True

    def __init__(self, depth: int):
        depth = integer(depth)
        if depth < 1:
            raise ValidationError("depth must be >= 1")
        self.depth = depth
        self.arity = 3 ** depth

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        x = self._words(xs)
        step = 1
        for _ in range(self.depth):
            # maj(x, a, b) = b ^ ((a ^ b) & (x ^ b)) in place, so that at most
            # three input-sized arrays are alive at once
            a = shift_right(x, step)
            b = shift_right(a, step)
            a ^= b
            b ^= x
            a &= b
            a ^= b
            a ^= x
            del b
            x = a
            step *= 3
        return x[:, 0].astype(np.uint8) & np.uint8(1)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "depth": self.depth}


class TableFunction(ResilientFunction):
    """Explicit truth table, the escape hatch for everything else."""

    kind = "explicit-table"

    def __init__(self, arity: int, table):
        arity = integer(arity)
        if not 0 <= arity <= TABLE_ARITY_CAP:
            raise ValidationError(f"explicit table arity capped at {TABLE_ARITY_CAP}")
        tab = np.asarray(table, dtype=np.uint8)
        if tab.size != 1 << arity:
            raise DimensionError("table length must be 2^arity")
        if tab.max(initial=0) > 1:
            raise ValidationError("table entries must be bits")
        self.arity = arity
        self._table = tab

    @classmethod
    def from_values_hex(cls, arity: int, s: str) -> "TableFunction":
        n = 1 << integer(arity)
        raw = words_from_hex([s], n).astype("<u8").view(np.uint8)
        return cls(arity, np.unpackbits(raw, count=n, bitorder="little"))

    @classmethod
    def constant(cls, arity: int, value: int) -> "TableFunction":
        arity = integer(arity)  # clamped below, so that __init__ refuses it, not the shift
        return cls(arity, np.full(1 << min(max(arity, 0), TABLE_ARITY_CAP), value & 1,
                                  dtype=np.uint8))

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        return self._table[self._words(xs)[:, 0].astype(np.int64)]

    def truth_table(self) -> np.ndarray:
        return self._table.copy()

    def descriptor(self) -> dict:
        n = 1 << self.arity
        packed = np.packbits(self._table, bitorder="little").tobytes()
        return {"kind": self.kind, "arity": self.arity, "table_hex": hex_from_words(
            words_from_ints([int.from_bytes(packed, "little")], n), n)[0]}


@parse_errors("block function")
def function_from_descriptor(d: dict) -> ResilientFunction:
    kind = d.get("kind")
    if kind == "majority":
        return Majority(d["arity"])
    if kind == "tribes":
        return Tribes(d["w"], d["s"])
    if kind == "recursive-majority-3":
        return RecursiveMajority3(d["depth"])
    if kind == "explicit-table":
        return TableFunction.from_values_hex(d["arity"], d["table_hex"])
    raise ValidationError(f"unknown function kind {kind!r}")


def is_monotone(f: ResilientFunction) -> bool:
    """True when no single 0->1 input flip can drop the output."""
    t = f.truth_table()
    idx = np.arange(t.size, dtype=np.int64)
    for j in range(f.arity):
        clear = idx[(idx >> j) & 1 == 0]
        if np.any(t[clear | (1 << j)] < t[clear]):
            return False
    return True


def bias_under(f: ResilientFunction, d: Distribution):
    """|E_D[f] - 1/2|; exact float for table distributions, an Estimate
    with a 99% interval for empirical ones."""
    if d.m != f.arity:
        raise DimensionError(f"distribution width {d.m} != arity {f.arity}")
    if d.is_exact:
        p1 = float(np.dot(f.truth_table().astype(np.float64), d.as_table()))
        return abs(p1 - 0.5)
    from .stats import Estimate, binomial_estimate
    samples = np.asarray(d.samples, dtype=np.uint64)
    vals = f.eval_batch(samples)
    est = binomial_estimate(int(vals.sum()), vals.size, confidence=0.99)
    lo = 0.0 if est.lo <= 0.5 <= est.hi else min(abs(est.lo - 0.5), abs(est.hi - 0.5))
    hi = max(abs(est.lo - 0.5), abs(est.hi - 0.5))
    return Estimate(value=abs(est.value - 0.5), lo=lo, hi=hi,
                    samples=est.samples, confidence=0.99, method="clopper-pearson")


def _coalition(f: ResilientFunction, q_set,
               d_good: GoodBitDistribution) -> tuple[list[int], list[int]]:
    """The sorted coalition positions and the rest, checked against f's
    arity and, for a nonempty coalition, against the fixing width."""
    qpos = sorted(set(check_count(i, "coalition position") for i in q_set))
    if qpos and (qpos[0] < 0 or qpos[-1] >= f.arity):
        raise ValidationError("coalition positions outside 0..arity-1")
    rest = [i for i in range(f.arity) if i not in set(qpos)]
    if qpos and d_good.n_good != len(rest):
        raise DimensionError(
            f"fixing distribution covers {d_good.n_good} coordinates, "
            f"need {len(rest)}")
    return qpos, rest


def _scan_evals(f: ResilientFunction, k: int) -> int:
    """Evaluations of f per fixing that `_undetermined_mask` makes for a
    coalition of k coordinates."""
    return 2 if f.monotone else 1 << k


def _undetermined_mask(f: ResilientFunction, qpos: list[int], rest: list[int],
                       fixings: np.ndarray) -> np.ndarray:
    """Boolean mask over `fixings` (packed bits of the rest-coordinates):
    True where varying the qpos-coordinates can still produce both outputs.

    A monotone f takes its least value with the coalition all 0 and its
    greatest with it all 1, so two evaluations decide; any other f is
    evaluated on all 2^|Q| patterns (WorkCapExceeded above SCAN_BITS_CAP
    coordinates).  A batch of more than the 2^|rest| distinct fixings is
    read from one scan over all of them, so f is evaluated no more often;
    `_scan_evals` still counts the direct scan, so refusals stay the same."""
    check_packed(f.arity, "packed block arity")
    if len(fixings) > 1 << len(rest):
        table = _undetermined_mask(f, qpos, rest, np.arange(1 << len(rest), dtype=np.uint64))
        return table[fixings.astype(np.intp)]
    base = scatter_bits_vec(fixings, rest)
    if f.monotone:
        ones = np.uint64(sum(1 << p for p in qpos))
        return f.eval_batch(base) != f.eval_batch(base | ones)
    if len(qpos) > SCAN_BITS_CAP:
        raise WorkCapExceeded(required=1 << len(qpos), cap=1 << SCAN_BITS_CAP,
                              what="undetermination scan")
    patterns = scatter_bits_vec(np.arange(1 << len(qpos), dtype=np.uint64), qpos)
    any0 = np.zeros(fixings.shape, dtype=bool)
    any1 = np.zeros(fixings.shape, dtype=bool)
    for pattern in patterns:
        vals = f.eval_batch(base | pattern).astype(bool)
        any1 |= vals
        any0 |= ~vals
    return any0 & any1


def _undetermined_lookup(f: ResilientFunction, qpos: list[int], rest: list[int]):
    """`_undetermined_mask` over a walk's fixings, read from one table of
    all 2^|rest| fixings, built now, when that costs at most
    prng.DRAW_CHUNK evaluations of f, so no piece rebuilds it."""
    if _scan_evals(f, len(qpos)) << len(rest) > prng.DRAW_CHUNK:
        return partial(_undetermined_mask, f, qpos, rest)
    table = _undetermined_mask(f, qpos, rest, np.arange(1 << len(rest), dtype=np.uint64))
    return lambda fixings: table[fixings.astype(np.intp)]


def _undetermined_mass(f: ResilientFunction, qpos: list[int], rest: list[int]):
    """The `GoodBitDistribution.walk` kernel of the influence oracles."""
    return lambda fixings, weights: mass(_undetermined_mask(f, qpos, rest, fixings), weights)


def influence_exact(f: ResilientFunction, q_set, d_good: GoodBitDistribution,
                    cap: int = DEFAULT_WORK_CAP) -> float:
    """Probability over d_good-fixings of the non-coalition coordinates
    that f's value still depends on the coalition, summed over the
    support walk of d_good (no table of its outcomes is built)."""
    qpos, rest = _coalition(f, q_set, d_good)
    if not qpos:
        return 0.0
    hits, total = d_good.walk(_undetermined_mass(f, qpos, rest), True,
                              units=_scan_evals(f, len(qpos)), cap=cap,
                              what="influence enumeration")
    return hits / total


def influence_max_exact(f: ResilientFunction, q: int,
                        d_good_family: GoodBitDistribution,
                        cap: int = DEFAULT_WORK_CAP) -> tuple[float, tuple[int, ...]]:
    """Maximum influence over all size-q coalitions, with a maximizing set.

    The same fixing distribution is reused for every coalition, its
    coordinates mapped onto the non-coalition positions in increasing
    order.  The work of all C(arity, q) coalition walks together is
    checked against the cap before the first one.  Uniform fixings of a
    monotone f leave Q undetermined on up[Q] - down[~Q] of them, where up
    and down sum f's truth table over supersets and subsets (Yates 1937).
    """
    q = check_count(q, "coalition size")
    if not 0 <= q <= f.arity:
        raise ValidationError("coalition size outside 0..arity")
    if q == 0:
        return 0.0, ()
    n_subsets = math.comb(f.arity, q)
    if n_subsets > SUBSET_ENUM_CAP:
        raise WorkCapExceeded(required=n_subsets, cap=SUBSET_ENUM_CAP,
                              what="coalition enumeration (use influence_mc)")
    _coalition(f, range(q), d_good_family)
    units = n_subsets * _scan_evals(f, q)
    d_good_family.check_work(units, cap, "coalition influence enumeration")
    if (f.monotone and isinstance(d_good_family, UniformBits)
            and f.arity <= TABLE_ARITY_CAP
            and 1 << f.arity <= units * d_good_family.support_size):
        up = f.truth_table().astype(np.int64)
        down = up.copy()
        for j in range(f.arity):  # zeta transforms: sums over supersets, subsets
            up.reshape(-1, 2, 1 << j)[:, 0] += up.reshape(-1, 2, 1 << j)[:, 1]
            down.reshape(-1, 2, 1 << j)[:, 1] += down.reshape(-1, 2, 1 << j)[:, 0]
        full = (1 << f.arity) - 1

        def influence(subset):
            ones = sum(1 << i for i in subset)
            return int(up[ones] - down[full ^ ones]) / d_good_family.support_total
    else:
        def influence(subset):
            return influence_exact(f, subset, d_good_family, cap)
    best = -1.0
    witness: tuple[int, ...] = ()
    for subset in itertools.combinations(range(f.arity), q):
        val = influence(subset)
        if val > best:
            best, witness = val, subset
            if best >= 1.0:
                break
    return best, witness


def influence_mc(f: ResilientFunction, q_set, d_good: GoodBitDistribution,
                 samples: int, seed: int, workers: int = 1) -> Estimate:
    """Monte-Carlo influence with a 99% Clopper-Pearson interval, drawn on
    `workers` threads (the result does not depend on the count)."""
    from .stats import Estimate, binomial_estimate
    qpos, rest = _coalition(f, q_set, d_good)
    if not qpos:
        return Estimate(value=0.0, lo=0.0, hi=0.0, samples=samples,
                        confidence=1.0, method="exact")
    hits, _ = d_good.walk(_undetermined_mass(f, qpos, rest), False, seed, samples, workers)
    return binomial_estimate(hits, samples, confidence=0.99)


def default_block_function(arity: int) -> ResilientFunction:
    """Majority for odd arities, two-wide tribes for even ones."""
    if arity % 2 == 1:
        return Majority(arity)
    return Tribes(2, arity // 2)

