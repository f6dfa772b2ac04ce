"""Block-partition extractor and its proof-mirroring diagnostics.

Pipeline: split the n-bit input into ell blocks of block_len bits, apply
one boolean function f per block to get y, keep the first r coordinates,
and compress through an [r, m, d] generator matrix: z = G y_used.  Each
step is one batch kernel on packed words of any width (`bitops.bit_field`,
`f.eval_batch`, `codes.compress_batch`); `extract_batch` and
`trace_columns` (every step's hex characters, as matrices) run them over a
batch, and `trace_batch` gives those as `trace_document`s.

The diagnostics quantify the two steps the analysis rests on: the
probability that every block's output is already determined by the good
bits alone (fixedness), and the statistical distance between the output
and the output of the same source with its bad bits pinned to zero.

Exact compare-zeroed walks over a GF(2)-linear generator (UniformBits,
ExactTwise) run on bit planes of 64 seeds a word (`plane_pair_counts`).
Sampled walks, other generators and block arities above PLANE_ARITY_CAP
(at 9 the planes lost to the packed kernel for Majority and a random
table) keep `zeroed_pair_counts`.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .bitops import (PACKED_WIDTH, as_words, bit_field, check_packed, hex_chars, n_words,
                     scatter_bits_vec)
from .codes import LinearCode, build_good_code, compress_batch, preset_code
from .errors import (DEFAULT_WORK_CAP, DimensionError, Frozen, Record, SearchBudgetExceeded,
                     ValidationError, WorkCapExceeded, parse_errors)
from .resilient import (TABLE_ARITY_CAP, ResilientFunction, _undetermined_walk,
                        default_block_function, function_from_descriptor, subset_sums)
from .schemas import check_count, integer, real
from .sources import ENUM_SEED_BITS_CAP, Distribution, NobfSourceSpec, TableAdversary

if TYPE_CHECKING:
    from .stats import Estimate

ASCENT_STEP_CAP = 1 << 16   # table entries x patterns per ascent sweep
PLANE_ARITY_CAP = 8         # block arity above which exact walks stay packed
TRANSFORM_M_CAP = 4         # output width above which the adversary search ascends
ADVERSARY_PIECE = 1 << 14   # good outcomes per extract call of the adversary search
DEFAULT_SWEEPS = 64


def _floor_nudged(formula) -> int:
    """floor(formula(ctx, Decimal) + 1e-30) at 60 digits, or 60 after the point
    for a value of 30 or more integer digits: a hair under an integer counts
    as the integer.  decimal loads here, so only derived parameters pay for it."""
    from decimal import ROUND_FLOOR, Context, Decimal

    ctx = Context(prec=60)
    value = formula(ctx, Decimal)
    if value.adjusted() >= 29:
        ctx = Context(prec=value.adjusted() + 61)
        value = formula(ctx, Decimal)
    return int(ctx.add(value, Decimal("1e-30")).to_integral_value(ROUND_FLOOR))


def _floor_pow(base: int, expo: float) -> int:
    """floor(base**expo), as `_floor_nudged`; a float converts to Decimal exactly."""
    return _floor_nudged(lambda ctx, D: ctx.power(D(base), D(expo)))


def _derived_m(n: int, alpha: float, t: int, beta: float) -> int:
    """max(1, floor(min(n^{0.9 alpha}, beta t^{1/21}))), as `_floor_pow`."""
    return max(1, _floor_nudged(lambda ctx, D: min(
        ctx.power(D(n), D(0.9 * alpha)),
        ctx.multiply(D(beta), ctx.power(D(t), ctx.divide(1, 21))))))


class BfextParams(Record):
    __slots__ = ("n", "ell", "block_len", "code", "f", "mode", "delta", "alpha", "beta", "t")

    def __init__(self, n: int, ell: int, block_len: int, code: LinearCode, f: ResilientFunction,
                 mode: str = "explicit", delta: float | None = None,
                 alpha: float | None = None, beta: float | None = None, t: int | None = None):
        super().__init__(*map(integer, (n, ell, block_len)), code, f, mode, delta, alpha, beta, t)
        if self.n < 1 or self.ell < 1 or self.block_len < 1:
            raise ValidationError("n, ell, block_len must all be >= 1")
        if self.ell * self.block_len > self.n:
            raise ValidationError(
                f"ell * block_len = {self.ell * self.block_len} exceeds n = {self.n}")
        if self.code.r > self.ell:
            raise ValidationError(
                f"code length r = {self.code.r} exceeds block count ell = {self.ell}")
        if self.code.verified_d < 1:
            raise ValidationError("code distance is unverified; refusing to extract")
        if self.f.arity != self.block_len:
            raise DimensionError(
                f"block function arity {self.f.arity} != block_len {self.block_len}")
        if self.mode not in ("derived", "explicit"):
            raise ValidationError("mode must be 'derived' or 'explicit'")
        if self.mode == "derived":
            if self.delta is None or not 0 < self.delta < 1:
                raise ValidationError("derived mode needs 0 < delta < 1")
            if self.alpha is None or abs(self.alpha - self.delta / 4) > 1e-15:
                raise ValidationError("derived mode fixes alpha = delta / 4")
            if self.ell != _floor_pow(self.n, self.alpha):
                raise ValidationError("derived mode fixes ell = floor(n^alpha)")

    @property
    def m(self) -> int:
        return self.code.m

    @property
    def r(self) -> int:
        return self.code.r

    def to_json(self) -> dict:
        return {
            "format": "bfext-params",
            "version": 1,
            "mode": self.mode,
            "n": self.n,
            "ell": self.ell,
            "block_len": self.block_len,
            "delta": self.delta,
            "alpha": self.alpha,
            "beta": self.beta,
            "t": self.t,
            "code": self.code.to_json(),
            "f": self.f.descriptor(),
        }

    @classmethod
    @parse_errors("bfext params")
    def from_json(cls, obj: dict) -> "BfextParams":
        if obj.get("format") != "bfext-params":
            raise ValidationError("not a bfext-params object")
        return cls(n=integer(obj["n"]), ell=integer(obj["ell"]),
                   block_len=integer(obj["block_len"]),
                   code=LinearCode.from_json(obj["code"]),
                   f=function_from_descriptor(obj["f"]),
                   mode=obj.get("mode", "explicit"),
                   delta=obj.get("delta"), alpha=obj.get("alpha"),
                   beta=obj.get("beta"), t=obj.get("t"))


def explicit_params(n: int, ell: int, block_len: int, code: LinearCode,
                    f: ResilientFunction) -> BfextParams:
    return BfextParams(n=n, ell=ell, block_len=block_len, code=code, f=f,
                       mode="explicit")


def _default_code_builder(m: int, ell: int) -> LinearCode:
    """The first of 256 seeded attempts that reaches the best distance."""
    if m == 1:
        return preset_code(f"repetition-{ell}")
    try:
        return build_good_code(m, ell, ell - m + 1, seed=0, attempts=256)
    except SearchBudgetExceeded as exc:
        if exc.best is None:
            raise ValidationError(f"no [{ell},{m}] code found") from exc
        exc.best.construction["target_d"] = exc.best.verified_d
        return exc.best


def derive_params(n: int, delta: float, t: int, beta: float = 1.0) -> BfextParams:
    """Parameters from (n, delta, t): alpha = delta/4, ell = floor(n^alpha),
    block_len = floor(n/ell), m = max(1, floor(min(n^{0.9 alpha},
    beta t^{1/21}))).

    At desk scale the m formula almost always gives 1 (the t^{1/21} term
    needs astronomically large t to exceed 2); explicit parameters exist
    for exactly that reason.  The block function is
    `default_block_function(block_len)`, the code
    `_default_code_builder(m, ell)`.
    """
    n, delta, t, beta = integer(n), real(delta, "delta"), integer(t), real(beta, "beta")
    if not 0 < delta < 1:
        raise ValidationError("need 0 < delta < 1")
    if t < 1:
        raise ValidationError("need t >= 1")
    if n < 1:
        raise ValidationError("need n >= 1")
    if beta <= 0:
        raise ValidationError("need beta > 0")
    alpha = delta / 4.0
    ell = _floor_pow(n, alpha)
    if ell < 1:
        raise ValidationError("block count came out below 1")
    block_len = n // ell
    return BfextParams(n=n, ell=ell, block_len=block_len, f=default_block_function(block_len),
                       code=_default_code_builder(_derived_m(n, alpha, t, beta), ell),
                       mode="derived", delta=delta, alpha=alpha, beta=beta, t=t)


def _block_bits(x: np.ndarray, params: BfextParams, blocks) -> np.ndarray:
    """(N, n_words(ell)) words of (N, W) input words holding f of each
    block in `blocks` at its index, every other bit zero; read from f's
    truth table when it has no more entries than the batch has inputs."""
    bl, f = params.block_len, params.f
    table = f._values if bl <= TABLE_ARITY_CAP and 1 << bl <= len(x) else None
    y = np.zeros((len(x), n_words(params.ell)), dtype=np.uint64)
    for i in blocks:  # one name, so that no block's arrays outlive the next read
        values = bit_field(x, i * bl, bl)
        values = (f.eval_batch(values).astype(np.uint64) if table is None
                  else table.take(values[:, 0].view(np.intp)))
        values <<= np.uint64(i % PACKED_WIDTH)
        y[:, i // PACKED_WIDTH] |= values
    return y


def _block_and_compress(x: np.ndarray, params: BfextParams):
    """y, y_used and z words of (N, W) input words."""
    y = _block_bits(x, params, range(params.ell))
    y_used = bit_field(y, 0, params.r)
    return y, y_used, compress_batch(params.code, y_used)


def extract_batch(xs: np.ndarray, params: BfextParams) -> np.ndarray:
    """z for packed inputs of any n: (N, W) words give (N, n_words(m))
    words, and a 1-D uint64 array (n <= PACKED_WIDTH) gives a 1-D z."""
    z = _block_and_compress(as_words(xs, params.n, "packed batch source length"),
                            params)[2]
    return z if np.ndim(xs) == 2 else z[:, 0]


def trace_document(block_len: int, ell: int, r: int, m: int,
                   fields: Sequence[str]) -> dict:
    """The extraction-trace document with the hex fields `fields`: the
    blocks, then y, y_used and z, as `trace_columns` gives them and as the
    document's sorted keys hold them."""
    *blocks, y, y_used, z = fields
    return {"format": "extraction-trace", "version": 1, "block_len": block_len,
            "ell": ell, "r": r, "m": m, "blocks": blocks,
            "y": y, "y_used": y_used, "z": z}


def trace_columns(xs: np.ndarray, params: BfextParams) -> list[np.ndarray]:
    """The hex fields of the trace of each packed input (1-D or (N, W)
    words) as (N, digits) character matrices (`bitops.hex_chars`): the ell
    blocks, then y, y_used and z."""
    x = as_words(xs, params.n, "packed batch source length")
    y, y_used, z = _block_and_compress(x, params)
    bl = params.block_len
    return ([hex_chars(bit_field(x, i * bl, bl), bl) for i in range(params.ell)]
            + [hex_chars(y, params.ell), hex_chars(y_used, params.r),
               hex_chars(z, params.m)])


def trace_batch(xs: np.ndarray, params: BfextParams) -> list[dict]:
    """The `trace_document` of each packed input (1-D or (N, W) words)."""
    columns = [[row.tobytes().decode("ascii") for row in c]
               for c in trace_columns(xs, params)]
    return [trace_document(params.block_len, params.ell, params.r, params.m, fields)
            for fields in zip(*columns)]


def _tally(zs: np.ndarray, xs: np.ndarray, weights: np.ndarray | None,
           m: int) -> np.ndarray:
    """Counts over the 2^m outputs zs of the packed inputs xs, each input
    weighing one, or its weight.

    Float weights (explicit good-bit tables) are added in increasing order
    of the input x, in windows of 2^20 values of x.  Float sums round by
    their order, so the order is fixed: it is the one the output documents
    of explicit tables have been computed in."""
    size = 1 << m
    if weights is None:
        return np.bincount(zs.astype(np.int64), minlength=size)
    order = np.argsort(xs)
    window = xs[order] >> np.uint64(20)
    z, w = zs[order].astype(np.int64), weights[order]
    counts = np.zeros(size)
    for k in np.unique(window):
        counts += np.bincount(z[window == k], weights=w[window == k], minlength=size)
    return counts


def output_distribution(spec: NobfSourceSpec, params: BfextParams,
                        cap: int = DEFAULT_WORK_CAP) -> Distribution:
    """Exact distribution of z under the source: the outputs of the
    good-bit support walk, binned chunk by chunk.  No table of 2^n inputs
    is built; the walk bounds the seed space (at most 2^24 seeds) and the
    packed width (n <= 64), and its ell block evaluations per outcome are
    checked against `cap`."""
    if spec.n != params.n:
        raise DimensionError("source length does not match parameters")
    check_packed(spec.n, "packed source width")

    def tally(goods, weights):
        xs = spec.compose_batch(
            goods, spec.adversary.bad_bits_batch(goods, spec.n - spec.q, spec.q))
        return _tally(extract_batch(xs, params), xs, weights, params.m)

    counts, total = spec.good_dist.walk(tally, True, units=params.ell, cap=cap,
                                        what="output distribution enumeration")
    return Distribution.exact(params.m, counts / total)


def _block_layout(spec: NobfSourceSpec, params: BfextParams):
    """The coalition of each block that holds a bad bit, as
    `_undetermined_walk` takes it: (the indices of the block's good bits
    among all good bits, the offsets of its bad bits, of its good bits)."""
    index = {p: k for k, p in enumerate(spec.good_positions)}
    layout = []
    for lo in range(0, params.ell * params.block_len, params.block_len):
        block = range(lo, lo + params.block_len)
        bads = [p - lo for p in block if p not in index]
        if bads:
            layout.append(([index[p] for p in block if p in index], bads,
                           [p - lo for p in block if p in index]))
    return layout


def _exact_good_enumeration_ok(spec: NobfSourceSpec) -> bool:
    """True when the exact oracles can walk the good-bit support: at most
    2^ENUM_SEED_BITS_CAP seeds (explicit tables always qualify) and inputs
    that fit one packed word."""
    bits = spec.good_dist.seed_bits
    return spec.n <= PACKED_WIDTH and (bits is None or bits <= ENUM_SEED_BITS_CAP)


def fixedness_probability(spec: NobfSourceSpec, params: BfextParams,
                          seed: int | None = None,
                          samples: int | None = None,
                          force_mc: bool = False,
                          workers: int = 1,
                          cap: int = DEFAULT_WORK_CAP) -> Estimate:
    """Probability that every block's output is determined by the good
    bits alone, i.e. no assignment of the bad bits can change any Y_i.

    Exact over the good-bit support walk when it is feasible (see
    `_exact_good_enumeration_ok`), otherwise Monte Carlo over good-bit
    samples with a 99% binomial interval, drawn on `workers` threads (the
    result does not depend on the count).  An exact walk whose block scans
    exceed `cap` raises WorkCapExceeded.  Each bad block is a coalition of
    `_undetermined_walk`: its bad bits against the block's good bits.
    """
    from .stats import Estimate, binomial_estimate
    if spec.n != params.n:
        raise DimensionError("source length does not match parameters")
    layout, what = _block_layout(spec, params), "fixedness enumeration"
    exact = not force_mc and _exact_good_enumeration_ok(spec)
    if not layout:
        spec.good_dist._visited(exact, seed, samples, workers, 0, cap, what)
        return Estimate.exact_value(1.0)
    undetermined, total = _undetermined_walk(params.f, spec.good_dist, layout, exact, seed,
                                             samples, workers, cap, what)
    if exact:
        return Estimate.exact_value(1.0 - undetermined / total)
    return binomial_estimate(samples - undetermined, samples, confidence=0.99)


class CompareZeroedReport(Frozen):
    """Distance between the extractor output on the source and on its
    zeroed counterpart (same good bits, bad bits pinned to zero)."""

    __slots__ = ("sd", "exact", "m", "mismatch_rate")

    def __init__(self, sd: Estimate, exact: bool, m: int, mismatch_rate: float | None = None):
        super().__init__(sd, exact, m, mismatch_rate)


def compare_zeroed(spec: NobfSourceSpec, params: BfextParams,
                   seed: int | None = None,
                   samples: int | None = None,
                   force_mc: bool = False,
                   workers: int = 1,
                   cap: int = DEFAULT_WORK_CAP) -> CompareZeroedReport:
    """SD(Z, Z') for the zeroed counterpart from one coupled pass of
    `zeroed_pair_counts` (`plane_pair_counts` where `_on_planes` allows):
    over the good-bit support walk when it is feasible
    (see `_exact_good_enumeration_ok`; two 2^m tables, none of 2^n, and
    the kernel's block evaluations checked against `cap`), else a plug-in
    estimate over good bits sampled on `workers` threads (the result does
    not depend on the count)."""
    from .stats import EMPIRICAL_M_CAP, Estimate, plugin_sd_estimate, sd_of_tables
    if spec.n != params.n:
        raise DimensionError("source length does not match parameters")
    exact = not force_mc and _exact_good_enumeration_ok(spec)
    if not exact and params.m > EMPIRICAL_M_CAP:
        raise WorkCapExceeded(required=1 << params.m, cap=1 << EMPIRICAL_M_CAP,
                              what="empirical output width")
    planes = _on_planes(spec, params, exact)
    (ca, cb, mismatches), total = spec.good_dist.walk(
        partial(plane_pair_counts, spec, params) if planes else
        lambda goods, weights: zeroed_pair_counts(spec, params, goods, weights),
        exact, seed, samples, workers, units=params.r + len(_bad_blocks(spec, params)),
        cap=cap, what="zeroed comparison enumeration", on_seeds=planes)
    sd = sd_of_tables(ca / total, cb / total)
    if exact:
        return CompareZeroedReport(sd=Estimate.exact_value(sd), exact=True, m=params.m)
    # alpha stays the literal 0.01: 1.0 - 0.99 is not 0.01 in floating point
    return CompareZeroedReport(
        sd=plugin_sd_estimate(sd, samples, params.m, 0.01, 0.99, tables=2),
        exact=False, m=params.m, mismatch_rate=mismatches / samples)


def _seed_planes(lo: int, count: int, bits: int) -> np.ndarray:
    """(bits, ceil(count/64)) words: bit k of word w of plane j is bit j of
    seed lo + 64w + k, for lo a multiple of 64."""
    words = np.uint64(lo >> 6) + np.arange(-(-count // PACKED_WIDTH), dtype=np.uint64)
    planes = np.empty((bits, words.size), dtype=np.uint64)
    for j in range(bits):  # bit j of k = 0..63 is 0xaaaa... for j = 0
        planes[j] = (((1 << 64) - 1) // ((1 << (1 << j)) + 1) << (1 << j) if j < 6 else
                     np.uint64(0) - ((words >> np.uint64(j - 6)) & np.uint64(1)))
    return planes


def _shannon(table: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """The plane of the function with 0/1 truth table `table` on (k, W)
    input planes: k multiplexing rounds, each folding the top input in,
    the first picking each entry from the planes 0, ~x, x and ~0."""
    top, half = inputs[-1], len(table) // 2
    planes = np.stack([np.zeros_like(top), ~top, top, np.full_like(top, ~np.uint64(0))])
    folded = planes[table[:half] + 2 * table[half:]]
    for j in reversed(range(len(inputs) - 1)):
        low = folded[:1 << j]
        folded = low ^ folded[1 << j:]
        folded &= inputs[j]
        folded ^= low
    return folded[0]


def _plane_tally(z: np.ndarray, valid: np.ndarray, count: int) -> np.ndarray:
    """int64 counts of the 2^m outputs of (m, W) planes z over their first
    count seeds.  While 2^(m+1) <= 64, the popcounts of the ANDs of each
    z_k, or of its complement, by bit k of the output: 2^(m+1) words per
    64 seeds.  Above, each seed's output is rebuilt from z's bits and
    binned as `_tally` does: a table of 2^m cells, not 2^m planes.  Per
    2^18 seeds the popcounts took 0.2, 0.45 and 2.9 ms at m = 4, 5 and 6,
    the bincount 1.0, 1.2 and 1.3 ms."""
    m = len(z)
    if 2 << m <= PACKED_WIDTH:
        cells = valid[None]
        for plane in z:
            cells = np.concatenate([cells & ~plane, cells & plane])
        return np.bitwise_count(cells).sum(axis=1, dtype=np.int64)
    values = np.zeros(count, dtype=np.min_scalar_type((1 << m) - 1))
    bits = np.unpackbits(z.astype("<u8", copy=False).view(np.uint8), axis=1, count=count,
                         bitorder="little")
    for k, plane in enumerate(bits):
        values |= plane.astype(values.dtype) << k
    return np.bincount(values, minlength=1 << m)


def plane_pair_counts(spec: NobfSourceSpec, params: BfextParams, lo: int, count: int):
    """`zeroed_pair_counts` over seeds lo..lo+count-1 (lo a multiple of 64)
    on bit planes of 64 seeds a word (Biham, FSE 1997): good bit i XORs the
    seed planes whose `unit_columns` have bit i, bad planes are the packed
    `bad_bits_batch`, each of the first r blocks is `_shannon` of f (once
    if it has no bad bit), z_k XORs block planes, counts `_plane_tally`."""
    dist, q, w = spec.good_dist, spec.q, -(-count // PACKED_WIDTH)
    seeds, columns = _seed_planes(lo, count, dist.seed_bits), dist.unit_columns
    x0 = np.zeros((spec.n, w), dtype=np.uint64)
    for i, p in enumerate(spec.good_positions):
        x0[p] = np.bitwise_xor.reduce(seeds[(columns >> np.uint64(i)) & np.uint64(1) == 1])
    bads = np.pad(spec.adversary.bad_bits_batch(dist.outcomes_for_seeds(
        np.arange(lo, lo + count, dtype=np.uint64)), spec.n - q, q), (0, -count % 64))
    xa = x0.copy()
    for j, p in enumerate(spec.bad_positions):
        bits = (bads >> np.uint64(j)).astype(np.uint8) & np.uint8(1)
        xa[p] = np.packbits(bits, bitorder="little").view("<u8")
    table, bl = params.f._values.astype(np.intp), params.block_len
    y0 = np.array([_shannon(table, x0[i * bl:(i + 1) * bl]) for i in range(params.r)])
    ya = y0.copy()
    for i in _bad_blocks(spec, params):
        ya[i] = _shannon(table, xa[i * bl:(i + 1) * bl])
    used = [[i for i in range(params.r) if row >> i & 1] for row in params.code.rows]
    za, zb = (np.array([np.bitwise_xor.reduce(y[k]) for k in used]) for y in (ya, y0))
    valid = np.full(w, ~np.uint64(0))
    valid[-1] >>= np.uint64(-count % 64)
    mismatches = int(np.bitwise_count(valid & np.bitwise_or.reduce(za ^ zb)).sum())
    return _plane_tally(za, valid, count), _plane_tally(zb, valid, count), mismatches


def _on_planes(spec: NobfSourceSpec, params: BfextParams, exact: bool) -> bool:
    """An exact walk over a GF(2)-linear generator with narrow blocks."""
    return (exact and spec.good_dist.unit_columns is not None
            and params.f.arity <= PLANE_ARITY_CAP)


def _bad_blocks(spec: NobfSourceSpec, params: BfextParams) -> list[int]:
    """The blocks among the first r that hold a bad bit."""
    return sorted({p // params.block_len for p in spec.bad_positions
                   if p // params.block_len < params.r})


def zeroed_pair_counts(spec: NobfSourceSpec, params: BfextParams,
                       goods: np.ndarray, weights: np.ndarray | None):
    """The one kernel of the zeroed comparison: identical good bits, bad
    bits set by the adversary on one side and pinned to zero on the other.
    Returns (output counts, zeroed output counts, number of differing
    pairs), each good outcome weighing one or its weight.

    The zeroed input is x0 = the good bits scattered into place, and the
    adversary's is x0 | its bad bits.  Only the r blocks that z reads are
    evaluated, and a block holding no bad bit is evaluated once, on x0:
    its output is the same on both sides.  Sources wider than one packed
    word raise WorkCapExceeded, as `extract_batch` does."""
    check_packed(spec.n, "packed batch source length")
    r, bad_blocks = params.r, _bad_blocks(spec, params)
    x0 = scatter_bits_vec(goods, spec.good_positions)
    xa = x0 | scatter_bits_vec(
        spec.adversary.bad_bits_batch(goods, spec.n - spec.q, spec.q),
        spec.bad_positions)
    w0, wa = x0[:, None], xa[:, None]
    shared = _block_bits(w0, params, (i for i in range(r) if i not in bad_blocks))
    zb = compress_batch(params.code, bit_field(
        shared | _block_bits(w0, params, bad_blocks), 0, r))[:, 0]
    za = compress_batch(params.code, bit_field(
        shared | _block_bits(wa, params, bad_blocks), 0, r))[:, 0]
    return (_tally(za, xa, weights, params.m), _tally(zb, x0, weights, params.m),
            int(np.count_nonzero(za != zb)))


class WorstAdversaryReport(Frozen):
    __slots__ = ("adversary", "sd", "method", "sweeps")

    def __init__(self, adversary: TableAdversary, sd: float, method: str, sweeps: int = 0):
        super().__init__(adversary, sd, method, sweeps)

    def to_json(self) -> dict:
        return {"adversary": self.adversary.descriptor(), "sd": self.sd,
                "method": self.method, "sweeps": self.sweeps}


def worst_case_adversary(spec: NobfSourceSpec, params: BfextParams,
                         cap: int = DEFAULT_WORK_CAP) -> WorstAdversaryReport:
    """The bad-bit strategy table maximizing SD(Z, Z'), and that SD.

    The outputs of the 2^q patterns at each of the 2^n_good good outcomes
    (at most `cap` of them) are built first.  For m <= TRANSFORM_M_CAP the
    maximum is exact: SD = max over output sets S of P_T(S) - P_0(S), and
    the best T sends a good outcome g into S whenever one of its patterns
    can, so SD = max_S [total - sum_{R within ~S} W(R)] - P_0(S), where W(R)
    weighs the g whose reachable outputs are exactly R: one `subset_sums`
    table of 2^(2^m) masks.  Ties go to the first maximal S in increasing
    mask order, and each g to its first pattern whose output is in S
    (pattern 0 when none is).  Wider outputs take a deterministic coordinate
    ascent (the steepest single-entry improvement, swept in order, at most
    DEFAULT_SWEEPS sweeps of at most ASCENT_STEP_CAP entries x patterns),
    which can stop below the maximum.  The adversary is labeled
    brute-force-worst with the method in its provenance; the spec's own
    adversary is ignored.
    """
    from .stats import sd_of_tables
    if spec.n != params.n:
        raise DimensionError("source length does not match parameters")
    q, n_good, cap = spec.q, spec.n - spec.q, check_count(cap, "cap")
    if q < 1:
        raise ValidationError("need at least one bad position to optimize")
    check_packed(spec.n, "adversary search source width")
    weights = spec.good_dist.exact_table()
    gcount, npat, nz = weights.size, 1 << q, 1 << params.m
    if gcount * npat > cap:
        raise WorkCapExceeded(required=gcount * npat, cap=cap,
                              what="adversary search choice matrix")
    # z_choice[b, g]: output when the good bits are g and the bad bits b,
    # built ADVERSARY_PIECE outcomes at a time; reach[g]: the mask of the
    # outputs that g's patterns reach (m <= TRANSFORM_M_CAP)
    z_choice = np.empty((npat, gcount), dtype=np.min_scalar_type(nz - 1))
    reach = np.zeros(gcount, dtype=np.int64)
    for lo in range(0, gcount, ADVERSARY_PIECE):
        goods = np.arange(lo, min(gcount, lo + ADVERSARY_PIECE), dtype=np.uint64)
        for b in range(npat):
            z = extract_batch(spec.compose_batch(goods, np.full(goods.size, b, np.uint64)),
                              params).astype(np.int64)
            z_choice[b, lo:lo + goods.size] = z
            if params.m <= TRANSFORM_M_CAP:
                reach[lo:lo + goods.size] |= 1 << z
    target = np.bincount(z_choice[0], weights=weights, minlength=nz)
    method, swept = "transform", 0
    if params.m <= TRANSFORM_M_CAP:
        # with A = ~S the value is P_0(A) - sum_{R within A} W(R): the
        # subset sums of P_0 on the singletons less W on the reachable sets
        sums = -np.bincount(reach, weights, 1 << nz)
        sums[1 << np.arange(nz)] += target
        best = subset_sums(sums)[::-1].argmax()  # reversed, S's value at S
        entries = np.zeros(gcount, dtype=np.intp)
        for b in reversed(range(npat)):  # each g's first pattern into S
            entries[best >> z_choice[b] & 1 == 1] = b
        chosen = np.take_along_axis(z_choice, entries[None], 0)[0]
        sd = sd_of_tables(np.bincount(chosen, weights, nz), target)
    elif gcount * npat > ASCENT_STEP_CAP:
        raise WorkCapExceeded(required=gcount * npat, cap=ASCENT_STEP_CAP,
                              what="adversary ascent sweep")
    else:
        method, entries = "ascent", [0] * gcount
        diff = np.zeros_like(target)  # running P_T - P', updated entry by entry
        for swept in range(1, DEFAULT_SWEEPS + 1):
            changed = False
            for g in range(gcount):
                w = float(weights[g])
                if w == 0.0:
                    continue
                cur = entries[g]
                zcur = z_choice[cur, g]
                best_b, best_gain = cur, 0.0
                for b in range(npat):
                    if b == cur:
                        continue
                    znew = z_choice[b, g]
                    if znew == zcur:
                        continue
                    gain = 0.5 * ((abs(diff[zcur] - w) - abs(diff[zcur]))
                                  + (abs(diff[znew] + w) - abs(diff[znew])))
                    if gain > best_gain + 1e-15:
                        best_b, best_gain = b, gain
                if best_b != cur:
                    diff[zcur] -= w
                    diff[z_choice[best_b, g]] += w
                    entries[g] = best_b
                    changed = True
            if not changed:
                break
        sd = sd_of_tables(diff, 0.0)
    adv = TableAdversary(n_good, entries, label="brute-force-worst",
                         provenance={"method": method, "sweeps": swept, "objective_sd": sd})
    return WorstAdversaryReport(adversary=adv, sd=sd, method=method, sweeps=swept)
