"""Reference evaluators for library kernels.

The source oracles recompute one outcome of a `nobfext.sources` batch
kernel with Python integers straight from the construction's definition,
sharing no code with the numpy kernels they are compared against.
`clopper_pearson` computes the interval with `scipy.stats.beta.ppf`, where
`nobfext.stats` inverts its own float64 incomplete beta function.
`floor_pow` and `derived_m` evaluate the derived-parameter formulas with
mpmath at 60 digits, where `nobfext.bfext` uses the stdlib `decimal`.
`countdown_code` searches once per target distance where
`bfext._default_code_builder` searches once in all.  `word64` is one
counter-addressed word mixed with Python integers, where `prng.words`
mixes arrays.  `gf2_echelon` reduces one int row at a time, where
`codes.echelon_batch` reduces a stack of word matrices at once.
`reference_search` is the code search drawing each row from `word64`,
checking rank with `gf2_echelon` and scanning every full-rank attempt in
full, attempt by attempt, where `build_good_code` draws and reduces blocks
of attempts and rejects most of them by a low-weight witness.
`scatter_bits` and `gather_bits` move one bit at a time where
`nobfext.bitops` moves runs; `tribes_value` tests one tribe at a time.

The extractor oracles work on one Python int per value, where the library
runs packed-word kernels: `block_value` evaluates each block function from
its definition, `influence_max_brute` tries every input of every
coalition's cube where `influence_max_exact` walks fixings or reads
subset-sum tables, `matvec` is G y row by row, `extract_trace` is the whole
pipeline on one input, and `gray_min_distance` walks every codeword in
Gray-code order.  `row_combinations_within` and `xor_distance_brute`
enumerate what `min_distance_exact` and `stats.xor_bias_product` compute.

The codec and writer oracles are the per-string routes the byte-matrix
kernels replace: `words_from_hex` checks and parses one string at a time
with a regex and `int`, and `report_json` renders an extraction report
from the dict traces of `trace_batch` with `canonical_json`.

The dense oracles compute the exact oracles' results from tables of every
input: `dense_source_table` holds the probability of each of the 2^n
inputs, and `dense_output_distribution`, `dense_compare_zeroed` and
`dense_fixedness` derive z's table, SD(Z, Z') and the fixedness from it,
where the library walks the good-bit support.  Their float sums run in
increasing order of the input, 2^20 inputs at a time, the order the
library's results must reproduce bit for bit.  `worst_sd_brute` tries
every strategy table where `worst_case_adversary` reads one subset-sum
table.
"""

import itertools
import re

import mpmath
import numpy as np
from scipy.stats import beta

from nobfext.bfext import extract_batch, trace_batch
from nobfext.bitops import words_from_ints
from nobfext.cli import canonical_json
from nobfext.errors import ValidationError
from nobfext.codes import LinearCode, _min_weight, build_good_code
from nobfext.errors import SearchBudgetExceeded
from nobfext.resilient import Majority, RecursiveMajority3, TableFunction, Tribes
from nobfext.sources import (ConstantAdversary, EpsBiased, ExactTwise,
                             ExplicitTable, MajorityOfGood, ParityOfGood,
                             TableAdversary, UniformBits, zeroed_counterpart)


_M64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    """The SplitMix64 finalizer on one Python int."""
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def word64(seed: int, stream: int, counter: int) -> int:
    """One 64-bit word for the (seed, stream, counter) triple."""
    h = _mix64(seed + 0x9E3779B97F4A7C15)
    h = _mix64(h ^ _mix64(stream + 0xD1B54A32D192ED03))
    return _mix64(h ^ _mix64(counter + 0x9E3779B97F4A7C15))


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


def floor_pow(base: int, expo: float) -> int:
    """floor(base^expo + 1e-30) at 60 digits."""
    with mpmath.workdps(60):
        return int(mpmath.floor(mpmath.power(base, expo) + mpmath.mpf("1e-30")))


def derived_m(n: int, alpha: float, t: int, beta: float) -> int:
    """max(1, floor(min(n^{0.9 alpha}, beta t^{1/21}) + 1e-30)) at 60 digits."""
    with mpmath.workdps(60):
        cand = min(mpmath.power(n, 0.9 * alpha),
                   mpmath.mpf(beta) * mpmath.power(t, mpmath.mpf(1) / 21))
        return max(1, int(mpmath.floor(cand + mpmath.mpf("1e-30"))))


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


def gf2_echelon(rows) -> list[int]:
    """Reduced row echelon form of packed int rows over GF(2), zero rows
    dropped, one row at a time: each returned row's lowest set bit is its
    pivot, and no other returned row has that bit; the row count is the
    rank."""
    basis: list[int] = []
    pivots: list[int] = []
    for row in rows:
        for b, p in zip(basis, pivots):
            if row & p:
                row ^= b
        if row:
            pivot = row & -row
            for i, b in enumerate(basis):
                if b & pivot:
                    basis[i] = b ^ row
            basis.append(row)
            pivots.append(pivot)
    return basis


def reference_search(m: int, r: int, target_d: int, seed: int, attempts: int):
    """`build_good_code` attempt by attempt: every full-rank attempt is
    scanned in full, and the first to reach target_d is returned; without
    one, SearchBudgetExceeded carries the first attempt of the greatest
    distance."""
    best = None
    w = -(-r // 64)  # words per row
    for attempt in range(attempts):
        rows = [sum(word64(seed, attempt, i * w + j) << (64 * j) for j in range(w))
                & ((1 << r) - 1) for i in range(m)]
        if len(gf2_echelon(rows)) != m:
            continue
        d = _min_weight(words_from_ints(rows, r))
        code = LinearCode(r, rows, verified_d=d,
                          construction={"kind": "random-search", "seed": seed,
                                        "target_d": target_d, "attempt": attempt})
        if d >= target_d:
            return code
        if best is None or d > best.verified_d:
            best = code
    raise SearchBudgetExceeded("budget exhausted", best=best,
                               best_distance=best.verified_d if best else 0)


def block_value(f, bits: int) -> int:
    """f on one packed input (bit i of `bits` is coordinate i)."""
    if isinstance(f, Majority):
        return int(bits.bit_count() > f.arity // 2)
    if isinstance(f, Tribes):
        return tribes_value(f.w, f.s, bits)
    if isinstance(f, RecursiveMajority3):
        vals = [(bits >> i) & 1 for i in range(f.arity)]
        while len(vals) > 1:
            vals = [int(sum(vals[i:i + 3]) >= 2) for i in range(0, len(vals), 3)]
        return vals[0]
    if isinstance(f, TableFunction):
        return int(f.truth_table()[bits])
    raise TypeError(f"no oracle for {type(f).__name__}")


def influence_max_brute(f, q: int) -> tuple[float, tuple[int, ...]]:
    """The largest share of uniform fixings on which f still takes both
    values over a size-q coalition's cube, and the first coalition (in
    combinations order) that attains it; f is evaluated on every input of
    every cube."""
    best, witness = -1.0, ()
    for subset in itertools.combinations(range(f.arity), q):
        rest = [i for i in range(f.arity) if i not in subset]
        cube = scatter_bits(range(1 << q), subset)
        hits = sum(len({block_value(f, base | c) for c in cube}) == 2
                   for base in scatter_bits(range(1 << len(rest)), rest))
        if hits / (1 << len(rest)) > best:
            best, witness = hits / (1 << len(rest)), subset
    return best, witness


def matvec(code, y: int) -> int:
    """G y over GF(2): output bit i is the parity of row i AND y."""
    return sum(((row & y).bit_count() & 1) << i for i, row in enumerate(code.rows))


def extract_trace(x: int, params) -> dict:
    """The extraction-trace document of one input, from the definition."""
    bl, ell, r, m = params.block_len, params.ell, params.r, params.m
    blocks = [(x >> (i * bl)) & ((1 << bl) - 1) for i in range(ell)]
    y = sum(block_value(params.f, b) << i for i, b in enumerate(blocks))
    y_used = y & ((1 << r) - 1)
    return {"format": "extraction-trace", "version": 1, "block_len": bl,
            "ell": ell, "r": r, "m": m,
            "blocks": [_hex(b, bl) for b in blocks], "y": _hex(y, ell),
            "y_used": _hex(y_used, r), "z": _hex(matvec(params.code, y_used), m)}


def _hex(value: int, width: int) -> str:
    """Hex digits of value, least significant nibble first."""
    return format(value, f"0{max(1, -(-width // 4))}x")[::-1]


_HEX_DIGITS = re.compile(r"[0-9a-fA-F]+")


def words_from_hex(strings, width: int) -> np.ndarray:
    """(N, W) words of hex strings, one string at a time: its length, its
    characters, then bits beyond width."""
    digits = max(1, -(-width // 4))
    values = []
    for s in strings:
        if len(s) != digits:
            raise ValidationError(
                f"expected {digits} hex digits for length {width}, got {len(s)}")
        if not _HEX_DIGITS.fullmatch(s):  # int() also takes signs, "_" and "0x"
            raise ValidationError(f"{s!r} is not a hex string")
        values.append(int(s[::-1], 16))
        if values[-1] >> width:
            raise ValidationError(f"hex payload {s!r} has bits set beyond length {width}")
    return words_from_ints(values, width)


def report_json(doc: dict, xs, params) -> str:
    """The extraction report doc with the dict traces of xs in its traces
    list, rendered whole by `canonical_json`."""
    return canonical_json(dict(doc, traces=trace_batch(xs, params)))


def gray_min_distance(code) -> int:
    """Minimum nonzero-codeword weight; one row XOR per Gray-code step."""
    cw, best = 0, None
    for i in range(1, 1 << code.m):
        cw ^= code.rows[(i & -i).bit_length() - 1]
        if best is None or cw.bit_count() < best:
            best = cw.bit_count()
    return best


def row_combinations_within(code) -> bool:
    """Every nonempty row combination has weight in [verified_d, r]."""
    for s in range(1, 1 << code.m):
        cw = 0
        for i in range(code.m):
            if (s >> i) & 1:
                cw ^= code.rows[i]
        if not code.verified_d <= cw.bit_count() <= code.r:
            return False
    return True


def xor_distance_brute(distances) -> float:
    """Distance from fair of the XOR of independent bits, each with
    Pr[1] = 1/2 - e_i (the sign is irrelevant to the XOR's distance), by
    enumerating their joint distribution."""
    ds = [float(e) for e in distances]
    p1 = 0.0
    for outcome in range(1 << len(ds)):
        pr = 1.0
        parity = 0
        for i, e in enumerate(ds):
            bit = (outcome >> i) & 1
            pr *= (0.5 - e) if bit else (0.5 + e)
            parity ^= bit
        if parity:
            p1 += pr
    return abs(p1 - 0.5)


def dense_good_table(dist) -> np.ndarray:
    """Probability of each of the 2^n_good outcomes: the explicit table, or
    the outcome counts of every seed over the seed-space size."""
    if isinstance(dist, ExplicitTable):
        return dist.probs
    seeds = np.arange(1 << dist.seed_bits, dtype=np.uint64)
    counts = np.bincount(dist.outcomes_for_seeds(seeds).astype(np.int64),
                         minlength=1 << dist.n_good)
    return counts / counts.sum()


def dense_source_table(spec) -> np.ndarray:
    """Probability of each of the 2^n inputs of the source."""
    weights = dense_good_table(spec.good_dist)
    support = np.nonzero(weights)[0]
    goods = support.astype(np.uint64)
    bads = spec.adversary.bad_bits_batch(goods, spec.n - spec.q, spec.q)
    xs = spec.compose_batch(goods, bads).astype(np.int64)
    return np.bincount(xs, weights=weights[support], minlength=1 << spec.n)


def dense_output_distribution(spec, params) -> np.ndarray:
    """z's table: the dense source table pushed through the pipeline 2^20
    inputs at a time."""
    probs = dense_source_table(spec)
    out = np.zeros(1 << params.m)
    chunk = 1 << 20
    for lo in range(0, probs.size, chunk):
        w = probs[lo:lo + chunk]
        support = np.nonzero(w)[0]
        if support.size:
            zs = extract_batch((support + lo).astype(np.uint64), params)
            out += np.bincount(zs.astype(np.int64), weights=w[support],
                               minlength=1 << params.m)
    return out


def dense_compare_zeroed(spec, params) -> float:
    """SD(Z, Z') from the two dense output tables."""
    p = dense_output_distribution(spec, params)
    pz = dense_output_distribution(zeroed_counterpart(spec), params)
    return 0.5 * float(np.abs(p - pz).sum())


def dense_fixedness(spec, params) -> float:
    """1 - Pr[some block output moves with the bad bits]: every bad-bit
    pattern tried on every good outcome, block by block in Python."""
    weights = dense_good_table(spec.good_dist)
    support = np.nonzero(weights)[0]
    bl, ell = params.block_len, params.ell

    def y(x):
        return [block_value(params.f, (x >> (i * bl)) & ((1 << bl) - 1)) for i in range(ell)]

    moved = []
    for g in support:
        base = scatter_bits([g], spec.good_positions)[0]
        ys = {tuple(y(base | scatter_bits([b], spec.bad_positions)[0]))
              for b in range(1 << spec.q)}
        moved.append(len(ys) > 1)
    return 1.0 - float(weights[support[np.array(moved, dtype=bool)]].sum())


def worst_sd_brute(spec, params) -> float:
    """The largest SD(Z, Z') over all 2^(q 2^n_good) strategy tables: each
    table's output law, binned in increasing order of the good outcome,
    against the zeroed one, with every output from `extract_trace`."""
    weights = dense_good_table(spec.good_dist)
    q, gcount = spec.q, weights.size
    z = np.array([[int(extract_trace(scatter_bits([g], spec.good_positions)[0]
                                     | scatter_bits([b], spec.bad_positions)[0],
                                     params)["z"][::-1], 16)
                   for g in range(gcount)] for b in range(1 << q)])
    tables = np.arange(1 << (q * gcount))
    entries = (tables[:, None] >> (q * np.arange(gcount))) & ((1 << q) - 1)
    laws = np.zeros((tables.size, 1 << params.m))
    np.add.at(laws, (np.repeat(tables, gcount), z[entries, np.arange(gcount)].ravel()),
              np.tile(weights, tables.size))
    zeroed = np.bincount(z[0], weights=weights, minlength=1 << params.m)
    return float(0.5 * np.abs(laws - zeroed).sum(axis=1).max())
