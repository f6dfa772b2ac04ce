"""The block extractor pipeline and its diagnostics."""

import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (countdown_code, dense_compare_zeroed, dense_fixedness,
                     dense_output_distribution, extract_trace)

from nobfext.bfext import (PLANE_ARITY_CAP, BfextParams, CompareZeroedReport,
                           _block_bits, _default_code_builder, _derived_m, _floor_pow, _on_planes,
                           compare_zeroed, derive_params, explicit_params, extract_batch,
                           fixedness_probability, output_distribution,
                           plane_pair_counts, trace_batch, worst_case_adversary,
                           zeroed_pair_counts)
from nobfext.bitops import ints_from_words, words_from_ints
from nobfext.codes import LinearCode, build_good_code, min_distance_exact, preset_code
from nobfext.errors import DimensionError, ValidationError, WorkCapExceeded
from nobfext.resilient import (Majority, RecursiveMajority3, TableFunction, Tribes,
                               influence_mc)
from nobfext.schemas import validate_document
from nobfext.sources import (ConstantAdversary, Distribution, EpsBiased,
                             ExactTwise, ExplicitTable, MajorityOfGood,
                             NobfSourceSpec, ParityOfGood, TableAdversary,
                             UniformBits, sample_nobf_batch)
from nobfext.stats import statistical_distance


def _maj3_params(ell=2, code=None):
    code = code or preset_code(f"identity-{ell}")
    return explicit_params(n=3 * ell, ell=ell, block_len=3, code=code,
                           f=Majority(3))


def _uniform_spec(n, bad, adversary=None):
    return NobfSourceSpec(n, bad, UniformBits(n - len(bad)), adversary)


# ---------------------------------------------------------------------------
# parameter derivation


def test_floor_pow_hits_exact_integers():
    # 0.8 / 4 stored as a double still floors (2^20)^alpha to exactly 16
    assert _floor_pow(1 << 20, 0.8 / 4) == 16
    assert _floor_pow(1 << 20, 0.25) == 32
    assert _floor_pow(7, 0.5) == 2
    assert _floor_pow(10 ** 6, 0.5) == 1000
    # the exponent is honored as the double the caller stored: double(1/3)
    # undershoots, so the cube root of 10^9 lands a hair under 1000
    assert _floor_pow(10 ** 9, 1 / 3) == 999


def test_parameter_formulas_match_mpmath():
    # ell = floor(n^alpha) and m against mpmath at the same 60 digits and
    # 1e-30 nudge, over a fixed grid (exact powers k^p and, for every tenth
    # k, their neighbours k^p - 1 and k^p + 1, whose roots lie within 1e-17
    # of an integer) and seeded random tuples
    rng = random.Random(20)
    cases = [(n, delta / 4) for n in range(1, 300) for delta in (0.1, 0.5, 0.8)]
    cases += [(b ** e, delta / 4) for b in (2, 3) for e in range(63) if b ** e <= 1 << 62
              for delta in (0.2, 0.5, 0.8)]
    cases += [(k ** p + d, 1 / p) for p, top in ((2, 1000), (4, 1000), (8, 216))
              for k in range(2, top) for d in ((-1, 0, 1) if k % 10 == 0 else (0,))]
    cases += [(rng.randrange(1, 1 << rng.randrange(1, 63)), rng.uniform(0.0, 0.25))
              for _ in range(600)]
    for n, alpha in cases:
        assert _floor_pow(n, alpha) == oracles.floor_pow(n, alpha), (n, alpha)
    # a 30-digit root 1.3e-30 below an integer: 60 digits would leave only
    # 30 after the point, and the nudge would round it up
    for n in ((7 ** 35) ** 2 - 1, (7 ** 35) ** 2, (7 ** 35) ** 2 + 1):
        assert _floor_pow(n, 0.5) == oracles.floor_pow(n, 0.5) == math.isqrt(n), n
    tbetas = [(1, 1.0), (4, 2.5), ((1 << 21) - 1, 1.0), (1 << 21, 1.0), (1 << 21, 0.5),
              (10 ** 9, 1.7), (1 << 62, 3.0)]
    tbetas += [(rng.randrange(1, 1 << rng.randrange(1, 63)), rng.uniform(0.05, 8.0))
               for _ in range(5)]
    for n, alpha in cases[::40]:
        for t, beta in tbetas:
            assert _derived_m(n, alpha, t, beta) == oracles.derived_m(n, alpha, t, beta), \
                (n, alpha, t, beta)


def test_derive_params_large_instance():
    p = derive_params(n=1 << 20, delta=0.8, t=4)
    assert p.mode == "derived"
    assert p.alpha == pytest.approx(0.2)
    assert p.ell == 16
    assert p.block_len == 65536
    assert p.m == 1
    assert p.code.verified_d == p.code.r == 16  # repetition over all blocks
    assert p.f.arity == 65536
    assert p.ell * p.block_len <= p.n


def test_derive_params_m_two_needs_huge_t():
    # t^(1/21) reaches 2 exactly at t = 2^21; the floor must not lose it
    p = derive_params(n=1 << 22, delta=0.8, t=1 << 21)
    assert p.m == 2
    assert p.ell == 21
    assert p.code.m == 2 and p.code.r <= 21
    assert p.code.verified_d >= 1
    q = derive_params(n=1 << 22, delta=0.8, t=(1 << 21) - 1)
    assert q.m == 1


@pytest.mark.parametrize("m,ell", [(2, 3), (2, 21), (3, 7), (3, 12), (4, 7),
                                   (4, 15), (5, 9), (6, 20)])
def test_default_code_builder_matches_countdown(m, ell):
    # one search keeping the best code returns the countdown's code, with
    # the distance it reached recorded as target_d
    assert _default_code_builder(m, ell).to_json() == countdown_code(m, ell).to_json()


def test_derive_params_beta_scales_m():
    base = derive_params(n=1 << 22, delta=0.8, t=1 << 21)
    halved = derive_params(n=1 << 22, delta=0.8, t=1 << 21, beta=0.5)
    assert base.m == 2 and halved.m == 1


def test_derive_params_validation():
    with pytest.raises(ValidationError):
        derive_params(n=100, delta=0.0, t=2)
    with pytest.raises(ValidationError):
        derive_params(n=100, delta=1.0, t=2)
    with pytest.raises(ValidationError):
        derive_params(n=100, delta=0.5, t=0)
    with pytest.raises(ValidationError):
        derive_params(n=0, delta=0.5, t=2)


def test_params_validation():
    with pytest.raises(ValidationError):
        explicit_params(5, 2, 3, preset_code("identity-2"), Majority(3))
    with pytest.raises(ValidationError):
        explicit_params(9, 2, 3, preset_code("identity-3"), Majority(3))  # r > ell
    with pytest.raises(DimensionError):
        explicit_params(6, 2, 3, preset_code("identity-2"), Majority(5))
    unverified = LinearCode(2, (1, 2))
    with pytest.raises(ValidationError):
        explicit_params(6, 2, 3, unverified, Majority(3))
    with pytest.raises(ValidationError):
        BfextParams(n=6, ell=2, block_len=3, code=preset_code("identity-2"),
                    f=Majority(3), mode="derived", delta=0.8, alpha=0.3)


def test_derived_mode_consistency_enforced():
    code = preset_code("repetition-16")
    f = Tribes(2, 32768)
    good = BfextParams(n=1 << 20, ell=16, block_len=65536, code=code, f=f,
                       mode="derived", delta=0.8, alpha=0.8 / 4)
    assert good.ell == 16
    with pytest.raises(ValidationError):
        BfextParams(n=1 << 20, ell=15, block_len=65536, code=preset_code("repetition-15"),
                    f=f, mode="derived", delta=0.8, alpha=0.8 / 4)


def test_params_json_round_trip():
    p = _maj3_params()
    back = BfextParams.from_json(json.loads(json.dumps(p.to_json())))
    assert (back.n, back.ell, back.block_len, back.mode) == (6, 2, 3, "explicit")
    assert back.code.rows == p.code.rows
    assert np.array_equal(back.f.truth_table(), p.f.truth_table())
    d = derive_params(n=1 << 20, delta=0.8, t=4)
    d2 = BfextParams.from_json(json.loads(json.dumps(d.to_json())))
    assert d2.mode == "derived" and d2.delta == 0.8 and d2.ell == 16


@pytest.mark.parametrize("field,value", [
    ("n", 9.7), ("ell", 2.5), ("block_len", 3.5),
    ("code.m", 2.5), ("code.r", 2.5), ("code.verified_d", 1.9),
    ("spec.bad_positions", [2.5]),
])
def test_document_readers_refuse_fractional_integers(field, value):
    # each was read with int(): n = 9.7 loaded as 9, verified_d = 1.9 as 1
    # and bad position 2.5 as 2, and every one of these documents loaded
    params = _maj3_params().to_json()
    spec = _uniform_spec(6, [2]).to_descriptor()
    owner, _, key = field.rpartition(".")
    {"": params, "code": params["code"], "spec": spec}[owner][key] = value
    with pytest.raises(ValidationError):
        if owner == "spec":
            NobfSourceSpec.from_descriptor(spec)
        else:
            BfextParams.from_json(params)


# ---------------------------------------------------------------------------
# the pipeline itself


def _b(coords: str) -> int:
    """The packed value of a coordinate string, coordinate 0 first."""
    return int(coords[::-1], 2)


def _trace(x: int, params) -> dict:
    """The `trace_batch` document of one input, its hex fields read as ints."""
    doc = trace_batch(words_from_ints([x], params.n), params)[0]

    def value(h):  # least significant nibble first
        return int(h[::-1], 16)
    return {"blocks": [value(h) for h in doc["blocks"]],
            **{k: value(doc[k]) for k in ("y", "y_used", "z")}}


def test_partition_blocks_and_truncation():
    params = explicit_params(10, 3, 3, preset_code("identity-3"), Majority(3))
    blocks = _trace(_b("1101001110"), params)["blocks"]
    assert blocks == [_b("110"), _b("100"), _b("111")]  # bit 9 dropped
    with pytest.raises(ValidationError):
        explicit_params(10, 4, 3, preset_code("identity-3"), Majority(3))


def test_extract_hand_example():
    # blocks 110, 100, 111, 010 -> majorities 1, 0, 1, 0 -> y = 1010;
    # G = [1100; 0011] on y_used = y gives z = (1^0, 1^0) = 11
    code = LinearCode(4, (_b("1100"), _b("0011")), verified_d=2)
    params = explicit_params(n=12, ell=4, block_len=3, code=code, f=Majority(3))
    trace = _trace(_b("110100111010"), params)
    assert trace["blocks"] == [_b("110"), _b("100"), _b("111"), _b("010")]
    assert trace["y"] == _b("1010")
    assert trace["y_used"] == trace["y"]
    assert trace["z"] == _b("11")


def test_extract_uses_first_r_coordinates():
    code = preset_code("repetition-3")  # r = 3 < ell = 4
    params = explicit_params(n=8, ell=4, block_len=2, code=code, f=Tribes(2, 1))
    trace = _trace(_b("11000011"), params)  # blocks 11,00,00,11 -> y = 1001
    assert trace["y"] == _b("1001")
    assert trace["y_used"] == _b("100")
    assert trace["z"] == _b("1")  # parity of y_used
    with pytest.raises(DimensionError):
        trace_batch(np.zeros((1, 2), dtype=np.uint64), params)  # two words for 8 bits


def test_extract_batch_matches_scalar():
    code = LinearCode(4, (_b("1011"), _b("0111")), verified_d=2)
    params = explicit_params(n=13, ell=4, block_len=3, code=code, f=Majority(3))
    rng = np.random.default_rng(10)
    xs = rng.integers(0, 1 << 13, size=200, dtype=np.uint64)
    zs = extract_batch(xs, params)
    assert zs.shape == xs.shape  # one word in, one word out
    for x, z in zip(xs.tolist(), zs.tolist()):
        assert z == int(extract_trace(x, params)["z"][::-1], 16)


def _random_code(m, r, seed):
    rng = np.random.default_rng(seed)
    rows = tuple(int.from_bytes(rng.bytes(-(-r // 8)), "little") & ((1 << r) - 1)
                 for _ in range(m))
    code = LinearCode(r, rows)
    min_distance_exact(code)
    return code


@pytest.mark.parametrize("params", [
    # 125 two-bit blocks: y and y_used span two words
    explicit_params(250, 125, 2, _random_code(3, 100, 1), Tribes(2, 1)),
    # three 81-bit blocks, each straddling a word boundary
    explicit_params(250, 3, 81, preset_code("identity-3"), RecursiveMajority3(4)),
    explicit_params(250, 2, 125, preset_code("repetition-2"), Majority(125)),
], ids=["ell125", "block81", "block125"])
def test_wide_inputs_match_scalar_oracle(params):
    rng = np.random.default_rng(250)
    xs = [int.from_bytes(rng.bytes(32), "little") >> 6 for _ in range(40)]
    xs += [0, (1 << 250) - 1]
    want = [extract_trace(x, params) for x in xs]
    words = words_from_ints(xs, 250)
    assert trace_batch(words, params) == want
    z = extract_batch(words, params)
    assert z.shape == (len(xs), 1)
    assert ints_from_words(z) == [int(w["z"][::-1], 16) for w in want]


def test_extract_batch_width_cap():
    p = derive_params(n=1 << 20, delta=0.8, t=4)
    with pytest.raises(WorkCapExceeded):
        extract_batch(np.zeros(1, dtype=np.uint64), p)


@pytest.mark.parametrize("xs", [[1.5, 2.0 ** 62], np.array([-1]), np.array([True]),
                                np.array(["1"])], ids=["float", "negative", "bool", "str"])
def test_extract_batch_refuses_non_integer_words(xs):
    # the float words extracted as [0, 0] and -1 was accepted
    with pytest.raises(ValidationError):
        extract_batch(xs, _maj3_params())


def test_extract_batch_reads_any_nonnegative_integer_words():
    want = extract_batch(np.array([5, 63], dtype=np.uint64), _maj3_params())
    for xs in ([5, 63], np.array([5, 63]), np.array([5, 63], dtype=np.uint8)):
        assert np.array_equal(extract_batch(xs, _maj3_params()), want)


def test_linear_test_decomposition():
    # the parity of z over any nonempty S equals the parity of y_used
    # against the XOR of the S rows of G
    rows = (_b("10110"), _b("01011"), _b("11100"))
    code = LinearCode(5, rows, verified_d=1)
    params = explicit_params(n=10, ell=5, block_len=2, code=code, f=Tribes(2, 1))
    rng = np.random.default_rng(11)
    for x in rng.integers(0, 1 << 10, size=100, dtype=np.uint64).tolist():
        trace = _trace(x, params)
        for s in range(1, 8):
            combined = 0
            for i in range(3):
                if (s >> i) & 1:
                    combined ^= rows[i]
            lhs = (trace["z"] & s).bit_count() & 1
            assert lhs == (combined & trace["y_used"]).bit_count() & 1


def test_trace_json_round_trip():
    params = _maj3_params()
    trace = trace_batch(np.array([_b("110100")], dtype=np.uint64), params)[0]
    assert json.loads(json.dumps(trace)) == trace
    assert trace == extract_trace(_b("110100"), params)
    validate_document(trace)
    # a malformed document is a ValidationError, not a bare KeyError or TypeError
    for bad in [{"format": "extraction-trace"}, dict(trace, blocks=[5, 6])]:
        with pytest.raises(ValidationError):
            validate_document(bad)


# ---------------------------------------------------------------------------
# output distribution


def test_output_uniform_when_no_bad_bits():
    # unbiased independent block outputs through an identity code stay uniform
    params = _maj3_params(ell=2)
    dist = output_distribution(_uniform_spec(6, []), params)
    assert statistical_distance(dist, Distribution.uniform(2)) == pytest.approx(0.0)
    # and through a repetition code (XOR of unbiased bits)
    rep = explicit_params(6, 2, 3, preset_code("repetition-2"), Majority(3))
    dist = output_distribution(_uniform_spec(6, []), rep)
    assert statistical_distance(dist, Distribution.uniform(1)) == pytest.approx(0.0)


def test_output_distribution_matches_sampling():
    spec = _uniform_spec(6, [1], ParityOfGood())
    params = _maj3_params(ell=2)
    exact = output_distribution(spec, params)
    zs = extract_batch(sample_nobf_batch(spec, 21, 1 << 14), params)
    emp = Distribution.empirical(2, zs)
    assert statistical_distance(exact, emp) < 0.02


def test_output_distribution_biased_block_function():
    # AND blocks: Pr[y_i = 1] = 1/4, repetition code -> z = XOR of 2 such
    params = explicit_params(4, 2, 2, preset_code("repetition-2"), Tribes(2, 1))
    dist = output_distribution(_uniform_spec(4, []), params)
    # Pr[z = 1] = 2 * (1/4) * (3/4) = 3/8
    assert dist.as_table()[1] == pytest.approx(3 / 8)


# ---------------------------------------------------------------------------
# fixedness


def test_fixedness_no_bad_bits_is_one():
    est = fixedness_probability(_uniform_spec(6, []), _maj3_params())
    assert est.is_exact and est.value == 1.0


def test_fixedness_bad_bit_in_discarded_tail():
    params = explicit_params(7, 2, 3, preset_code("identity-2"), Majority(3))
    est = fixedness_probability(_uniform_spec(7, [6]), params)
    assert est.is_exact and est.value == 1.0


def test_fixedness_exact_values():
    params = _maj3_params()
    # one free majority voter: fixed iff the other two in its block agree
    est = fixedness_probability(_uniform_spec(6, [1]), params)
    assert est.is_exact and est.value == pytest.approx(0.5)
    # one free voter in each block: independent halves
    est = fixedness_probability(_uniform_spec(6, [1, 5]), params)
    assert est.is_exact and est.value == pytest.approx(0.25)
    # two free voters in one block always leave majority-of-3 open
    est = fixedness_probability(_uniform_spec(6, [0, 1]), params)
    assert est.is_exact and est.value == pytest.approx(0.0)


def test_fixedness_depends_only_on_positions_not_adversary():
    params = _maj3_params()
    a = fixedness_probability(_uniform_spec(6, [1], ParityOfGood()), params)
    b = fixedness_probability(_uniform_spec(6, [1], ConstantAdversary(1)), params)
    assert a.value == b.value


def test_fixedness_mc_matches_exact():
    params = _maj3_params()
    spec = _uniform_spec(6, [1, 5])
    est = fixedness_probability(spec, params, seed=5, samples=4000, force_mc=True)
    assert not est.is_exact
    assert est.contains(0.25)
    assert fixedness_probability(spec, params, seed=5, samples=4000,
                                 force_mc=True, workers=3) == est
    with pytest.raises(ValidationError):
        fixedness_probability(spec, params, force_mc=True)  # no seed/samples


def test_fixedness_refuses_good_bits_wider_than_packed_width():
    # 71 good bits do not fit one packed value; truncating them would give
    # 1.0 where the truth is 1 - C(8, 4) / 256
    spec = NobfSourceSpec(72, [70], ExactTwise(71, 8), ParityOfGood())
    params = explicit_params(72, 8, 9, preset_code("simplex-k3"), Majority(9))
    with pytest.raises(WorkCapExceeded):
        fixedness_probability(spec, params, seed=1, samples=20000)


@pytest.mark.parametrize("ell,block_len", [(6, 11), (14, 5)])
def test_compare_zeroed_refuses_sources_wider_than_packed_width(ell, block_len):
    # 64 good bits load and sample, but the 70-bit composed input does not
    # fit one packed value: the last block spans bit 64 (block_len 11) or
    # lies wholly past it (block_len 5); z reads every block
    spec = NobfSourceSpec(70, list(range(6)), UniformBits(64), ConstantAdversary(1))
    params = explicit_params(70, ell, block_len, preset_code(f"repetition-{ell}"),
                             Majority(block_len))
    with pytest.raises(WorkCapExceeded):
        compare_zeroed(spec, params, seed=1, samples=100)


# ---------------------------------------------------------------------------
# zeroed comparison and the coupling bound


def test_compare_zeroed_constant_zero_adversary():
    params = _maj3_params()
    rep = compare_zeroed(_uniform_spec(6, [1], ConstantAdversary(0)), params)
    assert rep.exact and rep.sd.value == 0.0


def test_compare_zeroed_parity_adversary_exact_value():
    params = _maj3_params()
    spec = _uniform_spec(6, [1], ParityOfGood())
    rep = compare_zeroed(spec, params)
    assert rep.exact
    # independent recomputation from the two output tables
    a = output_distribution(spec, params)
    b = output_distribution(_uniform_spec(6, [1], ConstantAdversary(0)), params)
    assert rep.sd.value == pytest.approx(statistical_distance(a, b))
    assert rep.sd.value > 0.0
    # the cap counts block evaluations per walked outcome: 2^5 outcomes,
    # 3 evaluations for the comparison (block 0 twice) and ell = 2 for z
    assert compare_zeroed(spec, params, cap=96) == rep
    assert np.array_equal(output_distribution(spec, params, cap=64).as_table(), a.as_table())
    with pytest.raises(WorkCapExceeded):
        compare_zeroed(spec, params, cap=95)
    with pytest.raises(WorkCapExceeded):
        output_distribution(spec, params, cap=63)


def test_seed_space_refusal_comes_before_the_work_cap():
    # 2^32 seeds are refused as a seed space, against its own cap of 2^24,
    # before a walk weighs its units against the work cap
    gen = ExactTwise(5, 8, field_bits=4)
    spec = NobfSourceSpec(6, [1], gen, ParityOfGood(), t=5)
    for run in (gen.exact_table, lambda: output_distribution(spec, _maj3_params())):
        with pytest.raises(WorkCapExceeded, match="seed space too large to enumerate") as exc:
            run()
        assert (exc.value.required, exc.value.cap) == (2 ** 32, 2 ** 24)


def test_compare_zeroed_mc_covers_exact():
    params = _maj3_params()
    spec = _uniform_spec(6, [1], ParityOfGood())
    exact = compare_zeroed(spec, params).sd.value
    mc = compare_zeroed(spec, params, seed=3, samples=6000, force_mc=True)
    assert compare_zeroed(spec, params, seed=3, samples=6000, force_mc=True,
                          workers=3) == mc
    assert not mc.exact
    assert mc.sd.contains(exact)
    assert mc.mismatch_rate is not None
    assert mc.sd.value <= mc.mismatch_rate + 1e-12


def test_sampled_oracles_do_not_depend_on_workers():
    # 3,001 draws split unevenly over 2, 3 and 7 chunks of the same walk
    params = _maj3_params()
    spec = _uniform_spec(6, [1, 5], ParityOfGood())
    runs = [(fixedness_probability(spec, params, seed=7, samples=3001,
                                   force_mc=True, workers=w),
             compare_zeroed(spec, params, seed=7, samples=3001, force_mc=True,
                            workers=w),
             influence_mc(Majority(5), [0, 3], UniformBits(3), samples=3001,
                          seed=7, workers=w))
            for w in (1, 2, 3, 7)]
    assert not runs[0][0].is_exact and not runs[0][1].exact
    assert all(run == runs[0] for run in runs)


@pytest.mark.parametrize("f", [
    Majority(5), Tribes(2, 3), RecursiveMajority3(2),
    TableFunction(4, [0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1]),
], ids=["majority", "tribes", "recursive-majority", "table-function"])
def test_block_values_from_the_truth_table_equal_eval_batch(f):
    # a batch of at least 2^arity inputs reads f's kept truth table; pieces
    # of fewer inputs evaluate every block
    ell = 5
    params = explicit_params(f.arity * ell + 3, ell, f.arity,
                             preset_code(f"identity-{ell}"), f)
    n_inputs = 3 << f.arity
    xs = words_from_ints(random.Random(f.arity).choices(range(1 << params.n), k=n_inputs),
                         params.n)
    piece = (1 << f.arity) - 1
    evaluated = np.concatenate([_block_bits(xs[lo:lo + piece], params, range(ell))
                                for lo in range(0, n_inputs, piece)])
    assert np.array_equal(_block_bits(xs, params, range(ell)), evaluated)
    assert np.array_equal(f._values, f.eval_batch(np.arange(1 << f.arity, dtype=np.uint64)))


@pytest.mark.parametrize("oracle", ["fixedness", "compare-zeroed", "influence"])
def test_sampled_walks_hold_one_chunk_per_worker(oracle):
    # millions of draws on 2 workers run in pieces of at most 2^15, so the
    # traced peak stays far below one worker-sized piece's temporaries
    bad = [0, 3, 6, 30, 46, 50]
    spec = NobfSourceSpec(63, bad, UniformBits(57), MajorityOfGood())
    params = explicit_params(63, 7, 9, preset_code("simplex-k3"), RecursiveMajority3(2))
    run = {
        "fixedness": lambda: fixedness_probability(spec, params, seed=1, samples=1 << 22,
                                                   force_mc=True, workers=2),
        "compare-zeroed": lambda: compare_zeroed(spec, params, seed=1, samples=1 << 21,
                                                 force_mc=True, workers=2),
        "influence": lambda: influence_mc(Majority(9), [0, 4], UniformBits(7),
                                          samples=1 << 22, seed=1, workers=2),
    }[oracle]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("oracle", ["fixedness", "compare-zeroed"])
def test_sampled_walk_peak_does_not_grow_with_samples(oracle):
    # the walk folds each piece as it comes, at most 2 * workers pieces
    # ahead, so 8 times the draws hold no more memory: within four pieces'
    # pairs of 2^16-entry tables (1 MiB each; the peak moves by up to 2.5 MiB
    # with thread timing), where keeping every piece's tables grew by 14 MiB
    spec = NobfSourceSpec(63, [0, 3, 6, 30, 46, 50], UniformBits(57), MajorityOfGood())
    params = explicit_params(63, 21, 3, preset_code("identity-16"), Majority(3))
    estimate = compare_zeroed if oracle == "compare-zeroed" else fixedness_probability

    def run(samples):
        return lambda: estimate(spec, params, seed=4, samples=samples, force_mc=True, workers=2)

    run(1 << 15)()  # first-use caches
    small, big = _traced_peak(run(1 << 19)), _traced_peak(run(1 << 22))
    assert big - small < 4 << 20, (small, big)


class _CountedMajority(Majority):
    """Majority, counting its eval_batch calls."""

    calls = 0

    def eval_batch(self, xs):
        self.calls += 1
        return super().eval_batch(xs)


def test_sampled_fixedness_builds_each_block_table_once(monkeypatch):
    # 49 pieces of 2^10 draws: each of the 6 bad blocks' 4-row fixing
    # tables is scanned once (2 evaluations of a monotone f), not per piece
    monkeypatch.setattr("nobfext.prng.DRAW_CHUNK", 1 << 10)
    spec = NobfSourceSpec(63, [0, 3, 6, 30, 46, 50], UniformBits(57), MajorityOfGood())
    f = _CountedMajority(3)
    params = explicit_params(63, 21, 3, preset_code("identity-2"), f)
    est = fixedness_probability(spec, params, seed=2, samples=50_000, force_mc=True, workers=2)
    assert f.calls == 2 * 6
    plain = explicit_params(63, 21, 3, preset_code("identity-2"), Majority(3))
    assert est == fixedness_probability(spec, plain, seed=2, samples=50_000, force_mc=True)


# ---------------------------------------------------------------------------
# exact oracles on the support walk


@st.composite
def _small_systems(draw):
    """A random source of every good-bit kind and adversary, with params."""
    n = draw(st.integers(3, 9))
    bad = sorted(draw(st.sets(st.integers(0, n - 1), max_size=min(3, n - 1))))
    n_good, q = n - len(bad), len(bad)
    kind = draw(st.sampled_from(["uniform", "exact-twise", "eps-biased",
                                 "explicit-table"]))
    if kind == "uniform":
        good = UniformBits(n_good)
    elif kind == "exact-twise":
        good = ExactTwise(n_good, draw(st.integers(1, min(3, n_good))))
    elif kind == "eps-biased":
        good = EpsBiased(n_good, draw(st.sampled_from([1.0, 0.5, 0.2])))
    else:
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1 << n_good,
                                   max_size=1 << n_good)))
        w[draw(st.integers(0, w.size - 1))] += 0.1  # some row is nonzero
        good = ExplicitTable(w / w.sum())
    adv = draw(st.sampled_from(["constant", "parity", "majority", "table"]))
    adversary = {"constant": lambda: ConstantAdversary(draw(st.integers(0, (1 << q) - 1))),
                 "parity": ParityOfGood, "majority": MajorityOfGood,
                 "table": lambda: TableAdversary(n_good, draw(st.lists(
                     st.integers(0, (1 << q) - 1), min_size=1 << n_good,
                     max_size=1 << n_good)))}[adv]()
    block_len = draw(st.integers(1, n))
    ell = draw(st.integers(1, n // block_len))
    f = draw(st.sampled_from([Majority(block_len) if block_len % 2 else
                              Tribes(2, block_len // 2),
                              TableFunction(block_len, draw(st.lists(
                                  st.integers(0, 1), min_size=1 << block_len,
                                  max_size=1 << block_len)))]))
    code = preset_code(draw(st.sampled_from([f"identity-{ell}", f"repetition-{ell}"])))
    return (NobfSourceSpec(n, bad, good, adversary),
            explicit_params(n, ell, block_len, code, f))


@settings(max_examples=150, deadline=None)
@given(_small_systems())
def test_support_walk_equals_dense_oracles_bit_for_bit(system):
    spec, params = system
    assert np.array_equal(output_distribution(spec, params).probs,
                          dense_output_distribution(spec, params))
    rep = compare_zeroed(spec, params)
    assert rep.exact and rep.sd.value == dense_compare_zeroed(spec, params)
    fixed = fixedness_probability(spec, params)
    assert fixed.is_exact and fixed.value == dense_fixedness(spec, params)


@st.composite
def _coupled_batches(draw):
    """A spec, params with r <= ell and ell * block_len <= n, a batch of
    good outcomes and either no weights or dyadic ones (exact in any
    summation order); some block may hold only bad bits."""
    block_len = draw(st.integers(1, 5))
    ell = draw(st.integers(1, 6))
    n = ell * block_len + draw(st.integers(0, 4))
    bad = draw(st.sets(st.integers(0, n - 1), max_size=4))
    if draw(st.booleans()):  # one block wholly bad
        j = draw(st.integers(0, ell - 1))
        bad |= set(range(j * block_len, (j + 1) * block_len))
    bad = sorted(bad)[:n - 1]
    n_good, q = n - len(bad), len(bad)
    kinds = ["constant", "parity", "majority"] + (["table"] if n_good <= 8 else [])
    adversary = {"constant": lambda: ConstantAdversary(draw(st.integers(0, (1 << q) - 1))),
                 "parity": ParityOfGood, "majority": MajorityOfGood,
                 "table": lambda: TableAdversary(n_good, draw(st.lists(
                     st.integers(0, (1 << q) - 1), min_size=1 << n_good,
                     max_size=1 << n_good)))}[draw(st.sampled_from(kinds))]()
    f = draw(st.sampled_from([Majority(block_len) if block_len % 2 else Tribes(1, block_len),
                              TableFunction(block_len, draw(st.lists(
                                  st.integers(0, 1), min_size=1 << block_len,
                                  max_size=1 << block_len)))]))
    k = draw(st.integers(1, ell))
    code = preset_code(draw(st.sampled_from([f"identity-{k}", f"repetition-{k}"])))
    size = draw(st.integers(1, 40))
    goods = np.array(draw(st.lists(st.integers(0, (1 << n_good) - 1), min_size=size,
                                   max_size=size)), dtype=np.uint64)
    weights = None if draw(st.booleans()) else np.array(draw(st.lists(
        st.integers(0, 1024), min_size=size, max_size=size))) / 1024.0
    return (NobfSourceSpec(n, bad, UniformBits(n_good), adversary),
            explicit_params(n, ell, block_len, code, f), goods, weights)


def _two_passes(spec, params, goods, weights):
    """`zeroed_pair_counts` from two independent extract_batch passes."""
    bads = spec.adversary.bad_bits_batch(goods, spec.n - spec.q, spec.q)
    za = extract_batch(spec.compose_batch(goods, bads), params).astype(np.int64)
    zb = extract_batch(spec.compose_batch(goods, np.zeros_like(goods)),
                       params).astype(np.int64)
    size = 1 << params.m
    return (np.bincount(za, weights=weights, minlength=size),
            np.bincount(zb, weights=weights, minlength=size),
            int(np.count_nonzero(za != zb)))


@settings(max_examples=200, deadline=None)
@given(_coupled_batches())
@example((  # blocks 3 and 4 come after r = 3; bits 15, 16 lie beyond ell * block_len
    NobfSourceSpec(17, [1, 7, 15], UniformBits(14), ParityOfGood()),
    explicit_params(17, 5, 3, preset_code("repetition-3"), Majority(3)),
    np.arange(0, 1 << 14, 37, dtype=np.uint64), None))
@example((  # block 1 is wholly bad; every outcome has its own weight
    NobfSourceSpec(9, [3, 4, 5], UniformBits(6), MajorityOfGood()),
    explicit_params(9, 3, 3, preset_code("identity-3"), Majority(3)),
    np.arange(64, dtype=np.uint64), np.arange(64) / 2048))
@example((  # every bit of the only block read is bad
    NobfSourceSpec(6, [0, 1, 2], UniformBits(3), ConstantAdversary(5)),
    explicit_params(6, 2, 3, preset_code("identity-1"), Majority(3)),
    np.arange(8, dtype=np.uint64), None))
def test_coupled_counts_equal_two_extract_passes(batch):
    spec, params, goods, weights = batch
    got = zeroed_pair_counts(spec, params, goods, weights)
    want = _two_passes(spec, params, goods, weights)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2] == want[2]


@st.composite
def _plane_systems(draw):
    """A source over a GF(2)-linear generator (seed spaces from 1 to 2^12
    seeds, so the last word is often partial) with params of m <= 8 (both
    tally routes) and blocks on both sides of PLANE_ARITY_CAP; bad bits may fall in blocks
    that z reads, in blocks after the first r, or after the last block."""
    block_len = draw(st.integers(1, PLANE_ARITY_CAP + 1))
    ell = draw(st.integers(1, max(1, 13 // block_len)))
    n = ell * block_len + draw(st.integers(0, 2))
    bad = sorted(draw(st.sets(st.integers(0, n - 1), max_size=min(4, n - 1))))
    n_good, q = n - len(bad), len(bad)
    if draw(st.booleans()):
        good = UniformBits(n_good)
    else:
        e = max(1, (n_good - 1).bit_length())
        good = ExactTwise(n_good, draw(st.integers(1, min(n_good, 12 // e))))
    kinds = ["constant", "parity", "majority"] + (["table"] if n_good <= 10 else [])
    adversary = {"constant": lambda: ConstantAdversary(draw(st.integers(0, (1 << q) - 1))),
                 "parity": ParityOfGood, "majority": MajorityOfGood,
                 "table": lambda: TableAdversary(n_good, draw(st.lists(
                     st.integers(0, (1 << q) - 1), min_size=1 << n_good,
                     max_size=1 << n_good)))}[draw(st.sampled_from(kinds))]()
    fs = [TableFunction(block_len, draw(st.lists(st.integers(0, 1), min_size=1 << block_len,
                                                 max_size=1 << block_len))),
          Majority(block_len) if block_len % 2 else Tribes(2, block_len // 2)]
    fs += [RecursiveMajority3(d) for d in (1, 2) if 3 ** d == block_len]
    r = draw(st.integers(1, ell))
    m = draw(st.integers(1, min(8, r)))
    code = build_good_code(m, r, 1, seed=draw(st.integers(0, 2 ** 64 - 1)))
    return (NobfSourceSpec(n, bad, good, adversary),
            explicit_params(n, ell, block_len, code, draw(st.sampled_from(fs))))


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(_plane_systems())
@example((  # bad bits in blocks 0 and 2 read by z, and in block 3 and bit 13 beyond it
    NobfSourceSpec(14, [0, 7, 11, 13], UniformBits(10), MajorityOfGood()),
    explicit_params(14, 4, 3, preset_code("identity-3"), RecursiveMajority3(1))))
@example((  # 2^3 seeds, an eighth of a word; m = 6 over six blocks of a 2-input table
    NobfSourceSpec(12, [0, 3, 6, 9, 10, 11, 1], ExactTwise(5, 1), ParityOfGood()),
    explicit_params(12, 6, 2, preset_code("identity-6"), TableFunction(2, [1, 0, 0, 1]))))
@example((  # m = 8 over 2^11 seeds: the bincount tally
    NobfSourceSpec(13, [2, 5, 12], UniformBits(10), MajorityOfGood()),
    explicit_params(13, 12, 1, preset_code("identity-8"), TableFunction(1, [1, 0]))))
@example((  # one seed (no good bits), and a block above the crossover
    NobfSourceSpec(10, range(10), UniformBits(0), ConstantAdversary(0b1011001110)),
    explicit_params(10, 1, 9, preset_code("identity-1"), RecursiveMajority3(2))))
def test_plane_path_equals_dense_oracles_and_packed_kernel(system):
    spec, params = system
    assert _on_planes(spec, params, True) == (params.f.arity <= PLANE_ARITY_CAP)
    assert not _on_planes(spec, params, False)
    for lo, count in spec.good_dist.seed_ranges():
        goods = spec.good_dist.outcomes_for_seeds(np.arange(lo, lo + count, dtype=np.uint64))
        planes = plane_pair_counts(spec, params, lo, count)
        packed = zeroed_pair_counts(spec, params, goods, None)
        assert all(a.dtype == np.int64 for a in planes[:2])
        assert np.array_equal(planes[0], packed[0]) and np.array_equal(planes[1], packed[1])
        assert planes[2] == packed[2]
    assert np.array_equal(output_distribution(spec, params).probs,
                          dense_output_distribution(spec, params))
    rep = compare_zeroed(spec, params)
    assert rep.exact and rep.sd.value == dense_compare_zeroed(spec, params)


def test_plane_counts_pin_the_bench_spec():
    # the exact compare of the benchmark: 2^20 seeds in four walk chunks
    spec = NobfSourceSpec(24, [1, 4, 10, 20], UniformBits(20), MajorityOfGood())
    params = explicit_params(24, 8, 3, preset_code("hamming-7-4"), Majority(3))
    assert _on_planes(spec, params, True)
    sums = []
    for kernel in (plane_pair_counts, None):
        total = [0, 0, 0]
        for lo, count in spec.good_dist.seed_ranges():
            if kernel:
                part = kernel(spec, params, lo, count)
            else:
                part = zeroed_pair_counts(spec, params, np.arange(lo, lo + count,
                                                                  dtype=np.uint64), None)
            total = [t + p for t, p in zip(total, part)]
        sums.append(total)
    (ca, cb, mismatches), (pa, pb, packed) = sums
    assert np.array_equal(ca, pa) and np.array_equal(cb, pb)
    assert mismatches == packed == 378_584
    assert ca.sum() == cb.sum() == 1 << 20


def test_explicit_table_sums_in_input_order_across_windows():
    # the composed inputs span four 2^20-wide windows of x, and each of
    # the two outputs sums about 128 weights, so float sums in any other
    # order would round differently
    rng = np.random.default_rng(8)
    w = rng.random(256)
    spec = NobfSourceSpec(22, range(8, 22), ExplicitTable(w / w.sum()),
                          TableAdversary(8, rng.integers(0, 1 << 14, size=256)))
    params = explicit_params(22, 11, 2, preset_code("repetition-11"),
                             TableFunction(2, [0, 1, 1, 0]))
    assert np.array_equal(output_distribution(spec, params).probs,
                          dense_output_distribution(spec, params))
    assert compare_zeroed(spec, params).sd.value == dense_compare_zeroed(spec, params)


def test_exact_oracles_at_n64_agree_with_monte_carlo():
    # 60 t-wise good bits come from 2^12 seeds, so both oracles are exact
    # at n = 64 although no table of 2^60 outcomes could be built
    spec = NobfSourceSpec(64, [1, 2, 10, 11], ExactTwise(60, 2), MajorityOfGood())
    params = explicit_params(64, 7, 9, preset_code("simplex-k3"), Majority(9))
    fixed = fixedness_probability(spec, params)
    assert fixed.is_exact and 0.0 < fixed.value < 1.0
    mc = fixedness_probability(spec, params, seed=2, samples=20000, force_mc=True)
    assert mc.contains(fixed.value)
    rep = compare_zeroed(spec, params)
    assert rep.exact and rep.sd.value > 0.0
    mc = compare_zeroed(spec, params, seed=2, samples=20000, force_mc=True)
    assert mc.sd.contains(rep.sd.value)
    # a seed space of 2^61 is not walked; the sampled path needs a sample count
    wide = NobfSourceSpec(64, [1, 20, 40], UniformBits(61), ParityOfGood())
    with pytest.raises(ValidationError):
        compare_zeroed(wide, params)
    assert not compare_zeroed(wide, params, seed=2, samples=100).exact


def test_exact_compare_zeroed_memory_stays_below_source_table():
    # the benchmark's n = 24 system: a dense source table alone is 128 MB
    n, bad = 24, [1, 4, 10, 20]
    spec = NobfSourceSpec(n, bad, UniformBits(n - len(bad)), MajorityOfGood())
    params = explicit_params(n, 8, 3, preset_code("hamming-7-4"), Majority(3))
    tracemalloc.start()
    try:
        assert compare_zeroed(spec, params).exact
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_fixedness_monotone_block_with_many_bad_bits():
    # 21 bad bits in one majority block: two evaluations per outcome, not 2^21
    spec = NobfSourceSpec(25, range(21), UniformBits(4), ParityOfGood())
    params = explicit_params(25, 1, 25, preset_code("repetition-1"), Majority(25))
    assert fixedness_probability(spec, params).value == 0.0


@pytest.mark.parametrize("bad,adv", [
    ([1], ParityOfGood()),
    ([1, 5], ParityOfGood()),
    ([0, 1], ParityOfGood()),
    ([2], ConstantAdversary(1)),
])
def test_coupling_bound(bad, adv):
    # SD(Z, Z') can never exceed the probability some block is undetermined
    params = _maj3_params()
    spec = _uniform_spec(6, bad, adv)
    sd = compare_zeroed(spec, params).sd.value
    fixed = fixedness_probability(spec, params).value
    assert sd <= (1.0 - fixed) + 1e-12


# ---------------------------------------------------------------------------
# worst-case adversary search


def test_worst_adversary_exhaustive_matches_oracle():
    # q * 2^n_good = 8 bits of strategy table: enumerate every strategy
    # independently and confirm the search finds the true maximum
    params = explicit_params(4, 2, 2, preset_code("identity-2"), Tribes(2, 1))
    spec = _uniform_spec(4, [0])
    report = worst_case_adversary(spec, params)
    assert report.method == "exhaustive"
    zero_dist = output_distribution(_uniform_spec(4, [0], ConstantAdversary(0)),
                                    params)
    best = 0.0
    for tab in range(1 << 8):
        adv = TableAdversary(3, [(tab >> g) & 1 for g in range(8)])
        d = output_distribution(_uniform_spec(4, [0], adv), params)
        best = max(best, statistical_distance(d, zero_dist))
    assert report.sd == pytest.approx(best)
    # the returned adversary really achieves the reported distance
    achieved = output_distribution(
        NobfSourceSpec(4, [0], UniformBits(3), report.adversary), params)
    assert statistical_distance(achieved, zero_dist) == pytest.approx(report.sd)
    assert report.adversary.kind == "brute-force-worst"
    assert report.adversary.provenance["method"] == "exhaustive"


def test_worst_adversary_ascent_consistent():
    params = explicit_params(8, 2, 4, preset_code("identity-2"), Tribes(2, 2))
    spec = _uniform_spec(8, [0, 5])
    report = worst_case_adversary(spec, params)
    assert report.method == "ascent"
    assert 1 <= report.sweeps <= 64
    # reported objective must match an exact recomputation
    rebuilt = NobfSourceSpec(8, [0, 5], UniformBits(6), report.adversary)
    rep = compare_zeroed(rebuilt, params)
    assert rep.exact and rep.sd.value == pytest.approx(report.sd)
    # it at least beats the fixed stock strategies
    for adv in [ParityOfGood(), ConstantAdversary(3)]:
        stock = compare_zeroed(_uniform_spec(8, [0, 5], adv), params).sd.value
        assert report.sd >= stock - 1e-12
    # and respects the coupling bound
    fixed = fixedness_probability(spec, params).value
    assert report.sd <= (1.0 - fixed) + 1e-12


def test_worst_adversary_needs_bad_positions():
    with pytest.raises(ValidationError):
        worst_case_adversary(_uniform_spec(6, []), _maj3_params())


def test_worst_adversary_saturates_single_free_block():
    # one free voter in one block: whenever the other two voters split
    # (probability 1/2) the adversary owns that output bit outright, and
    # pushing it to 1 makes the coupling bound tight
    params = _maj3_params()
    spec = _uniform_spec(6, [1])
    report = worst_case_adversary(spec, params)
    fixed = fixedness_probability(spec, params).value
    assert fixed == pytest.approx(0.5)
    assert report.sd == pytest.approx(1.0 - fixed)
