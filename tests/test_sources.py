"""NOBF sources: generators, adversaries, enumeration, sample files."""

import itertools
import json
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (adversary_bad_bits, eps_biased_outcome, gather_bits,
                     generator_outcome, gf2e_mul, scatter_bits)

from nobfext import prng
from nobfext.bfext import derive_params, explicit_params, extract_batch, fixedness_probability
from nobfext.bitops import gather_bits_vec, ints_from_words, scatter_bits_vec, words_from_hex
from nobfext.codes import build_good_code, preset_code
from nobfext.errors import DimensionError, ValidationError, WorkCapExceeded
from nobfext.resilient import (Majority, RecursiveMajority3, TableFunction, Tribes,
                               influence_mc)
from nobfext.sources import (ConstantAdversary, Distribution,
                             EpsBiased, ExactTwise, ExplicitTable, MajorityOfGood,
                             NobfSourceSpec, ParityOfGood, TableAdversary,
                             UniformBits, _poly_mod, adversary_from_descriptor,
                             enumerate_nobf, gf2e_times, gf2e_times_columns,
                             good_dist_from_descriptor, irreducible_poly,
                             mass, read_sample_batch,
                             sample_nobf_batch, verify_twise,
                             write_sample_batch, zeroed_counterpart)
from nobfext.stats import xor_bias_product


# ---------------------------------------------------------------------------
# field arithmetic


def test_irreducible_polys_have_no_proper_factor():
    def has_factor(p, e):  # a divisor of degree 1..e//2, by trial division
        return any(_poly_mod(p, d) == 0
                   for ddeg in range(1, e // 2 + 1)
                   for d in range(1 << ddeg, 1 << (ddeg + 1)))

    for e in range(1, 15):
        p = irreducible_poly(e)
        assert p.bit_length() == e + 1  # degree exactly e
        assert not has_factor(p, e)
        # the smallest one: every smaller candidate with constant term 1 factors
        assert all(has_factor(c, e) for c in range((1 << e) | 1, p, 2))
    # every field up to the seed limit has its polynomial at once
    assert irreducible_poly(31) == 0x80000009
    assert irreducible_poly(63) == (1 << 63) | 0b11


def test_gf2e_mul_is_a_field():
    e = 4
    poly = irreducible_poly(e)
    size = 1 << e
    for a in range(size):
        assert gf2e_mul(a, 1, e, poly) == a
        assert gf2e_mul(a, 0, e, poly) == 0
    # no zero divisors and commutativity on a sample
    for a in range(1, size):
        seen = {gf2e_mul(a, b, e, poly) for b in range(1, size)}
        assert 0 not in seen
        assert len(seen) == size - 1  # a * (.) permutes the nonzero elements
    for a in range(size):
        for b in range(size):
            assert gf2e_mul(a, b, e, poly) == gf2e_mul(b, a, e, poly)
    # the vectorized kernel agrees with the oracle on every pair
    for e in range(1, 7):
        poly = irreducible_poly(e)
        a, b = np.divmod(np.arange(1 << (2 * e), dtype=np.uint64), np.uint64(1 << e))
        prods = gf2e_times(gf2e_times_columns(b, e, poly), a)
        assert [int(p) for p in prods] == [gf2e_mul(int(x), int(y), e, poly)
                                           for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# distributions over m-bit strings


def test_distribution_exact_validation():
    with pytest.raises(ValidationError):
        Distribution.exact(2, [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValidationError):
        Distribution.exact(1, [-0.1, 1.1])
    with pytest.raises(DimensionError):
        Distribution.exact(2, [1.0])
    d = Distribution.exact(1, [0.25, 0.75])
    assert d.is_exact and d.kind == "exact"


def test_distribution_uniform_point_mass_marginal():
    u = Distribution.uniform(3)
    assert np.allclose(u.marginal([0, 2]).as_table(), 0.25)
    p = Distribution.point_mass(3, 0b101)
    assert p.as_table()[0b101] == 1.0
    assert np.array_equal(p.marginal([2]).as_table(), [0.0, 1.0])
    assert np.array_equal(p.marginal([1]).as_table(), [1.0, 0.0])


@pytest.mark.parametrize("outcome", [-1, 4, 2.5])
def test_point_mass_refuses_outcomes_outside_the_table(outcome):
    # -1 gave the point mass at 3 (numpy's last entry), 4 a bare IndexError
    with pytest.raises(ValidationError):
        Distribution.point_mass(2, outcome)


def test_uniform_table_width_refused_before_allocation():
    # 2^40 float64 entries would need 8 TiB; the refusal comes first
    with pytest.raises(WorkCapExceeded, match="uniform table too wide"):
        Distribution.uniform(40)
    assert Distribution.uniform(0).as_table().tolist() == [1.0]


def test_distribution_empirical_table():
    d = Distribution.empirical(2, [0, 0, 1, 3], seed=9)
    assert not d.is_exact
    assert d.n_samples == 4
    assert np.array_equal(d.as_table(), [0.5, 0.25, 0.0, 0.25])
    with pytest.raises(ValidationError):
        Distribution.empirical(1, [0, 2])


def test_empirical_distribution_width_is_packed():
    # each sample is one uint64, so m = 65 cannot be represented
    with pytest.raises(WorkCapExceeded):
        Distribution.empirical(65, [1, 2])
    assert Distribution.empirical(64, [2 ** 64 - 1]).n_samples == 1


# ---------------------------------------------------------------------------
# good-bit generators


def test_uniform_bits_table_and_samples():
    g = UniformBits(4)
    assert g.claimed_twise() == 4
    assert np.allclose(g.exact_table(), 1 / 16)
    draws = g.sample_batch(5, 0, 0, 1 << 14)
    freqs = np.bincount(draws.astype(np.int64), minlength=16) / draws.size
    assert np.all(np.abs(freqs - 1 / 16) < 0.01)


@pytest.mark.parametrize("n,t", [(6, 1), (6, 2), (6, 3), (8, 2), (5, 4)])
def test_exact_twise_marginals_uniform(n, t):
    rep = verify_twise(ExactTwise(n, t), n, t)
    assert rep.ok
    assert rep.worst_distance <= 1e-12


def test_verify_twise_walks_seeds_beyond_table_width():
    # 60 good bits from 2^12 seeds: no 2^60 table, every pair still checked
    assert verify_twise(ExactTwise(60, 2), 60, 2).ok
    # a seed space above 2^24 is not walked
    with pytest.raises(WorkCapExceeded):
        verify_twise(ExactTwise(60, 5), 60, 1)


def test_support_walk_chunks_and_weights():
    gen = ExactTwise(20, 4)  # 2^20 seeds: four chunks
    chunks = list(gen.support())
    assert [g.size for g, _ in chunks] == [prng.CHUNK] * 4
    assert all(w is None for _, w in chunks) and gen.support_total == 1 << 20
    seeds = np.arange(1 << 20, dtype=np.uint64)
    assert np.array_equal(np.concatenate([g for g, _ in chunks]),
                          gen.outcomes_for_seeds(seeds))
    table = ExplicitTable([0.25, 0.0, 0.75, 0.0])
    [(rows, weights)] = list(table.support())
    assert rows.tolist() == [0, 2] and weights.tolist() == [0.25, 0.75]
    hits, total = table.walk(lambda goods, weights: mass(goods == 2, weights), True)
    assert hits / total == 0.75


def test_exact_walk_keeps_one_running_total(monkeypatch):
    # sixteen chunks of four seeds; no chunk's result may still be alive
    # when the kernel runs on the next chunk
    monkeypatch.setattr("nobfext.prng.CHUNK", 4)
    results, live = [], []

    def kernel(goods, weights):
        live.append(sum(ref() is not None for ref in results))
        counts = np.bincount(goods.astype(np.int64), minlength=64)
        results.append(weakref.ref(counts))
        return counts, int(goods.size)

    (counts, seen), total = UniformBits(6).walk(kernel, True)
    assert len(results) == 16 and max(live) == 0
    assert counts.tolist() == [1] * 64 and seen == total == 64


def test_exact_twise_eventually_fails_higher_t():
    # The degree-1 construction happens to be 3-wise independent (a parity
    # over S reduces to lsb(a * xor(S)) ^ |S| * lsb(b)), but any 4 points
    # with xor 0, e.g. {0,1,2,3}, make an even-size deterministic parity.
    gen = ExactTwise(6, 2)
    assert gen.seed_bits == 6  # 2 coefficients in GF(2^3)
    assert verify_twise(gen, 6, 3).ok
    rep = verify_twise(gen, 6, 4)
    assert not rep.ok
    assert rep.worst_subset == (0, 1, 2, 3)
    assert rep.worst_distance == pytest.approx(0.5)


def test_explicit_table_twise_check():
    # perfectly correlated pair: 1-wise uniform, not 2-wise
    d = ExplicitTable([0.5, 0.0, 0.0, 0.5])
    assert verify_twise(d, 2, 1).ok
    rep = verify_twise(d, 2, 2)
    assert not rep.ok
    assert rep.worst_subset == (0, 1)
    assert rep.worst_distance == pytest.approx(0.5)


def test_explicit_table_never_draws_zero_probability_outcome(monkeypatch):
    # the table sums to 1 - 4e-13, within PROB_SUM_TOL, so a draw can land
    # at or above the last cdf entry; it must map to outcome 1, not 3
    d = ExplicitTable([0.5, 0.5 - 4e-13, 0.0, 0.0])
    monkeypatch.setattr("nobfext.prng.uniform01",
                        lambda seed, stream, start, count: np.full(count, 1 - 2 ** -53))
    assert d.sample_batch(0, 0, 0, 3).tolist() == [1, 1, 1]


def test_eps_biased_all_linear_tests_within_bound():
    n, eps = 6, 0.25
    gen = EpsBiased(n, eps)
    assert (n - 1) / (1 << gen.field_bits) <= eps
    seeds = np.arange(1 << gen.seed_bits, dtype=np.uint64)
    outs = gen.outcomes_for_seeds(seeds)
    worst = 0.0
    for s in range(1, 1 << n):
        par = np.bitwise_count(outs & np.uint64(s)) & np.uint64(1)
        bias = abs(1.0 - 2.0 * float(par.mean()))
        worst = max(worst, bias)
    assert worst <= eps + 1e-12
    assert worst > 0.0  # the construction is biased, just boundedly so


def test_eps_biased_scalar_vector_agree():
    gen = EpsBiased(5, 0.5)
    seeds = np.arange(1 << gen.seed_bits, dtype=np.uint64)
    outs = gen.outcomes_for_seeds(seeds)
    for seed in range(1 << gen.seed_bits):
        assert generator_outcome(gen, seed) == int(outs[seed])


def test_exact_twise_scalar_vector_agree():
    gen = ExactTwise(7, 3)
    seeds = np.arange(0, 1 << gen.seed_bits, 97, dtype=np.uint64)
    outs = gen.outcomes_for_seeds(seeds)
    for i, seed in enumerate(seeds):
        assert generator_outcome(gen, int(seed)) == int(outs[i])


@st.composite
def _generators(draw):
    """Generators of up to 64 good bits, with the default or an explicit
    field up to the 2^63 seed limit."""
    kind = draw(st.sampled_from(["uniform", "exact-twise", "eps-biased"]))
    if kind == "uniform":
        return UniformBits(draw(st.integers(0, 64)))
    n = draw(st.integers(1, 64))
    if kind == "exact-twise":
        t = draw(st.integers(1, 4))
        e_min = max(1, (n - 1).bit_length())
        return ExactTwise(n, t, draw(st.none() | st.integers(e_min, 63 // t)))
    eps = draw(st.sampled_from([1.0, 0.5, 0.1, 0.01, 1e-6]))
    e_min = EpsBiased(n, eps).field_bits
    return EpsBiased(n, eps, draw(st.none() | st.integers(e_min, 31)))


_GENERATORS = _generators()


@settings(max_examples=60, deadline=None)
@given(gen=_GENERATORS, data=st.data())
def test_generator_kernels_match_oracle_and_views(gen, data):
    # seeds share their low halves (EpsBiased's x) from a small pool, so a
    # batch repeats x values under different y values
    top = (1 << gen.seed_bits) - 1
    low = (1 << (gen.seed_bits // 2)) - 1
    pool = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
    seeds = [s ^ ((s ^ data.draw(st.sampled_from(pool))) & low)
             if data.draw(st.booleans()) else s
             for s in data.draw(st.lists(st.integers(0, top), min_size=1, max_size=64))]
    outs = gen.outcomes_for_seeds(np.array(seeds, dtype=np.uint64))
    assert [int(o) for o in outs] == [generator_outcome(gen, s) for s in seeds]


@pytest.mark.parametrize("gen", [EpsBiased(57, 0.01), ExactTwise(60, 4), ExactTwise(20, 3)],
                         ids=["eps-biased-57", "exact-twise-60-4", "exact-twise-20-3"])
def test_benchmark_generators_match_oracle_on_4096_draws(gen):
    draws = gen.sample_batch(1, 0, 0, 4096)
    seeds = prng.low_bits(1, 0, 0, 4096, gen.seed_bits)
    assert [int(d) for d in draws] == [generator_outcome(gen, int(s)) for s in seeds]


@pytest.mark.parametrize("counts", [[100], [10_000], [100, 10_000, 100]],
                         ids=["below-field", "whole-field", "one-instance-small-large"])
def test_eps_biased_batches_on_both_sides_of_the_whole_field_rule(counts):
    # 2^13 field elements: 100 draws build the columns of their distinct x,
    # 10,000 read the whole field's, which the instance keeps once built
    gen = EpsBiased(57, 0.01)
    assert gen.field_bits == 13
    for start, count in zip([0, 100, 20_000], counts):
        seeds = prng.low_bits(5, 0, start, count, gen.seed_bits)
        draws = gen.outcomes_for_seeds(seeds)
        assert [int(d) for d in draws] == [eps_biased_outcome(gen, int(s)) for s in seeds]
    assert ("_field_columns" in vars(gen)) == (max(counts) >= 1 << 13)


@pytest.mark.parametrize("e", range(6, 18))
@settings(derandomize=True, max_examples=3, deadline=None, database=None)
@given(n_good=st.integers(1, 20), data=st.data())
def test_eps_biased_field_table_equals_the_per_x_path(e, n_good, data):
    # the whole-field table holds field elements in the narrowest type of
    # e bits (uint16 up to e = 16, uint32 above): a batch padded to 2^e
    # seeds reads it, and the same seeds alone take the per-x path
    gen = EpsBiased(n_good, 1.0, field_bits=e)
    seeds = np.array(data.draw(st.lists(st.integers(0, (1 << 2 * e) - 1), min_size=1,
                                        max_size=64)), dtype=np.uint64)
    padded = np.zeros(1 << e, dtype=np.uint64)
    padded[:seeds.size] = seeds
    assert np.array_equal(gen.outcomes_for_seeds(padded)[:seeds.size],
                          gen.outcomes_for_seeds(seeds))
    assert "_field_columns" in vars(gen)


@pytest.mark.parametrize("gen", [EpsBiased(40, 1e-6, field_bits=31),
                                 ExactTwise(64, 2, field_bits=31)],
                         ids=["eps-biased-e31", "exact-twise-e31"])
def test_large_field_kernels_build_no_field_sized_table(gen):
    # a table of 2^31 entries would need gigabytes; 2,000 draws need kilobytes
    tracemalloc.start()
    try:
        draws = gen.sample_batch(7, 0, 0, 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20
    seeds = prng.low_bits(7, 0, 0, 2000, gen.seed_bits)
    assert [int(d) for d in draws] == [generator_outcome(gen, int(s)) for s in seeds]


_POSITION_CASES = [[], list(range(64)), list(range(63, -1, -1)), [5], [63, 0],
                   [0, 1, 2, 7, 8, 9, 3, 40, 41, 63]]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_run_scatter_gather_match_per_bit_oracle(data):
    positions = data.draw(st.sampled_from(_POSITION_CASES)
                          | st.lists(st.integers(0, 63), unique=True, max_size=64)
                          | st.lists(st.integers(0, 63), unique=True, max_size=64).map(sorted))
    values = data.draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=16))
    arr = np.array(values, dtype=np.uint64)
    assert [int(v) for v in scatter_bits_vec(arr, positions)] == scatter_bits(values, positions)
    assert [int(v) for v in gather_bits_vec(arr, positions)] == gather_bits(values, positions)


@settings(max_examples=60, deadline=None)
@given(n_good=st.integers(0, 6), q=st.integers(0, 4), data=st.data())
def test_adversary_kernels_match_oracle_and_views(n_good, q, data):
    adv = data.draw(st.one_of(
        st.just(ParityOfGood()), st.just(MajorityOfGood()),
        st.builds(ConstantAdversary, st.integers(0, (1 << q) - 1)),
        st.builds(lambda t: TableAdversary(n_good, t),
                  st.lists(st.integers(0, (1 << q) - 1),
                           min_size=1 << n_good, max_size=1 << n_good))))
    goods = data.draw(st.lists(st.integers(0, (1 << n_good) - 1),
                               min_size=1, max_size=8))
    batch = adv.bad_bits_batch(np.array(goods, dtype=np.uint64), n_good, q)
    assert [int(b) for b in batch] == [adversary_bad_bits(adv, g, n_good, q)
                                       for g in goods]


def test_generator_validation():
    with pytest.raises(ValidationError):
        ExactTwise(6, 0)
    with pytest.raises(ValidationError):
        ExactTwise(6, 2, field_bits=2)  # 4 points < 6 bits
    with pytest.raises(ValidationError):
        EpsBiased(6, 0.0)
    with pytest.raises(ValidationError):
        EpsBiased(100, 0.25, field_bits=4)
    with pytest.raises(ValidationError):
        ExplicitTable([0.5, 0.5, 0.5])


@pytest.mark.parametrize("build", [
    lambda: Majority(2.5), lambda: Majority(True), lambda: Tribes(2, 1.5),
    lambda: RecursiveMajority3(1.5), lambda: TableFunction(1.5, [0, 1]),
    lambda: UniformBits(2.5), lambda: ExactTwise(5, True),
    lambda: ExactTwise(5, 2, field_bits=3.5), lambda: EpsBiased(5.5, 0.1),
    lambda: EpsBiased(5, 0.1, field_bits=True),
], ids=["majority-float", "majority-bool", "tribes", "recursive-majority",
        "table-function", "uniform", "exact-twise-t", "exact-twise-field",
        "eps-biased", "eps-biased-field"])
def test_constructors_refuse_non_integer_sizes(build):
    # each was accepted, or failed with a bare TypeError, instead of refused
    with pytest.raises(ValidationError, match="is not an integer"):
        build()


def test_constructors_take_integral_floats_and_numpy_integers():
    # sizes are kept as ints, so descriptors are JSON integers
    assert type(Majority(3.0).arity) is type(Majority(np.int64(3)).arity) is int
    assert json.dumps(UniformBits(np.uint8(4)).descriptor()) == '{"kind": "uniform", "n_good": 4}'


@pytest.mark.parametrize("call", [
    lambda: Distribution.uniform(2.5),
    lambda: Distribution.uniform(-1),
    lambda: Distribution.exact(-1, [1.0]),
    lambda: Distribution.point_mass(-1, 0),
    lambda: TableFunction.constant(2.5, 1),
    lambda: TableFunction.constant(-1, 1),
    lambda: EpsBiased(57, True),
    lambda: EpsBiased(57, "0.5"),
    lambda: EpsBiased(57, float("nan")),
    lambda: UniformBits(4).sample_batch(1, 0, -3, 4),
    lambda: UniformBits(4).sample_batch(1, 0, 0, -3),
    lambda: verify_twise(ExactTwise(8, 2), 8, 2.5),
    lambda: build_good_code(True, 9, 4, seed=1),
], ids=["uniform-width", "uniform-negative", "exact-negative", "point-mass-negative",
        "constant-arity", "constant-negative", "epsilon-bool", "epsilon-str", "epsilon-nan",
        "negative-counter", "negative-count", "twise-t", "code-m"])
def test_bad_sizes_raise_validation_error(call):
    # each raised a bare ValueError, TypeError or OverflowError, was accepted
    # (epsilon True as 1.0), or returned nothing
    with pytest.raises(ValidationError):
        call()


def _params_9(n=9, ell=3):
    return explicit_params(n, ell, 3, preset_code("identity-3"), Majority(3))


@pytest.mark.parametrize("call, want", [
    (lambda: NobfSourceSpec(6.0, [1], UniformBits(5)).to_descriptor()["n"], 6),
    (lambda: NobfSourceSpec(True, [], UniformBits(1)), ValidationError),
    (lambda: NobfSourceSpec(6, [1], UniformBits(5), t=2.5), ValidationError),
    (lambda: NobfSourceSpec(6, [1], UniformBits(5), gamma="x"), ValidationError),
    (lambda: ConstantAdversary(1.0).descriptor(), {"kind": "constant", "pattern": 1}),
    (lambda: ConstantAdversary(True), ValidationError),
    (lambda: extract_batch(np.array([0b111000111], dtype=np.uint64),
                           _params_9(ell=3.0)).tolist(), [0b101]),
    (lambda: _params_9(n=9.0).to_json()["n"], 9),
    (lambda: derive_params(64, 0.5, 3.5), ValidationError),
    (lambda: derive_params(64, "0.5", 3), ValidationError),
    (lambda: Distribution.empirical(-1, [1]), ValidationError),
    (lambda: Distribution.empirical(2.0, [1, 2]).as_table().tolist(), [0.0, 0.5, 0.5, 0.0]),
    (lambda: xor_bias_product(["0.25"]), ValidationError),
], ids=["spec-n-float", "spec-n-bool", "spec-t-fraction", "spec-gamma-str",
        "constant-float", "constant-bool", "explicit-ell-float", "explicit-n-float",
        "derive-t-fraction", "derive-delta-str", "empirical-negative", "empirical-float",
        "xor-str"])
def test_constructors_read_sizes_and_real_numbers(call, want):
    # sizes by `schemas.integer` (3.0 reads as 3, True and 2.5 are refused)
    # and real numbers by `schemas.real`; each case raised a bare TypeError,
    # ValueError or OverflowError, kept a float or bool size, or took a string
    if want is ValidationError:
        with pytest.raises(ValidationError):
            call()
    else:
        assert json.dumps(call()) == json.dumps(want)


@pytest.mark.parametrize("workers", [0, -3, 2.0, "2", True])
def test_walks_refuse_a_worker_count_that_is_not_a_positive_integer(workers):
    # 0 and -3 ran on one thread, 2.0 and "2" raised a bare TypeError, and an
    # exact walk never read the count
    spec = NobfSourceSpec(9, [4], UniformBits(8))
    for exact in (False, True):
        with pytest.raises(ValidationError, match="worker"):
            fixedness_probability(spec, _params_9(), seed=1, samples=100, force_mc=not exact,
                                  workers=workers)
    with pytest.raises(ValidationError, match="worker"):
        influence_mc(Majority(3), [0], UniformBits(2), 100, 1, workers=workers)


def test_epsilon_takes_numpy_floats():
    assert EpsBiased(57, np.float64(0.01)).field_bits == EpsBiased(57, 0.01).field_bits
    assert EpsBiased(5, np.float32(0.5)).epsilon == 0.5


@pytest.mark.parametrize("samples", [2.5, 3.0, True, "3"])
def test_sampled_walk_refuses_a_sample_count_that_is_not_an_integer(samples):
    # 2.5 used to reach the chunk plan and fail on its float counters
    with pytest.raises(ValidationError, match="samples must be an integer"):
        UniformBits(2).walk(lambda goods, weights: 0, False, seed=1, samples=samples)
    with pytest.raises(ValidationError, match="samples must be an integer"):
        influence_mc(Majority(3), [0], UniformBits(2), samples, 1)


def test_good_dist_descriptor_round_trip():
    for gen in [UniformBits(5), ExactTwise(6, 2), EpsBiased(6, 0.25),
                ExplicitTable([0.25, 0.25, 0.25, 0.25])]:
        back = good_dist_from_descriptor(gen.descriptor())
        assert back.kind == gen.kind
        assert back.n_good == gen.n_good
        if gen.seed_bits is not None:
            assert back.seed_bits == gen.seed_bits
            seeds = np.arange(min(64, 1 << gen.seed_bits), dtype=np.uint64)
            assert np.array_equal(back.outcomes_for_seeds(seeds),
                                  gen.outcomes_for_seeds(seeds))
        else:
            assert np.array_equal(back.exact_table(), gen.exact_table())


def test_verify_twise_peak_does_not_grow_with_the_seed_space():
    # 2^18 and 2^20 seeds walked one chunk at a time: holding the four
    # chunks of 2^20 packed outcomes would add 6 MiB
    peaks = []
    for bits in (18, 20):
        tracemalloc.start()
        try:
            assert verify_twise(UniformBits(bits), bits, 1).ok
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2 ** 20


def test_verify_twise_work_cap():
    with pytest.raises(WorkCapExceeded):
        verify_twise(UniformBits(10), 10, 5, cap=100)
    # C(20, 3) gathers for each of 2^20 outcomes: refused before any walk
    start = time.perf_counter()
    with pytest.raises(WorkCapExceeded):
        verify_twise(UniformBits(20), 20, 3, cap=2 ** 16)
    assert time.perf_counter() - start < 1.0
    # one subset over a few thousand seeds, but a marginal table of 2^40
    with pytest.raises(WorkCapExceeded, match="t-wise verification") as exc:
        verify_twise(ExactTwise(40, 2), 40, 40)
    assert exc.value.required == 2 ** 40


# ---------------------------------------------------------------------------
# adversaries


def test_constant_adversary():
    adv = ConstantAdversary(0b101)
    assert np.array_equal(
        adv.bad_bits_batch(np.arange(4, dtype=np.uint64), 4, 3), [5, 5, 5, 5]
    )
    with pytest.raises(ValidationError):
        adv.bad_bits_batch(np.zeros(1, dtype=np.uint64), 4, 2)  # pattern wider than q


def test_parity_and_majority_adversaries():
    par = ParityOfGood()
    assert par.bad_bits_batch(np.array([0b1011, 0b1001], dtype=np.uint64),
                              4, 2).tolist() == [0b11, 0]
    maj = MajorityOfGood()
    assert maj.bad_bits_batch(np.array([0b1011, 0b0011], dtype=np.uint64),
                              4, 2).tolist() == [0b11, 0]  # tie -> 0
    goods = np.arange(16, dtype=np.uint64)
    for adv in (par, maj):
        batch = adv.bad_bits_batch(goods, 4, 2)
        assert [int(v) for v in batch] == [adversary_bad_bits(adv, g, 4, 2)
                                           for g in range(16)]


def test_table_adversary_and_missing_entries():
    adv = TableAdversary(2, {0: 1, 3: 0})
    assert adv.bad_bits_batch(np.array([0, 3], dtype=np.uint64), 2, 1).tolist() == [1, 0]
    with pytest.raises(ValidationError):
        adv.bad_bits_batch(np.array([0, 1], dtype=np.uint64), 2, 1)  # no entry for 1
    with pytest.raises(DimensionError):
        adv.bad_bits_batch(np.array([0], dtype=np.uint64), 3, 1)
    full = TableAdversary(2, [0, 1, 1, 0])
    assert full.bad_bits_batch(np.arange(4, dtype=np.uint64), 2, 1).tolist() == [0, 1, 1, 0]


@pytest.mark.parametrize("n_good, entries", [
    (3, [1.5] * 8), (3, [True] * 8), (3, np.full(8, 0.5)), (3, {0: 0.7}),
    (3, {"1.5": 0}), (3, {0.5: 1}), (3, {True: 1}), (2.5, [0] * 4), (True, [0, 0]),
    (2, [0, 1, float("nan"), 0]), (2, [0, 1, 2 ** 64, 0]), (2, [0, "1", 1, 0]),
    (2, np.array([0, 1, 1.5, 0], dtype=object)),
], ids=["float-list", "bool-list", "float-array", "float-value", "fraction-key",
        "float-key", "bool-key", "float-n_good", "bool-n_good", "nan", "beyond-int64",
        "string-entry", "object-array"])
def test_table_adversary_reads_integers_only(n_good, entries):
    # int() read [1.5] * 8 and [True] * 8 as all ones and {0: 0.7} as 0;
    # the key "1.5" raised a bare ValueError
    with pytest.raises(ValidationError):
        TableAdversary(n_good, entries)


def test_table_adversary_keeps_integral_values_and_digit_keys():
    assert TableAdversary(2, {"0": 1, 3: 2.0}).table.tolist() == [1, -1, -1, 2]
    for entries in ([0, 1.0, 1, 0], np.array([0, 1, 1, 0], dtype=np.uint8)):
        assert TableAdversary(2.0, entries).table.tolist() == [0, 1, 1, 0]


@pytest.mark.parametrize("entries", [[0, -5, 1, 0], {0: 0, 1: -5},
                                     np.array([0, -5, 1, 0], dtype=np.int8)],
                         ids=["list", "dict", "array"])
def test_table_adversary_refuses_negative_entries_but_the_sentinel(entries):
    # -1 alone marks a missing entry; -5 was accepted and later reported as
    # a gap at good outcome 1
    with pytest.raises(ValidationError, match="entry -5 for good outcome 1 is negative"):
        TableAdversary(2, entries)
    assert TableAdversary(2, [0, -1, 1, 0]).table.tolist() == [0, -1, 1, 0]
    assert TableAdversary(2, {0: 0, 1: -1}).table.tolist() == [0, -1, -1, -1]


def test_table_adversary_entry_wider_than_q_rejected_on_every_path():
    # entry 5 = 0b101 does not fit q = 2 bad bits; no path may truncate it
    spec = NobfSourceSpec(4, [2, 3], UniformBits(2), TableAdversary(2, [5, 0, 1, 2]))
    with pytest.raises(ValidationError):
        sample_nobf_batch(spec, 0, 16)
    with pytest.raises(ValidationError):
        enumerate_nobf(spec)


def test_adversary_descriptor_round_trip():
    for adv in [ConstantAdversary(3), ParityOfGood(), MajorityOfGood(),
                TableAdversary(2, [0, 1, 1, 0])]:
        back = adversary_from_descriptor(adv.descriptor())
        assert back.kind == adv.kind
        goods = np.arange(4, dtype=np.uint64)
        assert np.array_equal(back.bad_bits_batch(goods, 2, 2),
                              adv.bad_bits_batch(goods, 2, 2))


# ---------------------------------------------------------------------------
# the composed source


def _parity_spec(n=6, bad=(1, 4)):
    return NobfSourceSpec(n, bad, UniformBits(n - len(bad)), ParityOfGood())


def test_spec_positions_and_compose():
    spec = _parity_spec()
    assert spec.q == 2
    assert spec.bad_positions == (1, 4)
    assert spec.good_positions == (0, 2, 3, 5)
    # good bits j land at good_positions[j], bad bits at bad_positions[j]
    x = spec.compose_batch(np.array([0b0001], dtype=np.uint64),
                           np.array([0b10], dtype=np.uint64))
    assert int(x[0]) == (1 << 0) | (1 << 4)


def test_spec_validation():
    with pytest.raises(ValidationError):
        NobfSourceSpec(4, [4], UniformBits(3))
    with pytest.raises(DimensionError):
        NobfSourceSpec(4, [0], UniformBits(4))
    with pytest.raises(ValidationError):
        NobfSourceSpec(4, [0], UniformBits(3), t=4)  # t > n - q
    with pytest.raises(ValidationError):
        NobfSourceSpec(6, [0], ExactTwise(5, 2), t=3)  # beyond the guarantee
    with pytest.raises(ValidationError):
        NobfSourceSpec(0, [], UniformBits(0))
    for gamma in [-0.5, float("nan"), float("inf")]:
        with pytest.raises(ValidationError):
            NobfSourceSpec(4, [0], UniformBits(3), gamma=gamma)
    spec = NobfSourceSpec(6, [0], ExactTwise(5, 2))
    assert spec.t == 2  # defaulted from the generator


def test_sampling_chunk_invariance_and_determinism():
    spec = _parity_spec()
    whole = sample_nobf_batch(spec, 7, 100)
    again = sample_nobf_batch(spec, 7, 100)
    assert np.array_equal(whole, again)
    parts = np.concatenate([
        sample_nobf_batch(spec, 7, 30, start=0),
        sample_nobf_batch(spec, 7, 45, start=30),
        sample_nobf_batch(spec, 7, 25, start=75),
    ])
    assert np.array_equal(parts, whole)
    assert not np.array_equal(whole, sample_nobf_batch(spec, 8, 100))


def test_adversary_constraint_holds_on_samples():
    spec = _parity_spec()
    xs = sample_nobf_batch(spec, 3, 500)
    for x in xs.tolist():
        expect = sum(x >> p & 1 for p in spec.good_positions) & 1
        assert x >> 1 & 1 == expect and x >> 4 & 1 == expect


def test_enumerate_matches_empirical():
    spec = _parity_spec()
    exact = enumerate_nobf(spec)
    assert exact.as_table().sum() == pytest.approx(1.0)
    xs = sample_nobf_batch(spec, 11, 1 << 15)
    emp = Distribution.empirical(6, xs).as_table()
    assert 0.5 * np.abs(emp - exact.as_table()).sum() < 0.02


def test_enumerate_support_respects_adversary():
    spec = _parity_spec()
    table = enumerate_nobf(spec).as_table()
    for x in np.nonzero(table)[0].tolist():
        expect = sum(x >> p & 1 for p in spec.good_positions) & 1
        assert x >> 1 & 1 == expect and x >> 4 & 1 == expect


def test_zeroed_counterpart_good_marginal_unchanged():
    spec = _parity_spec()
    zero = zeroed_counterpart(spec)
    a = enumerate_nobf(spec).marginal(spec.good_positions).as_table()
    b = enumerate_nobf(zero).marginal(spec.good_positions).as_table()
    assert np.allclose(a, b)
    # and the zeroed source really pins the bad coordinates
    zt = enumerate_nobf(zero).as_table()
    for x in np.nonzero(zt)[0].tolist():
        assert x >> 1 & 1 == 0 and x >> 4 & 1 == 0


def test_spec_descriptor_round_trip():
    spec = NobfSourceSpec(8, [2, 5], ExactTwise(6, 2), MajorityOfGood(), gamma=0.0)
    d = spec.to_descriptor()
    assert d["format"] == "nobf-source-spec"
    back = NobfSourceSpec.from_descriptor(json.loads(json.dumps(d)))
    assert back.n == spec.n
    assert back.bad_positions == spec.bad_positions
    assert back.t == spec.t
    assert np.array_equal(sample_nobf_batch(back, 5, 64),
                          sample_nobf_batch(spec, 5, 64))


def test_packed_width_enforced_on_views_and_batches():
    # one packed value is one uint64; wider values raise instead of truncating
    wide = NobfSourceSpec(70, [0], UniformBits(69), ParityOfGood())
    with pytest.raises(WorkCapExceeded):
        sample_nobf_batch(wide, 0, 4)
    with pytest.raises(WorkCapExceeded):
        UniformBits(65).sample_batch(1, 0, 0, 4)
    with pytest.raises(WorkCapExceeded):
        ExactTwise(71, 8).sample_batch(1, 0, 0, 4)
    # 64 bits still fit
    top = np.array([2 ** 64 - 1], dtype=np.uint64)
    assert UniformBits(64).outcomes_for_seeds(top).tolist() == [2 ** 64 - 1]
    assert ParityOfGood().bad_bits_batch(np.ones(1, dtype=np.uint64), 1,
                                         64).tolist() == [2 ** 64 - 1]


@pytest.mark.parametrize("adversary", [
    ConstantAdversary(1), ParityOfGood(), MajorityOfGood(), TableAdversary(2, [0, 1, 1, 0])])
def test_adversary_kernels_refuse_widths_beyond_one_word(adversary):
    # every strategy's kernel checks both widths before it runs, so no
    # width is truncated and no bare OverflowError escapes
    goods = np.arange(4, dtype=np.uint64)
    for n_good, q in [(4, 65), (70, 2), (65, 65)]:
        with pytest.raises(WorkCapExceeded, match="packed (good|bad)-bit width"):
            adversary.bad_bits_batch(goods, n_good, q)
    assert adversary.bad_bits_batch(goods, 2, 64).shape == goods.shape


def test_sample_nobf_scalar():
    spec = _parity_spec()
    x = int(sample_nobf_batch(spec, 9, 1)[0])
    assert x >> 6 == 0
    assert x >> 1 & 1 == sum(x >> p & 1 for p in spec.good_positions) & 1


# ---------------------------------------------------------------------------
# sample-batch files


def test_sample_batch_file_round_trip(tmp_path):
    spec = _parity_spec()
    samples = sample_nobf_batch(spec, 13, 40)
    path = tmp_path / "batch.samples"
    write_sample_batch(path, spec, samples, seed=13)
    header, back = read_sample_batch(path)
    assert header["format"] == "nobf-samples"
    assert header["n"] == 6 and header["count"] == 40 and header["seed"] == 13
    assert np.array_equal(back, samples)


def test_sample_batch_hex_lines_are_lsb_nibble_first(tmp_path):
    spec = NobfSourceSpec(6, [], UniformBits(6), ConstantAdversary(0))
    path = tmp_path / "one.samples"
    write_sample_batch(path, spec, np.array([0b001011], dtype=np.uint64), seed=0)
    lines = path.read_text().splitlines()
    assert lines[1] == "b0"
    assert ints_from_words(words_from_hex([lines[1]], 6)) == [0b001011]


def test_sample_batch_count_mismatch_rejected(tmp_path):
    spec = _parity_spec()
    path = tmp_path / "bad.samples"
    write_sample_batch(path, spec, sample_nobf_batch(spec, 1, 5), seed=1)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-1]) + "\n")  # drop a sample line
    with pytest.raises(ValidationError):
        read_sample_batch(path)


def test_sample_batch_header_checked_against_schema(tmp_path):
    path = tmp_path / "h.samples"
    good = {"count": 1, "format": "nobf-samples", "n": 6, "seed": 0, "stream": 0}
    for header in [{k: v for k, v in good.items() if k != "stream"},
                   {**good, "n": "6"}, {**good, "format": "nobf-source-spec"},
                   [good]]:
        path.write_text(json.dumps(header) + "\nb0\n")
        with pytest.raises(ValidationError):
            read_sample_batch(path)
    path.write_text("{not json\nb0\n")
    with pytest.raises(ValidationError):
        read_sample_batch(path)
