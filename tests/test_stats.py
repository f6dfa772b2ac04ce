"""Distance, parity-bias spectra, and interval estimates."""

import itertools
import math

import mpmath
import numpy as np
import pytest

import oracles
from nobfext import stats
from nobfext.errors import DimensionError, ValidationError, WorkCapExceeded
from nobfext.sources import Distribution, UniformBits
from nobfext.stats import (CP_MARGIN, Estimate, _log_beta, binomial_estimate,
                           clopper_pearson, fwht, linear_test_bias,
                           parseval_bound, required_samples, sd_of_tables,
                           sd_to_uniform_empirical, statistical_distance,
                           vazirani_check, xor_bias_product)


# ---------------------------------------------------------------------------
# estimates


def test_estimate_basics():
    e = Estimate(value=0.4, lo=0.3, hi=0.6, samples=100, confidence=0.99,
                 method="clopper-pearson")
    assert not e.is_exact
    assert e.width == pytest.approx(0.3)
    assert e.contains(0.3) and e.contains(0.6) and not e.contains(0.61)
    x = Estimate.exact_value(0.25)
    assert x.is_exact and x.width == 0.0
    with pytest.raises(ValidationError):
        Estimate(value=0.7, lo=0.3, hi=0.6)


def test_clopper_pearson_edges_and_coverage():
    lo, hi = clopper_pearson(0, 50)
    assert lo == 0.0 and 0.0 < hi < 0.2
    lo, hi = clopper_pearson(50, 50)
    assert hi == 1.0 and 0.8 < lo < 1.0
    lo, hi = clopper_pearson(25, 50)
    assert lo < 0.5 < hi
    with pytest.raises(ValidationError):
        clopper_pearson(5, 4)


@pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99, 0.999])
def test_clopper_pearson_contains_beta_ppf(confidence):
    # Every k for n <= 60 (so k = 0, k = n and n = 1), then seeded random
    # (k, n) with n up to 10^7 and the ends of a few large n.  Each bound is
    # scipy's beta quantile rounded outward by CP_MARGIN, so it lies outside
    # scipy's and within twice the margin of it.
    grid = [(k, n) for n in range(1, 61) for k in range(n + 1)]
    rng = np.random.default_rng(2024)
    ns = rng.integers(1, 10**7, size=300, endpoint=True)
    grid += zip(rng.integers(0, ns, endpoint=True).tolist(), ns.tolist())
    grid += [(k, n) for n in (997, 10**6, 10**7)
             for k in (0, 1, 2, 3, n - 3, n - 2, n - 1, n)]
    ks, ns = np.array(grid).T
    want_lo, want_hi = oracles.clopper_pearson(ks, ns, confidence)
    lo, hi = np.array([clopper_pearson(k, n, confidence) for k, n in grid]).T
    assert np.all(lo <= want_lo) and np.all(hi >= want_hi)
    assert np.all(lo[ks == 0] == 0.0) and np.all(hi[ks == ns] == 1.0)
    for got, want in ((lo, want_lo), (hi, want_hi)):
        inner = want > 0.0
        assert np.max(np.abs(got[inner] - want[inner]) / want[inner]) <= 2 * CP_MARGIN


@pytest.mark.parametrize("k, n", [(1, 10**7), (3, 10**7), (9, 10**7), (10, 10**7),
                                  (5 * 10**6, 5 * 10**6), (1, 1), (3, 7), (12, 40)])
def test_log_beta_does_not_cancel(k, n):
    # lgamma(a) + lgamma(b) - lgamma(a + b) is off by about 1e-8 at (1, 10^7)
    with mpmath.workdps(40):
        want = float(mpmath.log(mpmath.beta(k, n)))
    assert abs(_log_beta(k, n) - want) <= 1e-14 * max(1.0, abs(want))


@pytest.mark.parametrize("k, n, confidence, argument", [
    (1.0, 10, 0.99, "k"), (True, 10, 0.99, "k"), (np.True_, 10, 0.99, "k"),
    ("1", 10, 0.99, "k"), (1, 10.0, 0.99, "n"), (1, False, 0.99, "n"),
    (1, 0, 0.99, "n"), (-1, 10, 0.99, "k"), (11, 10, 0.99, "k"),
    (1, 10, 1.5, "confidence"), (1, 10, 1.0, "confidence"),
    (1, 10, 0.0, "confidence"), (1, 10, -0.5, "confidence"),
    (1, 10, math.nan, "confidence"), (1, 10, math.inf, "confidence"),
    (1, 10, "0.9", "confidence"), (1, 10, True, "confidence"),
    (1, 10, None, "confidence"),
])
def test_clopper_pearson_input_contract(k, n, confidence, argument):
    with pytest.raises(ValidationError, match=rf"\b{argument}\b"):
        clopper_pearson(k, n, confidence)


def test_clopper_pearson_accepts_numpy_numbers():
    want = clopper_pearson(7, 300, 0.95)
    assert clopper_pearson(np.int64(7), np.uint32(300), np.float64(0.95)) == want
    assert binomial_estimate(np.int64(7), np.int64(300)).to_json() == \
        binomial_estimate(7, 300).to_json()


def test_beta_quantile_ends_on_nan(monkeypatch):
    # every root-finding loop is bounded: a tail that is NaN everywhere
    # still returns a point of (0, 1) instead of hanging
    monkeypatch.setattr(stats, "_beta_tail", lambda *args: math.nan)
    x = stats._beta_quantile(0.005, 3.0, 5.0)
    assert 0.0 < x < 1.0


def test_clopper_pearson_empirical_coverage():
    # 99% intervals on 200 repeated binomial(300, 0.3) experiments
    rng = np.random.default_rng(12)
    misses = 0
    for _ in range(200):
        k = int(rng.binomial(300, 0.3))
        est = binomial_estimate(k, 300)
        if not est.contains(0.3):
            misses += 1
    assert misses <= 6  # expected 2, generous slack


# ---------------------------------------------------------------------------
# statistical distance


def test_sd_examples():
    u2 = Distribution.uniform(2)
    assert statistical_distance(u2, u2) == 0.0
    p = Distribution.point_mass(2, 0)
    assert statistical_distance(p, u2) == pytest.approx(0.75)
    q = Distribution.point_mass(2, 3)
    assert statistical_distance(p, q) == pytest.approx(1.0)
    with pytest.raises(DimensionError):
        statistical_distance(u2, Distribution.uniform(3))


def test_sd_is_a_metric_on_random_tables():
    rng = np.random.default_rng(1)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        tables = []
        for _ in range(3):
            w = rng.exponential(size=1 << m)
            tables.append(Distribution.exact(m, w / w.sum()))
        p, q, r = tables
        dpq = statistical_distance(p, q)
        assert dpq == pytest.approx(statistical_distance(q, p))
        assert 0.0 <= dpq <= 1.0
        assert statistical_distance(p, p) == 0.0
        assert dpq <= statistical_distance(p, r) + statistical_distance(r, q) + 1e-12


def test_sd_of_tables_matches():
    a = np.array([0.5, 0.5, 0.0, 0.0])
    b = np.array([0.25, 0.25, 0.25, 0.25])
    assert sd_of_tables(a, b) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Walsh-Hadamard and the bias spectrum


def _fwht_naive(a):
    n = a.size
    m = n.bit_length() - 1
    out = np.zeros(n)
    for s in range(n):
        for x in range(n):
            out[s] += a[x] * ((-1) ** bin(s & x).count("1"))
    return out


def test_fwht_matches_naive():
    rng = np.random.default_rng(2)
    for m in range(0, 7):
        a = rng.normal(size=1 << m)
        assert np.allclose(fwht(a), _fwht_naive(a))
    with pytest.raises(ValidationError):
        fwht(np.ones(3))


def test_fwht_involution():
    rng = np.random.default_rng(3)
    a = rng.normal(size=64)
    assert np.allclose(fwht(fwht(a)) / 64, a)


def test_spectrum_uniform_and_point_mass():
    spec = linear_test_bias(Distribution.uniform(3))
    assert spec.biases[0] == pytest.approx(1.0)
    assert spec.max_bias == pytest.approx(0.0)
    point = linear_test_bias(Distribution.point_mass(3, 5))
    assert point.max_bias == pytest.approx(1.0)  # every parity deterministic


def test_spectrum_matches_direct_parity_bias():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        w = rng.exponential(size=1 << m)
        d = Distribution.exact(m, w / w.sum())
        spec = linear_test_bias(d)
        table = d.as_table()
        for s in range(1, 1 << m):
            p1 = sum(table[x] for x in range(1 << m)
                     if bin(x & s).count("1") % 2 == 1)
            assert spec.bias(s) == pytest.approx(abs((1 - p1) - p1), abs=1e-12)


def test_spectrum_copied_bit():
    # two identical bits: the pair parity is constant, single bits unbiased
    d = Distribution.exact(2, [0.5, 0.0, 0.0, 0.5])
    spec = linear_test_bias(d)
    assert spec.bias(0b01) == pytest.approx(0.0)
    assert spec.bias(0b10) == pytest.approx(0.0)
    assert spec.bias(0b11) == pytest.approx(1.0)
    assert spec.argmax_subset == 0b11


def test_spectrum_work_cap():
    with pytest.raises(WorkCapExceeded):
        linear_test_bias(Distribution(m=21, samples=np.zeros(4, dtype=np.uint64)))


# ---------------------------------------------------------------------------
# the two SD bounds from the spectrum


def test_vazirani_holds_on_random_tables():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        w = rng.exponential(size=1 << m)
        rep = vazirani_check(Distribution.exact(m, w / w.sum()))
        assert rep.holds, f"bound violated: {rep}"
        assert rep.bound == pytest.approx(rep.max_bias * 2 ** (m / 2))


def test_vazirani_copied_bit_exact_numbers():
    d = Distribution.exact(2, [0.5, 0.0, 0.0, 0.5])
    rep = vazirani_check(d)
    assert rep.sd == pytest.approx(0.5)
    assert rep.max_bias == pytest.approx(1.0)
    assert rep.bound == pytest.approx(2.0)
    assert rep.holds


def test_parseval_bound_tighter_than_vazirani_and_valid():
    rng = np.random.default_rng(6)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        w = rng.exponential(size=1 << m)
        d = Distribution.exact(m, w / w.sum())
        sd = statistical_distance(d, Distribution.uniform(m))
        pb = parseval_bound(d)
        vz = vazirani_check(d)
        assert sd <= pb + 1e-12
        assert pb <= vz.bound + 1e-12


def test_parseval_copied_bit():
    d = Distribution.exact(2, [0.5, 0.0, 0.0, 0.5])
    assert parseval_bound(d) == pytest.approx(0.5)  # tight here


# ---------------------------------------------------------------------------
# XOR of independent bits


def test_xor_product_example():
    rep = xor_bias_product([0.1, 0.2, 0.25])
    assert rep.distance == pytest.approx(0.5 * 0.2 * 0.4 * 0.5)
    assert rep.literal_bound is None  # factors differ


def test_xor_product_matches_brute_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        t = int(rng.integers(1, 7))
        ds = rng.uniform(0, 0.5, size=t).tolist()
        rep = xor_bias_product(ds)
        assert rep.distance == pytest.approx(oracles.xor_distance_brute(ds), abs=1e-12)


def test_xor_literal_bound_comparison():
    # one bit: e^1 equals the exact value
    rep1 = xor_bias_product([0.3])
    assert rep1.literal_bound == pytest.approx(0.3)
    assert rep1.literal_holds
    # two or more bits at equal distance 0 < e < 1/2: the literal form
    # e^t undershoots the exact (1/2)(2e)^t = 2^{t-1} e^t
    rep2 = xor_bias_product([0.2, 0.2])
    assert rep2.distance == pytest.approx(0.08)
    assert rep2.literal_bound == pytest.approx(0.04)
    assert rep2.literal_holds is False
    # the exact value is still correct; the brute oracle agrees
    assert rep2.distance == pytest.approx(oracles.xor_distance_brute([0.2, 0.2]))
    # only the zero end is degenerate enough for the literal form to hold
    assert xor_bias_product([0.0, 0.0]).literal_holds
    assert xor_bias_product([0.5, 0.5]).literal_holds is False


def test_xor_validation():
    with pytest.raises(ValidationError):
        xor_bias_product([])
    with pytest.raises(ValidationError):
        xor_bias_product([0.6])


# ---------------------------------------------------------------------------
# empirical SD to uniform


def test_required_samples():
    assert required_samples(2) == 400
    assert required_samples(10) == 100 * 1024


def test_sd_to_uniform_empirical_uniform_draws():
    draws = UniformBits(3).sample_batch(9, 0, 0, 4000)
    est = sd_to_uniform_empirical(draws, 3)
    assert est.lo <= est.value <= est.hi
    assert est.value < 0.1      # plug-in SD of uniform data is small
    assert est.contains(0.0) or est.lo < 0.05


def test_sd_to_uniform_empirical_biased_draws():
    # constant outcome: true SD = 1 - 2^-m
    draws = np.zeros(4000, dtype=np.uint64)
    est = sd_to_uniform_empirical(draws, 2)
    assert est.contains(0.75)
    assert est.value == pytest.approx(0.75, abs=1e-9)


def test_sd_to_uniform_empirical_guards():
    with pytest.raises(ValidationError):
        sd_to_uniform_empirical(np.zeros(100, dtype=np.uint64), 2)  # undersampled
    with pytest.raises(WorkCapExceeded):
        sd_to_uniform_empirical(np.zeros(10, dtype=np.uint64), 17)
