"""Distributional measurement: statistical distance, linear-test bias
spectra, XOR composition of independent bits, and empirical estimates.

Monte-Carlo estimates carry Clopper-Pearson intervals whose ends are beta
quantiles.  They are computed here in float64, with no scipy: the
regularized incomplete beta function I_x(a, b) is a continued fraction,
and `_beta_quantile` inverts it by a bracketed Halley iteration.  Each end
is then rounded outward by the relative margin `CP_MARGIN`, which is wider
than the kernel's error, so every interval contains the exact one.

Conventions
-----------
The bias of a parity test S is |Pr[parity = 0] - Pr[parity = 1]|, which is
exactly twice the statistical distance of that single bit from uniform.
All conversions between the two happen here; callers should never multiply
or divide by two themselves.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, Frozen, ValidationError, WorkCapExceeded
from .schemas import check_count, real
from .sources import Distribution

SPECTRUM_M_CAP = 20
EMPIRICAL_M_CAP = 16
EMPIRICAL_MIN_FACTOR = 100   # required samples per table cell
CP_MARGIN = 1e-9             # relative outward rounding of each interval end


class Estimate(Frozen):
    """A point estimate with a two-sided interval.

    `method` records how the interval was produced ("exact" intervals are
    zero width).  `contains` is inclusive on both ends.
    """

    __slots__ = ("value", "lo", "hi", "samples", "confidence", "method")

    def __init__(self, value: float, lo: float, hi: float, samples: int = 0,
                 confidence: float = 1.0, method: str = "exact"):
        super().__init__(value, lo, hi, samples, confidence, method)
        if not (lo <= value <= hi):
            raise ValidationError("estimate value outside its interval")

    @classmethod
    def exact_value(cls, v: float) -> "Estimate":
        return cls(value=float(v), lo=float(v), hi=float(v))

    @property
    def is_exact(self) -> bool:
        return self.method == "exact"

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


# Stirling series of lgamma(x) - ((x - 1/2) ln x - x + ln sqrt(2 pi)): the
# coefficients B_2j / (2j (2j - 1)) of x^(1 - 2j), j = 1..8.  For x >= 10 the
# first omitted term is below 2e-18.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_TINY = 1e-300           # stands in for a zero Lentz denominator
_CF_TERMS = 100_000      # bound on continued-fraction terms
_QUANTILE_STEPS = 200    # bound on root-finding steps


def _stirling_correction(x: float) -> float:
    s = 0.0
    for c in reversed(_STIRLING):
        s = s / (x * x) + c
    return s / x


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b) for a, b >= 1 without the cancellation of
    lgamma(a) + lgamma(b) - lgamma(a + b): arguments >= 10 enter through
    differences of Stirling corrections, as in R's `lbeta`."""
    p, q = min(a, b), max(a, b)
    if p >= 10:
        corr = (_stirling_correction(p) + _stirling_correction(q)
                - _stirling_correction(p + q))
        return (-0.5 * math.log(q) + _LN_SQRT_2PI + corr
                + (p - 0.5) * math.log(p / (p + q)) + q * math.log1p(-p / (p + q)))
    if q >= 10:
        corr = _stirling_correction(q) - _stirling_correction(p + q)
        return (math.lgamma(p) + corr + p - p * math.log(p + q)
                + (q - 0.5) * math.log1p(-p / (p + q)))
    return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) divided by x^a y^b / B(a, b), for y = 1 - x and
    lam = a - (a + b) x >= 0: the continued fraction of DiDonato and Morris
    (ACM TOMS 708, `bfrac`), evaluated by the modified Lentz method.  Its
    coefficients take x, y and lam separately, so the side that is small
    keeps its relative precision when the caller swaps the two."""
    c, c0, c1 = lam + 1.0, b / a, 1.0 + 1.0 / a
    f = c / c1
    lentz_c, lentz_d = f, 0.0
    for i in range(1, _CF_TERMS):
        t = i / a
        s = a + 2 * i - 1
        w = i * (b - i) * x
        p = 1.0 + (i - 1) / a
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        beta = i + w / s + (t + 1.0) / (c1 + t + t) * (c + i * (y + 1.0))
        lentz_d = 1.0 / (beta + alpha * lentz_d or _TINY)
        lentz_c = beta + alpha / lentz_c or _TINY
        delta = lentz_c * lentz_d
        f *= delta
        if abs(delta - 1.0) <= 2.0 ** -52:
            break
    return 1.0 / f


def _beta_tail(x: float, a: float, b: float, log_beta: float, upper: bool) -> float:
    """I_x(a, b), or 1 - I_x(a, b) when `upper`.  The fraction is evaluated
    on the side of the mean where it converges fast (the symmetry
    I_x(a, b) = 1 - I_(1-x)(b, a), Numerical Recipes section 6.4)."""
    lam = a - (a + b) * x
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta)
    if lam >= 0.0:
        below = front * _beta_fraction(a, b, x, 1.0 - x, lam)
        return 1.0 - below if upper else below
    above = front * _beta_fraction(b, a, 1.0 - x, x, -lam)
    return above if upper else 1.0 - above


def _beta_quantile(p: float, a: float, b: float, upper: bool = False) -> float:
    """The x in (0, 1) at which the lower tail I_x(a, b), or the upper tail
    when `upper`, equals p, for a, b >= 1 and 0 < p <= 1/2.

    Halley steps start from the normal approximation of Abramowitz and
    Stegun 26.5.22 and stay inside a bracket of the root; a step that would
    leave it bisects instead.  Both loops are bounded, so a NaN anywhere
    ends the search rather than hanging it."""
    log_beta = _log_beta(a, b)
    t = math.sqrt(-2.0 * math.log(p))
    z = (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t)) - t
    z = z if upper else -z
    al = (z * z - 3.0) / 6.0
    h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
    w = (z * math.sqrt(al + h) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0))
         * (al + 5.0 / 6.0 - 2.0 / (3.0 * h)))
    x = a / (a + b * math.exp(2.0 * w))
    lo, hi = 0.0, 1.0
    sign = -1.0 if upper else 1.0      # the tail's slope in x
    for _ in range(_QUANTILE_STEPS):
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        err = _beta_tail(x, a, b, log_beta, upper) - p
        if err == 0.0:
            return x
        if sign * err < 0.0:
            lo = x
        else:
            hi = x
        density = math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)
                           - log_beta)
        newton = sign * err / density if density > 0.0 else math.nan
        curvature = newton * ((a - 1.0) / x - (b - 1.0) / (1.0 - x))
        step = newton / (1.0 - 0.5 * max(-1.0, min(1.0, curvature)))
        if abs(step) <= 1e-13 * x:
            return x - step
        x -= step
        if hi - lo <= 1e-13 * lo:
            break
    return x if lo < x < hi else 0.5 * (lo + hi)


def clopper_pearson(k: int, n: int, confidence: float = 0.99) -> tuple[float, float]:
    """Two-sided Clopper-Pearson interval for k successes in n trials: the
    alpha/2 quantile of Beta(k, n-k+1) and the 1-alpha/2 quantile of
    Beta(k+1, n-k), with alpha = 1 - confidence, each rounded outward by
    the relative margin `CP_MARGIN`.  The ends at k = 0 and k = n are 0.0
    and 1.0 exactly.  The result depends on (k, n, confidence) alone."""
    k, n = check_count(k, "k"), check_count(n, "n")
    if not 0.0 < real(confidence, "confidence") < 1.0:
        raise ValidationError("confidence must be a finite number strictly "
                              f"between 0 and 1, got {confidence!r}")
    if n <= 0:
        raise ValidationError(f"n must be at least 1 trial, got {n}")
    if not 0 <= k <= n:
        raise ValidationError(f"k must be in 0..n = 0..{n}, got {k}")
    alpha = 1.0 - float(confidence)
    lo = 0.0 if k == 0 else _beta_quantile(alpha / 2, k, n - k + 1)
    hi = 1.0 if k == n else _beta_quantile(alpha / 2, k + 1, n - k, upper=True)
    return lo * (1.0 - CP_MARGIN), min(1.0, hi * (1.0 + CP_MARGIN))


def binomial_estimate(k: int, n: int, confidence: float = 0.99) -> Estimate:
    lo, hi = clopper_pearson(k, n, confidence)
    return Estimate(value=k / n, lo=lo, hi=hi, samples=n,
                    confidence=confidence, method="clopper-pearson")


def statistical_distance(p: Distribution, q: Distribution) -> float:
    """Half the L1 difference of the two probability tables.

    Empirical inputs are converted to plug-in tables first, so the result
    is itself an estimate in that case; exact inputs give the exact value.
    """
    if p.m != q.m:
        raise DimensionError(f"width mismatch: {p.m} vs {q.m}")
    return sd_of_tables(p.as_table(), q.as_table())


def sd_of_tables(pt: np.ndarray, qt) -> float:
    """Half the L1 difference of two tables; qt may be a scalar."""
    return 0.5 * float(np.abs(np.asarray(pt, dtype=np.float64)
                              - np.asarray(qt, dtype=np.float64)).sum())


def fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a length-2^m array.

    out[s] = sum_x (-1)^{<s, x>} a[x].
    """
    a = np.asarray(a, dtype=np.float64).copy()
    n = a.size
    if n & (n - 1):
        raise ValidationError("length must be a power of two")
    h = 1
    while h < n:
        a = a.reshape(-1, 2, h)
        lo = a[:, 0, :] + a[:, 1, :]
        hi = a[:, 0, :] - a[:, 1, :]
        a = np.stack([lo, hi], axis=1)
        h *= 2
    return a.reshape(n)


class BiasSpectrum(Frozen):
    """Bias of every parity test of an m-bit distribution.

    `biases[s]` is |Pr[Z_s = 0] - Pr[Z_s = 1]| for the parity over the
    subset encoded by bitmask s; entry 0 (the empty test) is always 1 and
    excluded from `max_bias`.
    """

    __slots__ = ("m", "biases")

    def __init__(self, m: int, biases: np.ndarray):
        super().__init__(m, biases)
        if biases.size != 1 << m:
            raise DimensionError("spectrum table has wrong size")

    def __repr__(self) -> str:
        return f"BiasSpectrum(m={self.m!r})"

    @property
    def max_bias(self) -> float:
        if self.m == 0:
            return 0.0
        return float(self.biases[1:].max())

    @property
    def argmax_subset(self) -> int:
        if self.m == 0:
            return 0
        return 1 + int(self.biases[1:].argmax())

    def bias(self, subset: int) -> float:
        if not 0 < subset < (1 << self.m):
            raise ValidationError("subset mask must be nonempty and within width")
        return float(self.biases[subset])

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "max_bias": self.max_bias,
            "argmax_subset": self.argmax_subset,
            "biases": {str(s): float(self.biases[s]) for s in range(1, 1 << self.m)},
        }


def linear_test_bias(d: Distribution) -> BiasSpectrum:
    """Exhaustive bias spectrum via one Walsh-Hadamard pass."""
    if d.m > SPECTRUM_M_CAP:
        raise WorkCapExceeded(required=1 << d.m, cap=1 << SPECTRUM_M_CAP,
                              what="bias spectrum width")
    coeffs = fwht(d.as_table())
    return BiasSpectrum(m=d.m, biases=np.abs(coeffs))


class VaziraniReport(Frozen):
    __slots__ = ("max_bias", "sd", "bound", "holds")

    def __init__(self, max_bias: float, sd: float, bound: float, holds: bool):
        super().__init__(max_bias, sd, bound, holds)


def vazirani_check(d: Distribution, tol: float = 1e-12) -> VaziraniReport:
    """Check SD(D, U_m) <= max parity bias * 2^{m/2}.

    This inequality is a theorem; `holds=False` on any input indicates an
    implementation bug, and tests treat it as build-breaking.
    """
    spec = linear_test_bias(d)
    sd = statistical_distance(d, Distribution.uniform(d.m))
    bound = spec.max_bias * math.sqrt(2.0 ** d.m)
    return VaziraniReport(max_bias=spec.max_bias, sd=sd, bound=bound,
                          holds=sd <= bound + tol)


def parseval_bound(d: Distribution) -> float:
    """(1/2) * sqrt(sum of squared parity biases); an upper bound on
    SD(D, U_m) that is never weaker than the max-bias bound."""
    spec = linear_test_bias(d)
    return 0.5 * float(np.sqrt(np.square(spec.biases[1:]).sum()))


class XorBiasReport(Frozen):
    """Exact distance from uniform of the XOR of independent bits.

    `distance` is the statistical distance of the XOR bit from uniform,
    computed by the product identity (1/2) * prod(2 e_i) where e_i are the
    per-bit distances.  When all inputs share a common distance e, the
    report also evaluates the literal bound e^t; that bound is strictly
    smaller than the exact value for t >= 2 and 0 < e < 1/2, so
    `literal_holds` is then False.  The discrepancy is reported, not
    enforced.
    """

    __slots__ = ("distance", "factors", "literal_bound", "literal_holds")

    def __init__(self, distance: float, factors: tuple[float, ...],
                 literal_bound: float | None, literal_holds: bool | None):
        super().__init__(distance, factors, literal_bound, literal_holds)

    def to_json(self) -> dict:
        return {
            "distance": self.distance,
            "factors": list(self.factors),
            "literal_bound": self.literal_bound,
            "literal_holds": self.literal_holds,
        }


def xor_bias_product(distances) -> XorBiasReport:
    """Distance from uniform of the XOR of independent bits.

    Each input is the statistical distance of one bit from uniform, in
    [0, 1/2].  The XOR's distance is exactly (1/2) * prod(2 e_i): writing
    each bit as Pr[1] = 1/2 +- e_i, the XOR's deviation multiplies.
    """
    ds = [real(e, "per-bit distance") for e in distances]
    if not ds:
        raise ValidationError("need at least one bit")
    for e in ds:
        if not 0.0 <= e <= 0.5:
            raise ValidationError(f"per-bit distance {e} outside [0, 1/2]")
    prod = 1.0
    for e in ds:
        prod *= 2.0 * e
    distance = 0.5 * prod
    literal = None
    literal_holds = None
    if len(set(ds)) == 1:
        literal = ds[0] ** len(ds)
        literal_holds = distance <= literal + 1e-15
    return XorBiasReport(distance=distance, factors=tuple(ds),
                         literal_bound=literal, literal_holds=literal_holds)


def required_samples(m: int) -> int:
    return EMPIRICAL_MIN_FACTOR * (1 << m)


def plugin_sd_estimate(value: float, samples: int, m: int, alpha: float,
                       confidence: float, tables: int = 1) -> Estimate:
    """A plug-in SD `value` from `tables` empirical tables of 2^m cells and
    N `samples` each, +- per table a bounded-difference deviation term
    sqrt(ln(2/alpha) / (2N)) and a plug-in bias term (1/2) sqrt(2^m / N)."""
    dev = math.sqrt(math.log(2.0 / alpha) / (2.0 * samples))
    bound = tables * (dev + 0.5 * math.sqrt((1 << m) / samples))
    return Estimate(value=value, lo=max(0.0, value - bound),
                    hi=min(1.0, value + bound), samples=samples,
                    confidence=confidence, method="plug-in")


def sd_to_uniform_empirical(samples, m: int, confidence: float = 0.99) -> Estimate:
    """Plug-in statistical distance of an empirical table from U_m; the
    true SD lies inside the `plugin_sd_estimate` interval with probability
    at least `confidence`.
    """
    if m > EMPIRICAL_M_CAP:
        raise WorkCapExceeded(required=1 << m, cap=1 << EMPIRICAL_M_CAP,
                              what="empirical SD width")
    xs = np.asarray(samples, dtype=np.int64)
    n = xs.size
    need = required_samples(m)
    if n < need:
        raise ValidationError(
            f"undersampled: got {n} samples, need at least {need} for m={m}")
    if xs.size and (xs.min() < 0 or xs.max() >= (1 << m)):
        raise ValidationError("sample outcomes outside 0..2^m-1")
    table = np.bincount(xs, minlength=1 << m) / n
    return plugin_sd_estimate(sd_of_tables(table, 1.0 / (1 << m)), n, m,
                              1.0 - confidence, confidence)
