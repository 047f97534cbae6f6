"""Closed-form rates, upper bounds, and regime classification.

Everything here is plain arithmetic on problem sizes (s, d, n_l, n_u):
minimax rates for excess risk and estimation error, upper bounds for the
sign-fixed spectral estimator, the labeled/unlabeled rate-improvement
split, a finite-sample regime classifier, and the oracle-weighting gap.

Asymptotic statements carry unspecified universal constants. Every one
of them is 1 here, so only decay exponents are meaningful, never absolute
values. A source dominates the regime label once its rate weight is more
than REGIME_RATIO times the other's.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ValidationError
from .gmm import check_snr, check_whole, std_normal_cdf

REGIMES = ("SL-dominant", "UL-dominant", "Balanced", "LowSNR")
REGIME_RATIO = 10.0


@dataclass(frozen=True)
class ProblemSize:
    """Problem-size tuple: SNR s, dimension d, labeled n_l, unlabeled n_u."""

    s: float
    d: int
    n_l: int
    n_u: int

    def __post_init__(self):
        object.__setattr__(self, "s", check_snr(self.s, "s"))
        for name, least in (("d", 2), ("n_l", 0), ("n_u", 0)):
            value = check_whole(getattr(self, name), name, least)
            # The rates take each size as a float; a bigger int has none.
            if value > sys.float_info.max:
                raise ValidationError(
                    f"{name} must be at most {sys.float_info.max:g}, "
                    f"got a {value.bit_length()}-bit integer"
                )
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class RateReport:
    """Bundle of every closed-form quantity for one problem size.

    Fields that do not apply (estimation rate for s > 1, the upper bounds
    outside their validity region) are None rather than extrapolated.
    """

    excess_rate: float | None
    estimation_rate: float | None
    ulp_excess_upper: float | None
    ulp_estimation_upper: float | None
    h_l: float | None
    h_u: float | None
    trivial_excess: float
    regime: str

    def __post_init__(self):
        for name in ("excess_rate", "estimation_rate", "ulp_excess_upper",
                     "ulp_estimation_upper", "trivial_excess"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValidationError(f"{name} must be nonnegative")
        for name in ("h_l", "h_u"):
            value = getattr(self, name)
            if value is not None and not (0.0 <= value <= 1.0):
                raise ValidationError(f"{name} must lie in [0, 1]")
        if self.regime not in REGIMES:
            raise ValidationError(f"unknown regime label {self.regime!r}")


def minimax_excess_rate(p: ProblemSize) -> float:
    """e^(-s^2/2) * min(s, d/(s*n_l + s^3*n_u)); 0 when s = 0.

    A denominator that underflows to 0 takes its limit, min(s, inf) = s.
    """
    if p.s == 0.0:
        return 0.0
    if p.n_l + p.n_u < 1:
        raise ValidationError("need at least one sample (n_l + n_u >= 1)")
    denom = p.s * p.n_l + p.s ** 3 * p.n_u
    return math.exp(-0.5 * p.s ** 2) * (min(p.s, p.d / denom) if denom > 0 else p.s)


def minimax_estimation_rate(p: ProblemSize) -> float:
    """min(s, sqrt(d/(n_l + s^2*n_u))) for s in [0, 1]; an underflowed
    denominator takes its limit, as in minimax_excess_rate."""
    if p.s > 1.0:
        raise ValidationError("estimation rate is stated only for s in [0, 1]")
    if p.s == 0.0:
        return 0.0
    if p.n_l + p.n_u < 1:
        raise ValidationError("need at least one sample (n_l + n_u >= 1)")
    denom = p.n_l + p.s ** 2 * p.n_u
    return min(p.s, math.sqrt(p.d / denom)) if denom > 0 else p.s


def _check_ulp_validity(p: ProblemSize) -> None:
    if not (0.0 < p.s <= 1.0):
        raise ValidationError("upper bounds are stated for s in (0, 1]")
    try:
        required = (160.0 / p.s) ** 2 * p.d
    except OverflowError:
        # (160/s)**2 past float range: no n_u meets the condition.
        required = math.inf
    if p.n_u < required:
        raise ValidationError(
            f"validity condition n_u >= (160/s)^2 * d fails: n_u={p.n_u} < {required:.6g}"
        )


def _clamped_exponent_factor(p: ProblemSize) -> float:
    """(1 - (1/min(s, s^2)) * sqrt(d*log(n_u)/(s^2*n_u))), clamped to [0,1]."""
    scale = 1.0 / min(p.s, p.s ** 2)
    inner = math.sqrt(p.d * math.log(p.n_u) / (p.s ** 2 * p.n_u))
    return min(1.0, max(0.0, 1.0 - scale * inner))


def ulplus_excess_upper(p: ProblemSize) -> float:
    """Two-term excess-risk upper bound for the sign-fixed spectral fit.

    e^(-s^2/2) * d*log(d*n_u)/(s^3*n_u)
    + e^(-s^2*n_l*factor^2/2), factor as in _clamped_exponent_factor.
    Requires n_u >= (160/s)^2 * d.
    """
    _check_ulp_validity(p)
    # s**3 underflows to 0 below s = 1e-108 or so, where the valid n_u keeps s**2 * n_u * s > 0.
    weight = p.s ** 3 * p.n_u or p.s ** 2 * p.n_u * p.s
    first = math.exp(-0.5 * p.s ** 2) * p.d * math.log(p.d * p.n_u) / weight
    factor = _clamped_exponent_factor(p)
    return first + math.exp(-0.5 * p.s ** 2 * p.n_l * factor ** 2)


def ulplus_estimation_upper(p: ProblemSize) -> float:
    """sqrt(d/(s^2*n_u)) + s * e^(-s^2*n_l*factor^2/2)."""
    _check_ulp_validity(p)
    first = math.sqrt(p.d / (p.s ** 2 * p.n_u))
    factor = _clamped_exponent_factor(p)
    return first + p.s * math.exp(-0.5 * p.s ** 2 * p.n_l * factor ** 2)


def rate_improvement(p: ProblemSize) -> tuple[float, float]:
    """(h_l, h_u) = (n_l, s^2*n_u) / (n_l + s^2*n_u); sums to 1 exactly."""
    denom = p.n_l + p.s ** 2 * p.n_u
    if denom <= 0.0:
        raise ValidationError("rate improvement needs n_l + s^2*n_u > 0")
    h_l = p.n_l / denom
    return h_l, 1.0 - h_l


def classify_regime(p: ProblemSize) -> str:
    """Label the problem size by which data source carries the rate.

    LowSNR when s^2*n_u <= 1 (the s <= 1/sqrt(n_u) condition in a form
    that tolerates n_u = 0); otherwise whichever of n_l and s^2*n_u is
    more than REGIME_RATIO times the other dominates; otherwise Balanced.
    """
    weight_u = p.s ** 2 * p.n_u
    if weight_u <= 1.0:
        return "LowSNR"
    if p.n_l > REGIME_RATIO * weight_u:
        return "SL-dominant"
    if weight_u > REGIME_RATIO * p.n_l:
        return "UL-dominant"
    return "Balanced"


def trivial_excess(s: float) -> float:
    """Excess risk of predicting with the zero vector: Phi(s) - 0.5."""
    return std_normal_cdf(check_snr(s, "s")) - 0.5


def oracle_gap(mse_sl: float, mse_ul: float) -> tuple[float, float]:
    """Gap between the better single estimator and the oracle combination.

    combined = harmonic form mse_sl*mse_ul/(mse_sl + mse_ul); the returned
    gap is min(mse_sl, mse_ul) - combined, which equals min(r, 1/r) *
    combined for the ratio r = mse_sl/mse_ul.
    """
    if not (mse_sl > 0.0 and mse_ul > 0.0):
        raise ValidationError("both mean squared errors must be positive")
    combined = (mse_sl * mse_ul) / (mse_sl + mse_ul)
    return min(mse_sl, mse_ul) - combined, combined


def rate_report(p: ProblemSize) -> RateReport:
    """Assemble every quantity that applies to p; inapplicable ones are None."""
    try:
        excess = minimax_excess_rate(p)
    except ValidationError:
        excess = None
    try:
        estimation = minimax_estimation_rate(p)
    except ValidationError:
        estimation = None
    try:
        ulp_excess = ulplus_excess_upper(p)
        ulp_estimation = ulplus_estimation_upper(p)
    except ValidationError:
        ulp_excess = None
        ulp_estimation = None
    try:
        h_l, h_u = rate_improvement(p)
    except ValidationError:
        h_l, h_u = None, None
    return RateReport(
        excess_rate=excess,
        estimation_rate=estimation,
        ulp_excess_upper=ulp_excess,
        ulp_estimation_upper=ulp_estimation,
        h_l=h_l,
        h_u=h_u,
        trivial_excess=trivial_excess(p.s),
        regime=classify_regime(p),
    )
