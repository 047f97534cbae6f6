import math
import sys

import numpy as np
import pytest

from oracles import normal_cdf
from ssl_lab.errors import ValidationError
from ssl_lab.theory import (
    ProblemSize,
    RateReport,
    classify_regime,
    minimax_estimation_rate,
    minimax_excess_rate,
    oracle_gap,
    rate_improvement,
    rate_report,
    trivial_excess,
    ulplus_estimation_upper,
    ulplus_excess_upper,
)


def size(s, d, n_l, n_u):
    return ProblemSize(s=s, d=d, n_l=n_l, n_u=n_u)


class TestProblemSize:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValidationError):
            size(-0.1, 2, 1, 1)
        with pytest.raises(ValidationError):
            size(1.0, 1, 1, 1)
        with pytest.raises(ValidationError):
            size(1.0, 2, -1, 1)
        with pytest.raises(ValidationError):
            size(math.nan, 2, 1, 1)
        with pytest.raises(ValidationError):
            size(1.0, math.inf, 1, 1)
        with pytest.raises(ValidationError):
            size(1.0, 2, math.nan, 1)
        with pytest.raises(ValidationError):
            size(1.0, 2, 1, True)

    @pytest.mark.parametrize("field", ["d", "n_l", "n_u"])
    def test_takes_sizes_up_to_the_largest_float(self, field):
        fields = dict(s=1.0, d=2, n_l=1, n_u=1)
        largest = int(sys.float_info.max)
        assert getattr(ProblemSize(**{**fields, field: largest}), field) == largest
        with pytest.raises(ValidationError, match=f"^{field} must be at most 1.79769e\\+308, got a"):
            ProblemSize(**{**fields, field: largest + 1})

    def test_coerces_to_exact_types(self):
        p = size(1, 3, 10, 20)
        assert isinstance(p.s, float) and isinstance(p.d, int)


class TestMinimaxExcessRate:
    def test_unit_snr_labeled_only(self):
        assert minimax_excess_rate(size(1.0, 10, 10, 0)) == pytest.approx(
            math.exp(-0.5), abs=1e-9
        )
        assert minimax_excess_rate(size(1.0, 10, 10, 0)) == pytest.approx(0.606531, abs=1e-6)

    def test_unit_snr_swaps_sample_types(self):
        assert minimax_excess_rate(size(1.0, 10, 10, 0)) == minimax_excess_rate(
            size(1.0, 10, 0, 10)
        )

    def test_doubling_unlabeled_halves_rate(self):
        a = minimax_excess_rate(size(1.0, 2, 0, 100))
        b = minimax_excess_rate(size(1.0, 2, 0, 200))
        assert b == a / 2.0

    def test_zero_snr(self):
        assert minimax_excess_rate(size(0.0, 2, 5, 5)) == 0.0

    def test_rejects_no_samples(self):
        with pytest.raises(ValidationError):
            minimax_excess_rate(size(1.0, 2, 0, 0))

    def test_nonincreasing_in_sample_sizes(self):
        for s in (0.3, 1.0, 2.0):
            values = [minimax_excess_rate(size(s, 4, n_l, 50)) for n_l in (1, 10, 100, 1000)]
            assert all(a >= b for a, b in zip(values, values[1:]))
            values = [minimax_excess_rate(size(s, 4, 50, n_u)) for n_u in (0, 10, 100, 1000)]
            assert all(a >= b for a, b in zip(values, values[1:]))


class TestMinimaxEstimationRate:
    def test_known_values(self):
        assert minimax_estimation_rate(size(1.0, 4, 4, 0)) == 1.0
        assert minimax_estimation_rate(size(0.0, 4, 4, 0)) == 0.0
        assert minimax_estimation_rate(size(1.0, 4, 0, 16)) == 0.5

    def test_rejects_large_snr(self):
        with pytest.raises(ValidationError):
            minimax_estimation_rate(size(1.0 + 1e-9, 4, 4, 0))

    def test_nonincreasing_in_sample_sizes(self):
        for s in (0.2, 0.7, 1.0):
            values = [minimax_estimation_rate(size(s, 4, n_l, 20)) for n_l in (1, 10, 100)]
            assert all(a >= b for a, b in zip(values, values[1:]))
            values = [minimax_estimation_rate(size(s, 4, 20, n_u)) for n_u in (0, 100, 10_000)]
            assert all(a >= b for a, b in zip(values, values[1:]))


def first_excess_term(p):
    return math.exp(-0.5 * p.s ** 2) * p.d * math.log(p.d * p.n_u) / (p.s ** 3 * p.n_u)


class TestUlplusExcessUpper:
    def test_worked_example(self):
        value = ulplus_excess_upper(size(1.0, 2, 100, 10 ** 6))
        assert value == pytest.approx(1.760e-5, rel=1e-4)

    def test_large_labeled_reduces_to_first_term(self):
        p = size(1.0, 2, 10 ** 9, 10 ** 6)
        assert ulplus_excess_upper(p) == pytest.approx(first_excess_term(p), rel=1e-12)

    def test_first_term_formula_in_d(self):
        for d in (2, 4):
            p = size(1.0, d, 10 ** 9, 10 ** 6)
            assert ulplus_excess_upper(p) == pytest.approx(first_excess_term(p), rel=1e-12)

    def test_validity_condition_named_in_error(self):
        with pytest.raises(ValidationError, match="n_u"):
            ulplus_excess_upper(size(1.0, 2, 10, 100))

    def test_underflowed_cube_keeps_the_first_term(self):
        # s**3 is 0 in floats here, but s**3 * n_u is about 1e-142.
        p = size(1e-150, 2, 0, 10 ** 308)
        want = 2 * math.log(2 * 10 ** 308) / (1e-150 ** 2 * 1e308 * 1e-150) + 1.0
        assert ulplus_excess_upper(p) == pytest.approx(want, rel=1e-12)
        with pytest.raises(ValidationError):
            ulplus_excess_upper(size(1.5, 2, 10, 10 ** 7))
        with pytest.raises(ValidationError):
            ulplus_excess_upper(size(0.0, 2, 10, 10 ** 7))

    def test_exponent_factor_clamps_at_zero(self):
        # n_u at the validity edge (160/s)^2 * d: the factor 1 - 2.46 clamps to 0.
        p = size(0.1, 2, 50, 5_120_000)
        value = ulplus_excess_upper(p)
        assert value == pytest.approx(first_excess_term(p) + 1.0, rel=1e-12)

    def test_nonincreasing_on_validity_grid(self):
        values = [ulplus_excess_upper(size(1.0, 2, 100, n_u)) for n_u in (10 ** 5, 10 ** 6, 10 ** 7)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        values = [ulplus_excess_upper(size(0.8, 2, n_l, 10 ** 6)) for n_l in (0, 10, 100, 1000)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestUlplusEstimationUpper:
    def test_worked_example(self):
        value = ulplus_estimation_upper(size(1.0, 4, 10 ** 9, 10 ** 6))
        assert value == pytest.approx(0.002, rel=1e-6)

    def test_quadrupling_unlabeled_halves_first_term(self):
        a = ulplus_estimation_upper(size(1.0, 4, 10 ** 9, 10 ** 6))
        b = ulplus_estimation_upper(size(1.0, 4, 10 ** 9, 4 * 10 ** 6))
        assert b == pytest.approx(a / 2.0, rel=1e-12)

    def test_nonincreasing_on_validity_grid(self):
        values = [ulplus_estimation_upper(size(0.9, 3, 100, n_u)) for n_u in (10 ** 5, 10 ** 6, 10 ** 7)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        values = [ulplus_estimation_upper(size(0.9, 3, n_l, 10 ** 6)) for n_l in (0, 10, 100)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validity_condition(self):
        with pytest.raises(ValidationError, match="n_u"):
            ulplus_estimation_upper(size(0.5, 4, 10, 1000))


class TestRateImprovement:
    def test_balanced_example(self):
        assert rate_improvement(size(1.0, 2, 100, 100)) == (0.5, 0.5)

    def test_degenerate_edges(self):
        assert rate_improvement(size(1.0, 2, 50, 0)) == (1.0, 0.0)
        assert rate_improvement(size(1.0, 2, 0, 50)) == (0.0, 1.0)

    def test_sums_to_one_exactly(self):
        rng = np.random.default_rng(81)
        for _ in range(300):
            p = size(
                float(rng.uniform(0.01, 2.0)),
                int(rng.integers(2, 10)),
                int(rng.integers(0, 1000)),
                int(rng.integers(1, 100_000)),
            )
            h_l, h_u = rate_improvement(p)
            assert h_l + h_u == 1.0
            assert 0.0 <= h_l <= 1.0

    def test_rejects_degenerate_denominator(self):
        with pytest.raises(ValidationError):
            rate_improvement(size(0.0, 2, 0, 100))


class TestClassifyRegime:
    def test_low_snr_example(self):
        assert classify_regime(size(0.001, 2, 50, 1000)) == "LowSNR"

    def test_ul_dominant_example(self):
        assert classify_regime(size(1.0, 2, 10, 10 ** 6)) == "UL-dominant"

    def test_balanced_example(self):
        assert classify_regime(size(1.0, 2, 100, 100)) == "Balanced"

    def test_sl_dominant(self):
        assert classify_regime(size(1.0, 2, 10_000, 50)) == "SL-dominant"

    def test_no_unlabeled_is_low_snr_by_convention(self):
        assert classify_regime(size(3.0, 2, 10_000, 0)) == "LowSNR"

    def test_threshold_boundary_is_balanced(self):
        # n_l equals REGIME_RATIO * s^2 * n_u exactly: dominance is strict
        assert classify_regime(size(1.0, 2, 1000, 100)) == "Balanced"


class TestTrivialExcess:
    def test_zero(self):
        assert trivial_excess(0.0) == 0.0

    def test_unit_snr(self):
        assert trivial_excess(1.0) == pytest.approx(0.341345, abs=1e-6)
        assert trivial_excess(1.0) == pytest.approx(normal_cdf(1.0) - 0.5, abs=1e-10)

    def test_monotone_and_mean_value_bound(self):
        grid = np.linspace(0.0, 5.0, 101)
        values = [trivial_excess(float(s)) for s in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))
        for s, v in zip(grid, values):
            assert v <= float(s) / math.sqrt(2.0 * math.pi) + 1e-15

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            trivial_excess(-0.1)


class TestOracleGap:
    def test_equal_errors(self):
        gap, combined = oracle_gap(1.0, 1.0)
        assert combined == 0.5
        assert gap == 0.5

    def test_lopsided(self):
        gap, combined = oracle_gap(1.0, 10.0 ** 6)
        assert combined == pytest.approx(1.0, rel=1e-5)
        assert gap == pytest.approx(1e-6, rel=1e-3)

    def test_two_six(self):
        gap, combined = oracle_gap(2.0, 6.0)
        assert combined == 1.5
        assert gap == 0.5

    def test_ratio_identity(self):
        rng = np.random.default_rng(82)
        for _ in range(10_000):
            x = float(rng.uniform(1e-3, 10.0))
            y = float(rng.uniform(1e-3, 10.0))
            gap, combined = oracle_gap(x, y)
            r = x / y
            assert gap >= 0.0
            assert abs(gap - min(r, 1.0 / r) * combined) <= 1e-12

    @pytest.mark.parametrize("pair", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_rejects_nonpositive(self, pair):
        with pytest.raises(ValidationError):
            oracle_gap(*pair)


class TestRateReport:
    def test_full_report(self):
        p = size(1.0, 2, 100, 10 ** 6)
        report = rate_report(p)
        assert report.excess_rate == minimax_excess_rate(p)
        assert report.estimation_rate == minimax_estimation_rate(p)
        assert report.ulp_excess_upper == ulplus_excess_upper(p)
        assert report.ulp_estimation_upper == ulplus_estimation_upper(p)
        assert (report.h_l, report.h_u) == rate_improvement(p)
        assert report.trivial_excess == trivial_excess(1.0)
        assert report.regime == "UL-dominant"

    def test_large_snr_drops_estimation_fields(self):
        report = rate_report(size(2.0, 2, 100, 10 ** 6))
        assert report.estimation_rate is None
        assert report.ulp_excess_upper is None
        assert report.ulp_estimation_upper is None
        assert report.excess_rate is not None

    def test_small_unlabeled_drops_upper_bounds(self):
        report = rate_report(size(1.0, 2, 100, 100))
        assert report.ulp_excess_upper is None
        assert report.excess_rate is not None
        assert report.regime == "Balanced"

    def test_zero_snr_no_samples(self):
        report = rate_report(size(0.0, 2, 0, 5))
        assert report.excess_rate == 0.0
        assert report.estimation_rate == 0.0
        assert report.h_l is None and report.h_u is None
        assert report.regime == "LowSNR"
        assert report.trivial_excess == 0.0

    def test_report_validation(self):
        with pytest.raises(ValidationError):
            RateReport(
                excess_rate=-1.0,
                estimation_rate=None,
                ulp_excess_upper=None,
                ulp_estimation_upper=None,
                h_l=None,
                h_u=None,
                trivial_excess=0.0,
                regime="Balanced",
            )
        with pytest.raises(ValidationError):
            RateReport(
                excess_rate=0.0,
                estimation_rate=None,
                ulp_excess_upper=None,
                ulp_estimation_upper=None,
                h_l=None,
                h_u=None,
                trivial_excess=0.0,
                regime="nonsense",
            )
