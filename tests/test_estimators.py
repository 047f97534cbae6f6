import math
import warnings

import numpy as np
import pytest

import oracles
from ssl_lab.errors import ConvergenceError, ValidationError
from ssl_lab.estimators import (
    EigenPair,
    WeightSelection,
    _sigmoid,
    avg_margins,
    best_margin,
    fit_em,
    fit_em_means,
    fit_logistic,
    fit_logistic_grid,
    fit_sl,
    fit_spherical_lda,
    fit_ssl_s,
    fit_ssl_w,
    fit_ul,
    fix_sign,
    leading_eigenpair,
    oracle_weight,
    second_moment,
    self_train_path,
)
from ssl_lab import estimators
from ssl_lab.experiments import DEFAULT_RIDGE_GRID
from ssl_lab.gmm import (
    EstimatorOutput,
    LabeledDataset,
    MixtureModel,
    UnlabeledDataset,
    prediction_error,
    sample_labeled,
    sample_unlabeled,
)


def labeled(x_rows, y_vals):
    return LabeledDataset(x=np.array(x_rows, dtype=float), y=np.array(y_vals, dtype=float))


def unlabeled(x_rows):
    return UnlabeledDataset(x=np.array(x_rows, dtype=float))


#: max_iter values that are not positive integers (a bool is not a count).
BAD_MAX_ITER = (0, -3, 2.7, True, "5", None)


class TestFitSl:
    def test_worked_example(self):
        out = fit_sl(labeled([[2.0, 0.0], [-4.0, 0.0]], [1.0, -1.0]))
        assert np.allclose(out.theta, [3.0, 0.0])

    def test_single_sample(self):
        out = fit_sl(labeled([[0.4, -1.7]], [1.0]))
        assert np.allclose(out.theta, [0.4, -1.7])

    def test_monte_carlo_rate(self):
        model = MixtureModel(theta_star=np.array([1.0, 0.0, 0.0]))
        data = sample_labeled(model, 100_000, seed=5)
        out = fit_sl(data)
        assert np.linalg.norm(out.theta - model.theta_star) <= 2.0 * math.sqrt(3 / 100_000)

    def test_rejects_empty(self):
        model = MixtureModel(theta_star=np.array([1.0]))
        with pytest.raises(ValidationError):
            fit_sl(sample_labeled(model, 0, seed=0))


class TestSecondMoment:
    def test_two_point_example(self):
        sm = second_moment(unlabeled([[1.0, 0.0], [-1.0, 0.0]]))
        assert np.allclose(sm, [[1.0, 0.0], [0.0, 0.0]])
        assert not sm.flags.writeable

    def test_single_row_example(self):
        sm = second_moment(unlabeled([[1.0, 1.0]]))
        assert np.allclose(sm, [[1.0, 1.0], [1.0, 1.0]])

    def test_population_limit(self):
        model = MixtureModel(theta_star=np.array([1.0, 0.0]))
        sm = second_moment(sample_unlabeled(model, 1_000_000, seed=2))
        assert np.abs(sm - np.diag([2.0, 1.0])).max() < 0.01

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(61)
        model = MixtureModel(theta_star=np.array([0.8, -0.3, 0.5]))
        sm = second_moment(sample_unlabeled(model, 500, seed=6))
        assert np.abs(sm - sm.T).max() <= 1e-12
        for _ in range(100):
            probe = rng.standard_normal(3)
            probe /= np.linalg.norm(probe)
            assert float(probe @ sm @ probe) >= -1e-9

    def test_rejects_empty(self):
        model = MixtureModel(theta_star=np.array([1.0, 0.0]))
        with pytest.raises(ValidationError):
            second_moment(sample_unlabeled(model, 0, seed=0))


class TestLeadingEigenpair:
    def test_diagonal(self):
        pair = leading_eigenpair(np.diag([2.0, 1.0]))
        assert pair.value == pytest.approx(2.0, abs=1e-8)
        assert np.abs(pair.vector - np.array([1.0, 0.0])).max() < 1e-6

    def test_two_by_two_symmetric(self):
        pair = leading_eigenpair(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert pair.value == pytest.approx(3.0, abs=1e-8)
        root_half = 1.0 / math.sqrt(2.0)
        assert np.abs(pair.vector - root_half).max() < 1e-6

    @pytest.mark.parametrize("d", [2, 5])
    def test_identity_degenerate_spectrum(self, d):
        pair = leading_eigenpair(np.eye(d))
        assert pair.value == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-10)

    def test_zero_matrix(self):
        pair = leading_eigenpair(np.zeros((3, 3)))
        assert pair.value == 0.0
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-10)

    def test_residual_and_unit_norm_invariants(self):
        rng = np.random.default_rng(62)
        for seed in range(20):
            theta = rng.standard_normal(3)
            model = MixtureModel(theta_star=theta)
            sm = second_moment(sample_unlabeled(model, 300, seed=seed))
            pair = leading_eigenpair(sm)
            assert abs(np.linalg.norm(pair.vector) - 1.0) <= 1e-10
            assert np.linalg.norm(sm @ pair.vector - pair.value * pair.vector) <= 1e-8
            for _ in range(100):
                probe = rng.standard_normal(3)
                probe /= np.linalg.norm(probe)
                assert pair.value >= float(probe @ sm @ probe) - 1e-9

    def test_matches_jacobi_oracle(self):
        """Dense Jacobi sweep and the LAPACK solve agree on small matrices."""
        rng = np.random.default_rng(63)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            lams = np.sort(rng.uniform(0.0, 1.0, size=d))[::-1]
            lams[0] += 0.5
            m = (q * lams) @ q.T
            m = 0.5 * (m + m.T)
            pair = leading_eigenpair(m)
            ref_value, ref_vector = oracles.leading_pair(m)
            assert pair.value == pytest.approx(ref_value, abs=1e-8)
            assert np.abs(pair.vector - ref_vector).max() < 1e-6

    def test_sign_canonicalization(self):
        pair = leading_eigenpair(np.diag([4.0, 1.0]))
        assert pair.vector[0] > 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            leading_eigenpair(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            leading_eigenpair(np.array([[1.0, math.inf], [math.inf, 1.0]]))


class TestFitUl:
    def test_quarter_excess_spectrum(self):
        a = math.sqrt(1.25)
        data = unlabeled([[a, 1.0], [-a, 1.0], [a, -1.0], [-a, -1.0]])
        out = fit_ul(data)
        assert np.abs(out.theta - np.array([0.5, 0.0])).max() < 1e-6

    def test_sub_unit_spectrum_gives_zero(self):
        a, b = math.sqrt(0.9), math.sqrt(0.8)
        data = unlabeled([[a, b], [-a, b], [a, -b], [-a, -b]])
        out = fit_ul(data)
        assert np.array_equal(out.theta, np.zeros(2))

    def test_monte_carlo_rate(self):
        theta_star = np.zeros(5)
        theta_star[0] = 1.0
        model = MixtureModel(theta_star=theta_star)
        data = sample_unlabeled(model, 100_000, seed=3)
        out = fit_ul(data)
        err = min(
            np.linalg.norm(out.theta - theta_star),
            np.linalg.norm(out.theta + theta_star),
        )
        assert err <= 3.0 * math.sqrt(5 / 100_000)


class TestFixSign:
    def test_flips_when_opposed(self):
        out = fix_sign(
            EstimatorOutput(theta=np.array([-1.0, 0.0])),
            EstimatorOutput(theta=np.array([1.0, 0.0])),
        )
        assert np.allclose(out.theta, [1.0, 0.0])

    def test_keeps_when_aligned(self):
        out = fix_sign(
            EstimatorOutput(theta=np.array([1.0, 0.0])),
            EstimatorOutput(theta=np.array([1.0, 0.0])),
        )
        assert np.allclose(out.theta, [1.0, 0.0])

    def test_zero_inner_product_keeps_plus(self):
        out = fix_sign(
            EstimatorOutput(theta=np.array([1.0, 0.0])),
            EstimatorOutput(theta=np.array([0.0, 1.0])),
        )
        assert np.allclose(out.theta, [1.0, 0.0])

    def test_idempotent_and_norm_preserving(self):
        rng = np.random.default_rng(64)
        for _ in range(50):
            ul = EstimatorOutput(theta=rng.standard_normal(4))
            sl = EstimatorOutput(theta=rng.standard_normal(4))
            once = fix_sign(ul, sl)
            twice = fix_sign(once, sl)
            assert np.array_equal(once.theta, twice.theta)
            assert float(np.linalg.norm(once.theta)) == float(np.linalg.norm(ul.theta))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            fix_sign(
                EstimatorOutput(theta=np.zeros(2)),
                EstimatorOutput(theta=np.zeros(3)),
            )


class TestPluginSnr:
    """The norm of fit_ul's estimate, a plug-in SNR, is sqrt((lambda - 1)_+)."""

    def test_matches_oracle_eigenvalue(self):
        rng = np.random.default_rng(66)
        for d, s in [(2, 1.5), (3, 0.7), (5, 2.0)]:
            theta_star = rng.standard_normal(d)
            theta_star *= s / np.linalg.norm(theta_star)
            data = sample_unlabeled(MixtureModel(theta_star=theta_star), 2_000, seed=d)
            lam, _ = oracles.leading_pair(second_moment(data))
            assert lam > 1.0
            snr = float(np.linalg.norm(fit_ul(data).theta))
            assert snr == pytest.approx(math.sqrt(lam - 1.0), rel=1e-10)

    def test_sub_unit_spectrum_gives_exact_zero(self):
        a, b = math.sqrt(0.9), math.sqrt(0.8)
        data = unlabeled([[a, b], [-a, b], [a, -b], [-a, -b]])
        lam, _ = oracles.leading_pair(second_moment(data))
        assert lam < 1.0
        assert float(np.linalg.norm(fit_ul(data).theta)) == 0.0


def ssl_s_candidates(lab, unlab):
    """The three vectors fit_ssl_s is allowed to return."""
    zero = np.zeros(lab.d)
    sl = fit_sl(lab).theta
    if unlab.n >= 1:
        ulp = fix_sign(fit_ul(unlab), fit_sl(lab)).theta
    else:
        ulp = None
    return zero, sl, ulp


class TestFitSslS:
    def setup_method(self):
        self.model4 = MixtureModel(theta_star=np.array([0.3, 0.0, 0.0, 0.0]))

    def make(self, n_l, n_u, seed=0):
        return (
            sample_labeled(self.model4, n_l, seed=seed),
            sample_unlabeled(self.model4, n_u, seed=seed + 1),
        )

    @pytest.mark.parametrize("s, expected", [(0.05, "zero"), (0.12, "zero"), (0.15, "ulplus")])
    def test_threshold_examples_small_labeled(self, s, expected):
        lab, unlab = self.make(100, 10_000)
        out, branch = fit_ssl_s(lab, unlab, s)
        assert branch == expected
        zero, sl, ulp = ssl_s_candidates(lab, unlab)
        target = {"zero": zero, "sl": sl, "ulplus": ulp}[expected]
        assert np.array_equal(out.theta, target)

    def test_threshold_example_large_labeled(self):
        lab, unlab = self.make(10_000, 100)
        out, branch = fit_ssl_s(lab, unlab, 0.5)
        assert branch == "sl"
        assert np.array_equal(out.theta, fit_sl(lab).theta)

    @pytest.mark.parametrize("s, n_l, n_u, expected", [
        (0.05, 100, 10_000, "zero"), (0.5, 10_000, 100, "sl"), (0.15, 100, 10_000, "ulplus"),
    ])
    def test_precomputed_estimate_is_bitwise_identical(self, s, n_l, n_u, expected):
        lab, unlab = self.make(n_l, n_u, seed=3)
        plain, branch = fit_ssl_s(lab, unlab, s)
        theta_ulp = fix_sign(fit_ul(unlab), fit_sl(lab))
        reused, reused_branch = fit_ssl_s(lab, unlab, s, theta_ulp=theta_ulp)
        assert branch == reused_branch == expected
        assert np.array_equal(reused.theta, plain.theta)

    def test_precomputed_estimate_is_used_on_the_ulplus_branch_only(self):
        lab, unlab = self.make(100, 10_000)
        stand_in = EstimatorOutput(theta=np.array([0.0, 0.0, 0.0, 7.0]))
        out, branch = fit_ssl_s(lab, unlab, 0.15, theta_ulp=stand_in)
        assert branch == "ulplus" and np.array_equal(out.theta, stand_in.theta)
        out, branch = fit_ssl_s(lab, unlab, 0.05, theta_ulp=stand_in)
        assert branch == "zero" and not np.any(out.theta)
        with pytest.raises(ValidationError):
            fit_ssl_s(lab, unlab, 0.15, theta_ulp=EstimatorOutput(np.ones(3)))

    def test_empty_unlabeled_never_needs_it(self):
        lab, unlab = self.make(100, 0)
        out, branch = fit_ssl_s(lab, unlab, 0.05)
        assert branch == "zero"
        out, branch = fit_ssl_s(lab, unlab, 5.0)
        assert branch == "sl"
        assert np.array_equal(out.theta, fit_sl(lab).theta)

    def test_boundary_equalities(self):
        model = MixtureModel(theta_star=np.array([1.0, 0.0, 0.0, 0.0]))
        lab = sample_labeled(model, 4, seed=8)
        unlab = sample_unlabeled(model, 4, seed=9)
        # d=4, n_l=n_u=4: both branch-1 thresholds are exactly 1
        _, branch = fit_ssl_s(lab, unlab, 1.0)
        assert branch == "zero"
        _, branch = fit_ssl_s(lab, unlab, float(np.nextafter(1.0, 2.0)))
        assert branch == "ulplus"
        # d=4, n_l=n_u=400: branch-1 threshold 0.1, branch-2 threshold 1
        lab = sample_labeled(model, 400, seed=8)
        unlab = sample_unlabeled(model, 400, seed=9)
        _, branch = fit_ssl_s(lab, unlab, 1.0)
        assert branch == "sl"
        _, branch = fit_ssl_s(lab, unlab, float(np.nextafter(1.0, 2.0)))
        assert branch == "ulplus"

    def test_output_is_always_a_candidate(self):
        rng = np.random.default_rng(65)
        for trial in range(200):
            d = int(rng.integers(2, 7))
            s = float(rng.uniform(0.0, 2.5))
            theta_star = np.zeros(d)
            theta_star[0] = s
            model = MixtureModel(theta_star=theta_star)
            n_l = int(rng.integers(1, 200))
            n_u = int(rng.integers(0, 400))
            lab = sample_labeled(model, n_l, seed=trial)
            unlab = sample_unlabeled(model, n_u, seed=10_000 + trial)
            out, branch = fit_ssl_s(lab, unlab, s)
            zero, sl, ulp = ssl_s_candidates(lab, unlab)
            d_thresh = min(
                math.sqrt(d / n_l),
                (d / n_u) ** 0.25 if n_u else math.inf,
            )
            if s <= d_thresh:
                assert branch == "zero"
                assert np.array_equal(out.theta, zero)
            elif s <= (math.sqrt(n_l / n_u) if n_u else math.inf):
                assert branch == "sl"
                assert np.array_equal(out.theta, sl)
            else:
                assert branch == "ulplus"
                assert np.array_equal(out.theta, ulp)

    def test_rejects_bad_snr(self):
        lab, unlab = self.make(10, 10)
        with pytest.raises(ValidationError):
            fit_ssl_s(lab, unlab, -0.5)
        with pytest.raises(ValidationError):
            fit_ssl_s(lab, unlab, math.nan)


def ssl_w_at(sl_theta, ulp_theta, t):
    """fit_ssl_w's estimate on the one-entry grid [t], from a one-row
    labeled set whose fit_sl is exactly sl_theta."""
    lab = labeled([sl_theta], [1.0])
    ulp = EstimatorOutput(theta=np.asarray(ulp_theta, dtype=float))
    out, sel = fit_ssl_w(lab, ulp, lab, t_grid=[t])
    assert sel.t == t
    return out


class TestWeighted:
    """The convex combination t*theta_sl + (1-t)*theta_ulp of fit_ssl_w."""

    def test_endpoints_exact(self):
        sl, ulp = [0.3, -1.1], [-0.8, 0.2]
        assert np.array_equal(ssl_w_at(sl, ulp, 1.0).theta, sl)
        assert np.array_equal(ssl_w_at(sl, ulp, 0.0).theta, ulp)

    def test_midpoint_example(self):
        out = ssl_w_at([1.0, 0.0], [0.0, 1.0], 0.5)
        assert np.allclose(out.theta, [0.5, 0.5])

    def test_linear_in_t(self):
        rng = np.random.default_rng(66)
        for _ in range(50):
            sl, ulp = rng.standard_normal(3), rng.standard_normal(3)
            a, b = sorted(rng.uniform(0.0, 1.0, size=2))
            mid = ssl_w_at(sl, ulp, (a + b) / 2.0).theta
            avg = 0.5 * (ssl_w_at(sl, ulp, a).theta + ssl_w_at(sl, ulp, b).theta)
            assert np.abs(mid - avg).max() <= 1e-12

    @pytest.mark.parametrize("t", [-0.1, 1.1, math.nan])
    def test_rejects_bad_weight(self, t):
        with pytest.raises(ValidationError):
            ssl_w_at([1.0, 0.0], [0.0, 1.0], t)


class TestAvgMargin:
    def test_worked_examples(self):
        rows = unlabeled([[2.0, 0.0], [-4.0, 0.0]])
        assert avg_margins([[1.0, 0.0]], rows).tolist() == [3.0]
        assert avg_margins([[2.0, 0.0]], rows).tolist() == [3.0]
        assert avg_margins([[0.0, 1.0]], rows).tolist() == [0.0]

    def test_scale_invariance(self):
        rng = np.random.default_rng(67)
        rows = UnlabeledDataset(x=rng.standard_normal((40, 3)))
        theta = rng.standard_normal(3)
        (base,) = avg_margins([theta], rows)
        for c in (-1.0, 0.5, -7.3, 1e4):
            assert avg_margins([c * theta], rows)[0] == pytest.approx(base, rel=1e-12)

    def test_rejects_degenerate(self):
        rows = unlabeled([[1.0, 0.0]])
        with pytest.raises(ValidationError):
            avg_margins([np.zeros(2)], rows)
        model = MixtureModel(theta_star=np.array([1.0, 0.0]))
        with pytest.raises(ValidationError):
            avg_margins([[1.0, 0.0]], sample_unlabeled(model, 0, seed=0))


class TestAvgMargins:
    @pytest.mark.parametrize("d", [2, 5, 20])
    @pytest.mark.parametrize("n_val", [
        1, estimators.ROW_BLOCK - 1, estimators.ROW_BLOCK,
        estimators.ROW_BLOCK + 1, 2 * estimators.ROW_BLOCK + 37,
    ])
    def test_matches_one_candidate_at_a_time(self, d, n_val):
        rng = np.random.default_rng(1000 * d + n_val)
        rows = UnlabeledDataset(x=rng.standard_normal((n_val, d)) + rng.standard_normal(d))
        thetas = rng.standard_normal((21, d))
        margins = avg_margins(thetas, rows)
        assert margins.shape == (21,)
        for theta, margin in zip(thetas, margins):
            # The pre-batching definition: one gemv and np.mean per candidate.
            loop = float(np.mean(np.abs(rows.x @ theta))) / float(np.linalg.norm(theta))
            assert margin == pytest.approx(avg_margins([theta], rows)[0], rel=1e-12)
            assert margin == pytest.approx(loop, rel=1e-12)

    def test_identical_candidates_score_identically(self):
        rng = np.random.default_rng(71)
        rows = UnlabeledDataset(x=rng.standard_normal((estimators.ROW_BLOCK + 500, 3)))
        theta = rng.standard_normal(3)
        thetas = np.vstack([rng.standard_normal((4, 3)), theta, rng.standard_normal((5, 3)), theta])
        margins = avg_margins(thetas, rows)
        assert margins[4] == margins[10]

    def test_rejects_bad_stacks(self):
        rows = unlabeled([[1.0, 0.0]])
        for bad in (np.ones(2), np.ones((0, 2)), np.ones((2, 3)), [[1.0, 0.0], [0.0, 0.0]],
                    [[1.0, math.nan]]):
            with pytest.raises(ValidationError):
                avg_margins(bad, rows)
        with pytest.raises(ValidationError):
            avg_margins(np.ones((2, 2)), unlabeled(np.zeros((0, 2))))


class TestBestMargin:
    def test_first_of_the_largest(self):
        assert best_margin([0.1, 0.3, 0.2, 0.3]) == 1
        assert best_margin([0.5]) == 0
        assert best_margin([0.0, 0.0]) == 0

    def test_rounding_noise_is_a_tie(self):
        top = 0.7312
        assert best_margin([top * (1 - 4e-16), top, top * (1 + 4e-16)]) == 0
        assert best_margin([0.2, top, top * (1 + 1e-10)]) == 2


class TestFitSslW:
    def test_margin_dominance_selects_sl(self):
        lab = labeled([[1.0, 0.0]], [1.0])
        validation = unlabeled([[10.0, 0.0], [-10.0, 0.0]])
        ulp = EstimatorOutput(theta=np.array([0.0, 1.0]))
        out, sel = fit_ssl_w(lab, ulp, validation, t_grid=(0.0, 1.0))
        assert sel.t == 1.0
        assert np.allclose(out.theta, [1.0, 0.0])
        assert avg_margins([out.theta], validation)[0] == pytest.approx(10.0)

    def test_singleton_grid(self):
        model = MixtureModel(theta_star=np.array([1.0, 0.0]))
        lab = sample_labeled(model, 20, seed=1)
        unlab = sample_unlabeled(model, 200, seed=2)
        validation = sample_unlabeled(model, 100, seed=3)
        ulp = fix_sign(fit_ul(unlab), fit_sl(lab))
        out, sel = fit_ssl_w(lab, ulp, validation, t_grid=[0.3])
        assert sel.t == 0.3
        assert np.array_equal(out.theta, 0.3 * fit_sl(lab).theta + (1 - 0.3) * ulp.theta)

    def test_tie_breaks_toward_smallest_t(self):
        lab = labeled([[1.0, 0.0]], [1.0])
        validation = unlabeled([[3.0, 0.0], [-5.0, 0.0]])
        # identical candidates at every t: the tie must resolve to t=0
        ulp = EstimatorOutput(theta=np.array([1.0, 0.0]))
        _, sel = fit_ssl_w(lab, ulp, validation, t_grid=(0.0, 0.5, 1.0))
        assert sel.t == 0.0

    def test_zero_ulplus_picks_the_smallest_nonzero_t(self):
        # Every nonzero candidate is a multiple of theta_sl, so all margins
        # are equal up to rounding: the tie rule, not the noise, decides.
        model = MixtureModel(theta_star=np.array([0.5, 0.0]))
        for seed in range(10):
            lab = sample_labeled(model, 10, seed=seed)
            validation = sample_unlabeled(model, 1000, seed=100 + seed)
            zero = EstimatorOutput(theta=np.zeros(2))
            out, sel = fit_ssl_w(lab, zero, validation)
            assert sel.t == 0.05
            assert np.array_equal(out.theta, 0.05 * fit_sl(lab).theta + (1 - 0.05) * zero.theta)
            _, sel = fit_ssl_w(lab, zero, validation, t_grid=(0.9, 0.3, 0.0, 0.6))
            assert sel.t == 0.3

    def test_candidates_match_weighted_bitwise(self):
        model = MixtureModel(theta_star=np.array([1.0, 0.2, -0.4]))
        lab = sample_labeled(model, 12, seed=21)
        unlab = sample_unlabeled(model, 300, seed=22)
        validation = sample_unlabeled(model, 200, seed=23)
        sl = fit_sl(lab)
        ulp = fix_sign(fit_ul(unlab), sl)
        for t in estimators.DEFAULT_T_GRID:
            out, sel = fit_ssl_w(lab, ulp, validation, t_grid=[t])
            assert sel.t == t
            assert np.array_equal(out.theta, t * sl.theta + (1 - t) * ulp.theta)

    def test_skips_zero_candidates(self):
        lab = labeled([[1.0, 0.0]], [1.0])
        validation = unlabeled([[2.0, 0.0]])
        ulp = EstimatorOutput(theta=np.array([-1.0, 0.0]))
        _, sel = fit_ssl_w(lab, ulp, validation, t_grid=(0.0, 0.5, 1.0))
        assert sel.t == 0.0
        with pytest.raises(ValidationError):
            fit_ssl_w(lab, ulp, validation, t_grid=(0.5,))

    def test_default_grid_argmax(self):
        model = MixtureModel(theta_star=np.array([1.0, 0.2]))
        lab = sample_labeled(model, 15, seed=4)
        unlab = sample_unlabeled(model, 500, seed=5)
        validation = sample_unlabeled(model, 300, seed=6)
        sl = fit_sl(lab)
        ulp = fix_sign(fit_ul(unlab), sl)
        out, sel = fit_ssl_w(lab, ulp, validation)
        grid = [round(0.05 * i, 2) for i in range(21)]
        assert sel.t in grid
        best = avg_margins([out.theta], validation)[0]
        for t in grid:
            candidate = t * sl.theta + (1 - t) * ulp.theta
            if float(np.linalg.norm(candidate)) == 0.0:
                continue
            assert avg_margins([candidate], validation)[0] <= best + 1e-15

    def test_rejects_bad_grid(self):
        lab = labeled([[1.0, 0.0]], [1.0])
        v = unlabeled([[1.0, 0.0]])
        ulp = EstimatorOutput(theta=np.array([1.0, 0.0]))
        with pytest.raises(ValidationError):
            fit_ssl_w(lab, ulp, v, t_grid=())
        with pytest.raises(ValidationError):
            fit_ssl_w(lab, ulp, v, t_grid=(0.5, 1.5))


class TestOracleWeight:
    @pytest.mark.parametrize("mse_sl, mse_ul, expected", [(1.0, 1.0, 0.5), (2.0, 6.0, 0.75), (3.7, 0.0, 0.0)])
    def test_known_values(self, mse_sl, mse_ul, expected):
        assert oracle_weight(mse_sl, mse_ul).t == pytest.approx(expected)

    def test_stays_in_unit_interval(self):
        rng = np.random.default_rng(68)
        for _ in range(100):
            sel = oracle_weight(float(rng.uniform(0, 5)), float(rng.uniform(0, 5)) + 1e-12)
            assert 0.0 <= sel.t <= 1.0

    def test_rejects_degenerate(self):
        with pytest.raises(ValidationError):
            oracle_weight(0.0, 0.0)
        with pytest.raises(ValidationError):
            oracle_weight(-1.0, 2.0)


class TestFitEm:
    def test_one_step_update(self):
        data = unlabeled([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ConvergenceError) as err:
            fit_em(data, np.array([1.0, 0.0]), max_iter=1)
        assert np.abs(err.value.last.theta - np.array([math.tanh(1.0), 0.0])).max() < 1e-12

    def test_contracts_toward_zero(self):
        data = unlabeled([[1.0, 0.0], [-1.0, 0.0]])
        out = fit_em(data, np.array([1.0, 0.0]), max_iter=500_000)
        assert np.linalg.norm(out.theta) <= 0.005

    def test_zero_is_a_fixed_point(self):
        data = unlabeled([[1.0, 2.0], [3.0, -1.0]])
        out = fit_em(data, np.zeros(2), max_iter=5)
        assert np.array_equal(out.theta, np.zeros(2))

    def test_log_likelihood_nondecreasing(self):
        """Each update step never lowers the mixture log-likelihood."""
        rng = np.random.default_rng(69)
        model = MixtureModel(theta_star=np.array([1.0, 0.5]))
        for seed in range(5):
            data = sample_unlabeled(model, 200, seed=seed)
            theta = rng.standard_normal(2) * 0.5
            values = [oracles.sym_mixture_avg_loglik(theta, data.x)]
            for _ in range(30):
                try:
                    out = fit_em(data, theta, max_iter=1)
                    theta = out.theta
                    values.append(oracles.sym_mixture_avg_loglik(theta, data.x))
                    break
                except ConvergenceError as err:
                    theta = err.last.theta
                    values.append(oracles.sym_mixture_avg_loglik(theta, data.x))
            assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    def test_recovers_separated_means(self):
        model = MixtureModel(theta_star=np.array([2.0, 0.0]))
        data = sample_unlabeled(model, 2_000, seed=11)
        out = fit_em(data, np.array([0.5, 0.0]), max_iter=100_000)
        assert np.linalg.norm(out.theta - model.theta_star) < 0.15

    def test_rejects_bad_inputs(self):
        data = unlabeled([[1.0, 0.0]])
        with pytest.raises(ValidationError):
            fit_em(data, np.array([1.0, 0.0, 0.0]))
        for bad in BAD_MAX_ITER:
            with pytest.raises(ValidationError, match="max_iter"):
                fit_em(data, np.array([1.0, 0.0]), max_iter=bad)


class TestFitEmMeans:
    def test_symmetric_init_tracks_symmetric_em_shape(self):
        model = MixtureModel(theta_star=np.array([1.5, 0.0]))
        data = sample_unlabeled(model, 3_000, seed=13)
        out = fit_em_means(data, np.array([0.5, 0.1]))
        err = min(
            np.linalg.norm(out.theta - model.theta_star),
            np.linalg.norm(out.theta + model.theta_star),
        )
        assert err < 0.2

    def test_rejects_empty(self):
        model = MixtureModel(theta_star=np.array([1.0, 0.0]))
        with pytest.raises(ValidationError):
            fit_em_means(sample_unlabeled(model, 0, seed=0), np.array([1.0, 0.0]))


def newton_unblocked(data, ridge, tol, max_iter):
    """fit_logistic's damped Newton with the Hessian as one product, ((yx * w) @ yx.T) / n."""
    yx = np.multiply(data.x.T, data.y, order="C")
    d, n = yx.shape
    theta = np.zeros(d)
    margins = theta @ yx
    scratch = np.empty((2, n))
    value = estimators._loss(margins, theta, ridge, scratch)
    for _ in range(max_iter):
        p = _sigmoid(-margins)
        grad = -(yx @ p) / n + 2.0 * ridge * theta
        if math.sqrt(float(grad @ grad)) <= tol:
            return theta
        hessian = ((yx * ((1.0 - p) * p)) @ yx.T) / n
        hessian.flat[:: d + 1] += 2.0 * ridge
        direction = np.linalg.solve(hessian, -grad)
        slope = float(grad @ direction)
        step = 1.0
        while True:
            candidate = theta + step * direction
            cand_margins = candidate @ yx
            cand_value = estimators._loss(cand_margins, candidate, ridge, scratch)
            if cand_value <= value + 1e-4 * step * slope:
                break
            step *= 0.5
        theta, value, margins = candidate, cand_value, cand_margins
    raise AssertionError("newton_unblocked did not converge")


class TestFitLogistic:
    def test_huge_ridge_shrinks_to_zero(self):
        model = MixtureModel(theta_star=np.array([1.0, 0.0]))
        data = sample_labeled(model, 40, seed=21)
        out = fit_logistic(data, ridge=1e6, tol=1e-4, max_iter=10_000)
        assert np.linalg.norm(out.theta) <= 1e-3

    def test_symmetric_two_point_data(self):
        data = labeled([[1.0, 0.0], [-1.0, 0.0]], [1.0, -1.0])
        out = fit_logistic(data, ridge=0.1, tol=1e-10, max_iter=50_000)
        assert out.theta[0] > 0
        assert abs(out.theta[1]) <= 1e-8

    def test_matches_convex_oracle(self):
        """Backtracking GD and fixed-step GD find the same optimum."""
        rng = np.random.default_rng(70)
        for seed in range(3):
            model = MixtureModel(theta_star=rng.standard_normal(3))
            data = sample_labeled(model, 50, seed=30 + seed)
            out = fit_logistic(data, ridge=0.1, tol=1e-8, max_iter=50_000)
            ref = oracles.logistic_fixed_step(data.x, data.y, 0.1, tol=1e-10)
            mine = oracles.logistic_objective(out.theta, data.x, data.y, 0.1)
            best = oracles.logistic_objective(ref, data.x, data.y, 0.1)
            assert mine <= best + 1e-6
            assert abs(mine - best) <= 1e-6

    def test_gradient_norm_at_return(self):
        model = MixtureModel(theta_star=np.array([1.0, 0.0]))
        data = sample_labeled(model, 60, seed=51)
        out = fit_logistic(data, ridge=0.05, tol=1e-8, max_iter=50_000)
        grad = oracles.logistic_gradient(out.theta, data.x, data.y, 0.05)
        assert float(np.linalg.norm(grad)) <= 1e-8

    def test_separable_without_ridge_does_not_converge(self):
        data = labeled([[1.0, 0.0], [-1.0, 0.0]], [1.0, -1.0])
        with pytest.raises(ConvergenceError) as err:
            fit_logistic(data, ridge=0.0, tol=1e-10, max_iter=100)
        assert np.all(np.isfinite(err.value.last.theta))

    def test_newton_converges_in_few_iterations_on_large_draws(self):
        # Well separated classes: gradient steps need hundreds of
        # iterations here at some ridge values, Newton steps a handful.
        model = MixtureModel(theta_star=np.array([2.0, 0.0]))
        data = sample_labeled(model, 7_000, seed=81)
        for ridge in DEFAULT_RIDGE_GRID:
            out = fit_logistic(data, ridge, tol=1e-6, max_iter=50)
            grad = oracles.logistic_gradient(out.theta, data.x, data.y, ridge)
            assert float(np.linalg.norm(grad)) <= 1e-6

    def test_rejects_bad_inputs(self):
        data = labeled([[1.0, 0.0]], [1.0])
        for ridge in (-0.1, True):
            with pytest.raises(ValidationError, match="ridge"):
                fit_logistic(data, ridge=ridge)
        for tol in (0.0, True):
            with pytest.raises(ValidationError, match="tol"):
                fit_logistic(data, ridge=0.1, tol=tol)
        for bad in BAD_MAX_ITER:
            with pytest.raises(ValidationError, match="max_iter"):
                fit_logistic(data, 0.1, max_iter=bad)

    @pytest.mark.parametrize("blocks,rtol", [(1, 0.0), (2.5, 1e-12)])
    def test_blocked_hessian_matches_one_product(self, blocks, rtol):
        # One block is the same multiply and gemm; more sum their grams in another order.
        model = MixtureModel(theta_star=np.array([0.9, -0.4, 0.3, 0.0, 0.2]))
        data = sample_labeled(model, int(blocks * estimators.HESSIAN_BLOCK), seed=91)
        for ridge in (0.0, 0.01):
            got = fit_logistic(data, ridge, tol=1e-10, max_iter=100).theta
            want = newton_unblocked(data, ridge, 1e-10, 100)
            assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))

    def test_peak_holds_the_folded_table_and_one_hessian_block(self):
        # yx (1.0 x the features) and one d x HESSIAN_BLOCK scratch (0.41 x) read
        # 1.71; a d x n scratch for the Hessian product read 2.30.
        rows, cols = 40_000, 20
        data = sample_labeled(MixtureModel(theta_star=np.full(cols, 0.3)), rows, seed=92)
        peak = oracles.traced_peak(lambda: fit_logistic(data, 0.01))
        assert peak < 1.8 * rows * cols * 8

    def test_flipping_samples_with_their_labels_changes_no_bit(self):
        # The solver sees only the products y_i x_i, which (-x_i, -y_i)
        # reproduces exactly.
        model = MixtureModel(theta_star=np.array([1.0, -0.5, 0.3]))
        data = sample_labeled(model, 80, seed=52)
        flip = np.where(np.random.default_rng(53).random(data.n) < 0.5, -1.0, 1.0)
        flipped = LabeledDataset(x=data.x * flip[:, None], y=data.y * flip)
        for ridge in (0.001, 0.1):
            want = fit_logistic(data, ridge, tol=1e-10).theta
            assert np.array_equal(fit_logistic(flipped, ridge, tol=1e-10).theta, want)


class TestLogisticKernels:
    MARGINS = np.concatenate([
        np.linspace(-800.0, 800.0, 3201),
        [-709.9, -37.5, -1e-300, 0.0, 1e-300, 37.5, 709.9],
    ])

    def test_sigmoid_is_stable_and_matches_oracle(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = _sigmoid(self.MARGINS)
        assert np.all(np.isfinite(out))
        expected = np.array([oracles.sigmoid(z) for z in self.MARGINS])
        assert np.max(np.abs(out - expected)) <= 4.5e-16

    def test_objective_is_stable_and_matches_oracle(self):
        theta = np.array([1.0])
        for margin in self.MARGINS:
            data = labeled([[margin]], [1.0])
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                value = estimators._loss(data.y * (data.x @ theta), theta, 0.0, np.empty((2, 1)))
            expected = oracles.logistic_objective(theta, data.x, data.y, 0.0)
            assert math.isfinite(value)
            assert abs(value - expected) <= 1e-15 * max(1.0, expected)

    def test_newton_on_read_only_inputs_gives_the_same_bits(self):
        # Scratch arrays take every elementwise pass: a write into yx or
        # the start theta would raise here.
        lab = sample_labeled(MixtureModel(theta_star=np.array([0.8, -0.5])), 300, seed=71)
        yx = np.multiply(lab.x.T, lab.y, order="C")
        start = np.array([0.2, 0.1])
        want = estimators._newton(yx.copy(), 0.01, 1e-10, 100, start.copy())
        frozen_yx, frozen_start = yx.copy(), start.copy()
        frozen_yx.flags.writeable = False
        frozen_start.flags.writeable = False
        assert np.array_equal(estimators._newton(frozen_yx, 0.01, 1e-10, 100, frozen_start), want)
        assert np.array_equal(frozen_yx, yx) and np.array_equal(frozen_start, start)


def record_newton_calls(monkeypatch):
    """Record the row count of every _newton call from here on; returns the record."""
    calls = []
    newton = estimators._newton
    monkeypatch.setattr(
        estimators, "_newton", lambda yx, *a: calls.append(yx.shape[1]) or newton(yx, *a)
    )
    return calls


def set_logistic_solver(monkeypatch, tol, max_iter=estimators.LOGISTIC_MAX_ITER):
    """Run every self-training refit to `tol` within `max_iter` iterations."""
    monkeypatch.setattr(estimators, "LOGISTIC_TOL", tol)
    monkeypatch.setattr(estimators, "LOGISTIC_MAX_ITER", max_iter)


def self_train(lab, unlab, thresholds, ridge):
    """self_train_path from the stage-1 fit at the refits' solver settings."""
    tol, max_iter = estimators.LOGISTIC_TOL, estimators.LOGISTIC_MAX_ITER
    stage1 = fit_logistic(lab, ridge, tol=tol, max_iter=max_iter)
    return self_train_path(lab, unlab, thresholds, ridge, stage1)


def per_ridge(data, ridges):
    """The reference for fit_logistic_grid: one fit_logistic per ridge at the
    module's solver settings, each entry the fit or the error it raised."""
    fits = []
    for ridge in ridges:
        try:
            fits.append(fit_logistic(
                data, ridge, tol=estimators.LOGISTIC_TOL, max_iter=estimators.LOGISTIC_MAX_ITER
            ))
        except ConvergenceError as err:
            fits.append(err)
    return fits


def assert_same_fits(got, want):
    """Byte-equal thetas, and errors of the same type, message and last iterate."""
    assert len(got) == len(want)
    for out, ref in zip(got, want):
        assert type(out) is type(ref)
        if isinstance(ref, ConvergenceError):
            assert str(out) == str(ref)
            out, ref = out.last, ref.last
        assert out.theta.tobytes() == ref.theta.tobytes()


class TestFitLogisticGrid:
    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, 2, 10, 175, 1750])
    def test_every_ridge_is_bit_for_bit_its_own_fit(self, n, d):
        rng = np.random.default_rng(1000 * n + d)
        for seed, snr in enumerate((0.3, 1.0, 3.0)):
            theta = rng.standard_normal(d)
            model = MixtureModel(theta_star=snr * theta / np.linalg.norm(theta))
            data = sample_labeled(model, n, seed=seed)
            assert_same_fits(fit_logistic_grid(data, DEFAULT_RIDGE_GRID),
                             per_ridge(data, DEFAULT_RIDGE_GRID))

    def test_near_separable_data_fails_only_the_smallest_ridge(self, monkeypatch):
        # Separable draws: the smallest ridge needs 12 iterations, the next 10.
        # Its problem is still in the stack at a cap of 11, so _newton alone
        # solves it again and raises.
        data = sample_labeled(MixtureModel(theta_star=np.array([4.0, 0.0])), 10, seed=0)
        calls = record_newton_calls(monkeypatch)
        for cap in (estimators.LOGISTIC_MAX_ITER, 11):
            set_logistic_solver(monkeypatch, estimators.LOGISTIC_TOL, cap)
            want = per_ridge(data, DEFAULT_RIDGE_GRID)
            calls.clear()
            fits = fit_logistic_grid(data, DEFAULT_RIDGE_GRID)
            assert_same_fits(fits, want)
            assert calls == [data.n] * (cap == 11)
            failed = [isinstance(fit, ConvergenceError) for fit in fits]
            assert failed == [cap == 11] + [False] * 6

    def test_a_failed_batch_solve_hands_every_ridge_to_the_single_fit(self, monkeypatch):
        # At ridge 0 the Hessian of axis-aligned data is singular, so the batched
        # solve raises and _newton solves each ridge alone: that problem steps
        # along -g, the others keep their Newton steps. On separable data ridge 0
        # never converges.
        set_logistic_solver(monkeypatch, 1e-10, 60)
        calls = record_newton_calls(monkeypatch)
        raised = []
        solve = np.linalg.solve

        def recorded(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                raised.append(np.ndim(a))
                raise

        monkeypatch.setattr(np.linalg, "solve", recorded)
        data = labeled([[1.0, 0.0], [-1.0, 0.0]], [1.0, -1.0])
        ridges = [0.0, 0.1, 1e-3, 0.0]
        fits = fit_logistic_grid(data, ridges)
        assert 3 in raised
        assert calls == [2] * len(ridges)
        assert_same_fits(fits, per_ridge(data, ridges))
        assert [isinstance(fit, ConvergenceError) for fit in fits] == [True, False, False, True]

    def test_a_stalled_line_search_raises_as_the_single_fit_does(self, monkeypatch):
        # Margins of 1e200-scale rows overflow, so no step along them is accepted:
        # no full step passes, and _newton alone solves every ridge.
        data = labeled([[1e200, 1.0], [-1.0, 2.0], [3.0, -1e200]], [1.0, -1.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            want = per_ridge(data, DEFAULT_RIDGE_GRID)
            calls = record_newton_calls(monkeypatch)
            fits = fit_logistic_grid(data, DEFAULT_RIDGE_GRID)
        assert_same_fits(fits, want)
        assert calls == [data.n] * len(DEFAULT_RIDGE_GRID)
        assert {str(fit) for fit in fits} == {"backtracking line search stalled"}

    def test_past_the_block_each_ridge_runs_alone(self, monkeypatch):
        calls = record_newton_calls(monkeypatch)
        model = MixtureModel(theta_star=np.array([0.6, -0.2]))
        stacked = estimators.HESSIAN_BLOCK // len(DEFAULT_RIDGE_GRID)
        for n, alone in ((stacked, 0), (stacked + 1, len(DEFAULT_RIDGE_GRID))):
            data = sample_labeled(model, n, seed=n)
            want = per_ridge(data, DEFAULT_RIDGE_GRID)
            calls.clear()
            assert_same_fits(fit_logistic_grid(data, DEFAULT_RIDGE_GRID), want)
            assert calls == [n] * alone

    def test_an_empty_grid_fits_nothing(self):
        assert fit_logistic_grid(labeled([[1.0, 0.0]], [1.0]), []) == []

    def test_rejects_bad_inputs(self):
        data = labeled([[1.0, 0.0]], [1.0])
        for ridge in (-0.1, True):
            with pytest.raises(ValidationError, match="ridge"):
                fit_logistic_grid(data, [0.1, ridge])
        with pytest.raises(ValidationError, match="at least one sample"):
            fit_logistic_grid(LabeledDataset(x=np.zeros((0, 2)), y=np.zeros(0)), [0.1])


class TestSelfTrain:
    def test_rejects_stage1_of_wrong_dimension(self):
        lab = labeled([[1.0, 0.0], [-1.0, 0.0]], [1.0, -1.0])
        with pytest.raises(ValidationError):
            self_train_path(lab, unlabeled([[1.0, 0.0]]), [0.5], ridge=0.1,
                            stage1=EstimatorOutput(np.ones(3)))

    def test_infinite_threshold_degenerates_to_logistic(self, monkeypatch):
        set_logistic_solver(monkeypatch, 1e-8, 50_000)
        model = MixtureModel(theta_star=np.array([1.0, 0.0]))
        lab = sample_labeled(model, 25, seed=61)
        unlab = sample_unlabeled(model, 100, seed=62)
        plain = fit_logistic(lab, ridge=0.01, tol=1e-8, max_iter=50_000)
        (st,) = self_train(lab, unlab, [math.inf], 0.01)
        assert np.array_equal(st.theta, plain.theta)

    def test_empty_unlabeled_degenerates_to_logistic(self, monkeypatch):
        set_logistic_solver(monkeypatch, 1e-8, 50_000)
        model = MixtureModel(theta_star=np.array([1.0, 0.0]))
        lab = sample_labeled(model, 25, seed=63)
        unlab = sample_unlabeled(model, 0, seed=64)
        plain = fit_logistic(lab, ridge=0.01, tol=1e-8, max_iter=50_000)
        (st,) = self_train(lab, unlab, [1.0], 0.01)
        assert np.array_equal(st.theta, plain.theta)

    def test_pseudolabels_match_manual_union(self, monkeypatch):
        set_logistic_solver(monkeypatch, 1e-7, 50_000)
        lab = labeled([[10.0, 0.0], [-10.0, 0.0]], [1.0, -1.0])
        unlab = unlabeled([[5.0, 0.0], [-5.0, 0.0], [0.1, 0.0]])
        (st,) = self_train(lab, unlab, [1.0], 0.1)
        union = labeled(
            [[10.0, 0.0], [-10.0, 0.0], [5.0, 0.0], [-5.0, 0.0]],
            [1.0, -1.0, 1.0, -1.0],
        )
        manual = fit_logistic(union, ridge=0.1, tol=1e-7, max_iter=50_000)
        assert np.array_equal(st.theta, manual.theta)

    def test_threshold_zero_uses_all_points(self, monkeypatch):
        set_logistic_solver(monkeypatch, 1e-7, 50_000)
        lab = labeled([[10.0, 0.0], [-10.0, 0.0]], [1.0, -1.0])
        unlab = unlabeled([[5.0, 0.0], [-5.0, 0.0], [0.0, 3.0]])
        (st,) = self_train(lab, unlab, [0.0], 0.1)
        union = labeled(
            [[10.0, 0.0], [-10.0, 0.0], [5.0, 0.0], [-5.0, 0.0], [0.0, 3.0]],
            [1.0, -1.0, 1.0, -1.0, 1.0],
        )
        manual = fit_logistic(union, ridge=0.1, tol=1e-7, max_iter=50_000)
        assert np.array_equal(st.theta, manual.theta)

    def test_degenerate_stage_one(self, monkeypatch):
        set_logistic_solver(monkeypatch, 1e-10, 50_000)
        # contradictory labels force the stage-1 fit to zero
        lab = labeled([[1.0, 0.0], [1.0, 0.0]], [1.0, -1.0])
        unlab = unlabeled([[5.0, 0.0]])
        (st,) = self_train(lab, unlab, [0.5], 0.1)
        assert np.linalg.norm(st.theta) <= 1e-8

    def test_beats_plain_logistic_with_plenty_of_unlabeled(self, monkeypatch):
        set_logistic_solver(monkeypatch, 1e-7, 50_000)
        model = MixtureModel(theta_star=np.array([1.0, 0.0]))
        st_errors = []
        sl_errors = []
        for seed in range(20):
            lab = sample_labeled(model, 20, seed=100 + seed)
            unlab = sample_unlabeled(model, 2_000, seed=200 + seed)
            plain = fit_logistic(lab, ridge=0.01, tol=1e-7, max_iter=50_000)
            (st,) = self_train(lab, unlab, [1.0], 0.01)
            sl_errors.append(prediction_error(plain.theta, model.theta_star))
            st_errors.append(prediction_error(st.theta, model.theta_star))
        assert np.mean(st_errors) <= np.mean(sl_errors)

    def test_rejects_negative_threshold(self):
        lab = labeled([[1.0, 0.0]], [1.0])
        with pytest.raises(ValidationError):
            self_train(lab, unlabeled([[1.0, 0.0]]), [-1.0], 0.1)


def unit_margin_data():
    """Labeled rows on the first axis and unlabeled rows whose stage-1
    margins all equal exactly 1: the stage-1 fit stays on that axis."""
    lab = labeled([[2.0, 0.0], [-2.0, 0.0], [1.0, 0.0], [-1.5, 0.0]], [1.0, -1.0, 1.0, -1.0])
    unlab = unlabeled([[1.0, 0.3], [-1.0, 0.7], [1.0, -2.0], [-1.0, 0.1], [1.0, 1.5]])
    return lab, unlab


class TestSelfTrainPath:
    RIDGE = 0.01
    TOL = 1e-8

    @pytest.fixture(autouse=True)
    def tight_tolerance(self, monkeypatch):
        set_logistic_solver(monkeypatch, self.TOL)

    def draw(self, seed, n_l=30, n_u=600):
        model = MixtureModel(theta_star=np.array([0.8, 0.3]))
        return sample_labeled(model, n_l, seed=seed), sample_unlabeled(model, n_u, seed=seed + 1)

    def check_against_masks(self, lab, unlab, thresholds, fits):
        stage1 = fit_logistic(lab, self.RIDGE, tol=self.TOL)
        _, unions, _ = oracles.self_train_by_masks(
            lab.x, lab.y, unlab.x, unlab.x[:1], thresholds, stage1.theta, lambda x, y: None
        )
        for out, (x, y) in zip(fits, unions):
            grad = oracles.logistic_gradient(out.theta, x, y, self.RIDGE)
            assert float(np.linalg.norm(grad)) <= self.TOL

    def test_duplicate_thresholds_share_one_refit(self, monkeypatch):
        lab, unlab = self.draw(92)
        calls = record_newton_calls(monkeypatch)
        thresholds = [0.5, 1.0, 0.5, 1.0, 1.0]
        fits = self_train(lab, unlab, thresholds, self.RIDGE)
        assert fits[0] is fits[2]
        assert fits[1] is fits[3] is fits[4]
        # the stage-1 fit, then the two unions in ascending size
        assert len(calls) == 3 and calls[0] == lab.n < calls[1] < calls[2]
        self.check_against_masks(lab, unlab, thresholds, fits)

    def test_tied_margins_at_a_threshold_are_all_kept(self):
        lab, unlab = unit_margin_data()
        thresholds = [1.0, 1.0 + 1e-12, 0.5]
        fits = self_train(lab, unlab, thresholds, 0.1)
        union = labeled(
            np.concatenate([lab.x, unlab.x]), np.concatenate([lab.y, [1.0, -1.0, 1.0, -1.0, 1.0]])
        )
        alone = fit_logistic(lab, 0.1, tol=self.TOL)
        assert np.array_equal(fits[1].theta, alone.theta)
        assert fits[0] is fits[2]
        # All five tied rows join in their original order, warm-started.
        grad = oracles.logistic_gradient(fits[0].theta, union.x, union.y, 0.1)
        assert float(np.linalg.norm(grad)) <= self.TOL
        assert np.array_equal(
            self_train(lab, unlab, [1.0], 0.1)[0].theta,
            fit_logistic(union, 0.1, tol=self.TOL).theta,
        )

    def test_one_threshold_union_keeps_the_original_row_order(self):
        # The kept rows join in their original order, as in the mask-built
        # union, so the refit is bit-identical to a cold fit on that union.
        lab, unlab = self.draw(95)
        stage1 = fit_logistic(lab, self.RIDGE, tol=self.TOL)
        thresholds = (0.0, 0.3, 0.8, 1.6)
        _, unions, _ = oracles.self_train_by_masks(
            lab.x, lab.y, unlab.x, unlab.x[:1], thresholds, stage1.theta, lambda x, y: None
        )
        for threshold, (x, y) in zip(thresholds, unions):
            (st,) = self_train_path(lab, unlab, [threshold], self.RIDGE, stage1)
            cold = fit_logistic(LabeledDataset(x=x, y=y), self.RIDGE, tol=self.TOL)
            assert np.array_equal(st.theta, cold.theta)

    def test_prefixes_hold_exactly_the_rows_each_threshold_keeps(self, monkeypatch):
        lab, unlab = self.draw(96, n_u=300)
        stage1 = fit_logistic(lab, self.RIDGE, tol=self.TOL)
        thresholds = [1.2, 0.0, 0.45, math.inf, 0.45, 2.0]
        unions = []
        newton = estimators._newton
        monkeypatch.setattr(
            estimators, "_newton",
            lambda yx, *a: unions.append(yx.copy()) or newton(yx, *a),
        )
        self_train_path(lab, unlab, thresholds, self.RIDGE, stage1)
        _, masks, _ = oracles.self_train_by_masks(
            lab.x, lab.y, unlab.x, unlab.x[:1], thresholds, stage1.theta, lambda x, y: None
        )
        # Each refit gets the union folded into columns y_i x_i.
        expected = sorted({len(x): y[:, None] * x for x, y in masks}.items())
        assert [yx.shape[1] for yx in unions] == [size for size, _ in expected]
        for yx, (_, want) in zip(unions, expected):
            assert sorted(map(tuple, yx.T)) == sorted(map(tuple, want))

    def test_self_train_raises_its_failed_refit(self, monkeypatch):
        lab, unlab = self.draw(93)
        stage1 = fit_logistic(lab, self.RIDGE, tol=self.TOL)

        def failing(yx, ridge, tol, max_iter, theta0):
            raise ConvergenceError("injected", last=EstimatorOutput(theta0))

        monkeypatch.setattr(estimators, "_newton", failing)
        # The path returns the failure in that threshold's slot, not raises it.
        (out,) = self_train_path(lab, unlab, [0.2], self.RIDGE, stage1)
        assert isinstance(out, ConvergenceError) and str(out) == "injected"

    def test_flipping_labeled_samples_with_their_labels_changes_no_bit(self):
        lab, unlab = self.draw(97)
        flip = np.where(np.random.default_rng(98).random(lab.n) < 0.5, -1.0, 1.0)
        flipped = LabeledDataset(x=lab.x * flip[:, None], y=lab.y * flip)
        thresholds = [0.0, 0.4, 1.1, math.inf]
        fits = self_train(lab, unlab, thresholds, self.RIDGE)
        again = self_train(flipped, unlab, thresholds, self.RIDGE)
        for out, want in zip(again, fits):
            assert np.array_equal(out.theta, want.theta)

    def union_sizes(self, monkeypatch, lab, unlab, thresholds, stage1):
        """Each threshold's union size, the sizes refit in call order, and
        the fits, from a stub _newton whose theta is the size of its union."""
        calls = []

        def stub(yx, ridge, tol, max_iter, theta):
            calls.append(yx.shape[1])
            return np.full(yx.shape[0], float(yx.shape[1]))

        monkeypatch.setattr(estimators, "_newton", stub)
        fits = self_train_path(lab, unlab, thresholds, self.RIDGE, stage1=stage1)
        return [int(out.theta[0]) for out in fits], calls, fits

    def test_a_margin_equal_to_a_threshold_is_kept(self, monkeypatch):
        lab, unlab = unit_margin_data()
        stage1 = EstimatorOutput(np.array([3.0, 0.0]))  # every margin is 1.0
        above, below = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
        thresholds = [1.0, above, 1.0, math.inf, below]
        sizes, calls, fits = self.union_sizes(monkeypatch, lab, unlab, thresholds, stage1)
        assert sizes == [9, 4, 9, 4, 9]
        # duplicates share one refit; inf, like a threshold above every margin, keeps no row
        assert calls == [4, 9]
        assert fits[0] is fits[2] is fits[4] and fits[1] is fits[3]

    def test_union_sizes_match_a_searchsorted_reference(self, monkeypatch):
        lab, unlab = self.draw(99, n_u=400)
        stage1 = fit_logistic(lab, self.RIDGE, tol=self.TOL)
        margins = np.abs(unlab.x @ stage1.theta) / float(np.linalg.norm(stage1.theta))
        ordered = np.sort(margins)
        # Exact margins (tied with a row), repeats, points between and beyond them.
        thresholds = [float(ordered[i]) for i in (0, 57, 57, 200, 399)]
        thresholds += [0.0, 0.3, 0.3, float(ordered[-1]) + 1.0, math.inf]
        sizes, calls, _ = self.union_sizes(monkeypatch, lab, unlab, thresholds, stage1)
        want = [lab.n + unlab.n - int(np.searchsorted(ordered, t)) for t in thresholds]
        assert sizes == want
        assert calls == sorted(set(want))

    def test_rejects_bad_thresholds(self):
        lab, unlab = self.draw(94)
        for bad in ([-0.1], [0.5, math.nan], ["1.0"], [0.5, True]):
            with pytest.raises(ValidationError):
                self_train(lab, unlab, bad, self.RIDGE)

    def test_rejects_an_unlabeled_set_of_another_width(self):
        lab, _ = self.draw(95)
        wide = sample_unlabeled(MixtureModel(theta_star=np.array([0.8, 0.3, 0.1])), 20, seed=96)
        with pytest.raises(ValidationError, match="^unlabeled dimension differs from the data$"):
            self_train(lab, wide, [0.5], self.RIDGE)


class TestFitSphericalLda:
    def test_worked_example(self):
        out = fit_spherical_lda(labeled([[2.0, 0.0], [-4.0, 0.0]], [1.0, -1.0]))
        assert np.allclose(out.theta, [3.0, 0.0])

    def test_balanced_classes_match_fit_sl(self):
        rng = np.random.default_rng(72)
        x = rng.standard_normal((10, 3))
        y = np.array([1.0] * 5 + [-1.0] * 5)
        lda = fit_spherical_lda(LabeledDataset(x=x, y=y))
        sl = fit_sl(LabeledDataset(x=x, y=y))
        assert np.abs(lda.theta - sl.theta).max() <= 1e-12

    def test_imbalanced_classes_differ_from_fit_sl(self):
        data = labeled(
            [[2.0, 0.0], [2.0, 0.0], [2.0, 0.0], [-4.0, 0.0]],
            [1.0, 1.0, 1.0, -1.0],
        )
        lda = fit_spherical_lda(data)
        sl = fit_sl(data)
        assert np.allclose(lda.theta, [3.0, 0.0])
        assert np.allclose(sl.theta, [2.5, 0.0])

    def test_rejects_single_class(self):
        with pytest.raises(ValidationError):
            fit_spherical_lda(labeled([[1.0, 0.0]], [1.0]))


class TestDomainTypes:
    def test_weight_selection_validation(self):
        assert WeightSelection(t=0.5).t == 0.5
        for bad in (1.5, -0.1, math.nan):
            with pytest.raises(ValidationError):
                WeightSelection(t=bad)

    def test_eigenpair_unit_norm_not_enforced_by_type(self):
        pair = EigenPair(value=2.0, vector=np.array([1.0, 0.0]))
        assert pair.value == 2.0
