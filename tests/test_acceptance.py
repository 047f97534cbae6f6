"""End-to-end acceptance checks for the simulation library.

Each test covers one numbered criterion and prints a single summary line
with the measured quantities once its assertions pass. The suite leans on
the independent oracles in oracles.py for anything with a second route.
"""

import math
import time

import numpy as np
import pytest

import oracles
from ssl_lab import cli
from ssl_lab.estimators import (
    fit_em,
    fit_logistic,
    fit_sl,
    fit_ssl_s,
    fit_ul,
    fix_sign,
    leading_eigenpair,
    oracle_weight,
)
from ssl_lab.errors import ConvergenceError
from ssl_lab.experiments import PRESETS, TrialConfig, error_gap, run_sweep, scaling_fit
from ssl_lab.gmm import (
    MixtureModel,
    estimation_error,
    excess_risk,
    prediction_error,
    sample_labeled,
    sample_unlabeled,
)
from ssl_lab.seeds import stream_seed, trial_seed
from ssl_lab.theory import ProblemSize, oracle_gap, rate_improvement


def unit_vector(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def pair_seed(base, cell, rep, stream):
    return stream_seed(trial_seed(base, cell * 10_000 + rep), stream)


def log_log_slope(grid, values):
    x = np.log(np.asarray(grid, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    x = x - x.mean()
    return float((x @ (y - y.mean())) / (x @ x))


def mc_mse_triple(mse_a, mse_b, trials, d, seed):
    """Monte Carlo MSEs of two synthetic unbiased estimators and their
    oracle-weighted combination, using common random numbers."""
    rng = np.random.default_rng(seed)
    t = oracle_weight(mse_a, mse_b).t
    sig_a = math.sqrt(mse_a / d)
    sig_b = math.sqrt(mse_b / d)
    sums = np.zeros(3)
    left = trials
    while left > 0:
        m = min(left, 50_000)
        noise_a = sig_a * rng.standard_normal((m, d))
        noise_b = sig_b * rng.standard_normal((m, d))
        combined = t * noise_a + (1.0 - t) * noise_b
        sums[0] += float(np.sum(noise_a * noise_a))
        sums[1] += float(np.sum(noise_b * noise_b))
        sums[2] += float(np.sum(combined * combined))
        left -= m
    return sums / trials


class TestAcceptance:
    def test_01_closed_form_risk_matches_monte_carlo(self):
        start = time.perf_counter()
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(20):
            theta_star = rng.uniform(0.4, 2.2) * unit_vector(rng, 5)
            theta_hat = rng.standard_normal(5)
            model = MixtureModel(theta_star=theta_star)
            p = prediction_error(theta_hat, theta_star)
            data = sample_labeled(model, 10**6, seed=int(rng.integers(2**63)))
            predicted = np.where(data.x @ theta_hat >= 0.0, 1.0, -1.0)
            empirical = float(np.mean(predicted != data.y))
            se = math.sqrt(p * (1.0 - p) / 10**6)
            worst = max(worst, abs(empirical - p) / se)
            assert abs(empirical - p) <= 3.0 * se
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        print(f"criterion 1: pass, max |z| = {worst:.2f} over 20 pairs, {elapsed:.1f}s")

    def test_02_supervised_estimation_error_mean(self):
        start = time.perf_counter()
        d, n_l, reps = 20, 100, 200
        theta_star = np.zeros(d)
        theta_star[0] = 1.0
        model = MixtureModel(theta_star=theta_star)
        errors = []
        for rep in range(reps):
            labeled = sample_labeled(model, n_l, seed=pair_seed(12, 0, rep, 0))
            errors.append(estimation_error(fit_sl(labeled).theta, theta_star))
        mean = float(np.mean(errors))
        expected = math.sqrt(2.0) * math.gamma(10.5) / math.gamma(10.0) / 10.0
        bound = math.sqrt(d / n_l)
        elapsed = time.perf_counter() - start
        assert abs(mean - expected) <= 0.05 * expected
        assert mean <= bound
        assert elapsed < 10.0
        print(
            f"criterion 2: pass, mean {mean:.4f} vs expected {expected:.4f}"
            f" (bound {bound:.4f}), {elapsed:.1f}s"
        )

    def test_03_unsupervised_error_scaling(self):
        start = time.perf_counter()
        d, reps = 10, 50
        theta_star = np.zeros(d)
        theta_star[0] = 1.0
        model = MixtureModel(theta_star=theta_star)
        grid = (2_000, 8_000, 32_000, 128_000)
        means = []
        for cell, n_u in enumerate(grid):
            errs = []
            for rep in range(reps):
                data = sample_unlabeled(model, n_u, seed=pair_seed(3, cell, rep, 1))
                theta = fit_ul(data).theta
                errs.append(
                    min(
                        estimation_error(theta, theta_star),
                        estimation_error(-theta, theta_star),
                    )
                )
            means.append(float(np.mean(errs)))
        slope = log_log_slope(grid, means)
        elapsed = time.perf_counter() - start
        assert -0.65 <= slope <= -0.35
        assert elapsed < 120.0
        print(f"criterion 3: pass, sign-corrected slope {slope:.3f}, {elapsed:.1f}s")

    def test_04_switching_excess_risk_scaling(self):
        start = time.perf_counter()
        d = 10
        theta_star = np.zeros(d)
        theta_star[0] = 1.0
        model = MixtureModel(theta_star=theta_star)
        grid = (2_000, 8_000, 32_000, 128_000)

        ul_cfg = TrialConfig(model=model, n_l=50, n_u=0, methods=("ssls",), base_seed=41)
        ul_sweep = run_sweep(ul_cfg, "nu", grid, replicates=50)
        ul_slope = scaling_fit(ul_sweep, "ssls", metric="excess")

        sl_cfg = TrialConfig(model=model, n_l=50, n_u=0, methods=("ssls",), base_seed=42)
        sl_sweep = run_sweep(sl_cfg, "nl", grid, replicates=50)
        sl_slope = scaling_fit(sl_sweep, "ssls", metric="excess")

        elapsed = time.perf_counter() - start
        assert -1.3 <= ul_slope <= -0.7
        assert -1.3 <= sl_slope <= -0.7
        assert elapsed < 180.0
        print(
            f"criterion 4: pass, excess slopes {ul_slope:.3f} (unlabeled axis)"
            f" and {sl_slope:.3f} (labeled axis), {elapsed:.1f}s"
        )

    def test_05_sign_fixing_failure_rate(self):
        start = time.perf_counter()
        d, n_u, trials = 5, 5_000, 500
        theta_star = np.zeros(d)
        theta_star[0] = 1.0
        model = MixtureModel(theta_star=theta_star)
        rates = []
        for cell, n_l in enumerate((5, 20, 100)):
            wrong = 0
            for rep in range(trials):
                labeled = sample_labeled(model, n_l, seed=pair_seed(5, cell, rep, 0))
                pool = sample_unlabeled(model, n_u, seed=pair_seed(5, cell, rep, 1))
                raw = fit_ul(pool)
                theta = fix_sign(raw, fit_sl(labeled)).theta
                wrong += float(theta @ theta_star) < 0.0
            rates.append(wrong / trials)
        for prev, cur in zip(rates, rates[1:]):
            se = math.sqrt(
                prev * (1.0 - prev) / trials + cur * (1.0 - cur) / trials
            )
            assert cur <= prev + 2.0 * se
        elapsed = time.perf_counter() - start
        assert rates[-1] < 0.01
        assert elapsed < 60.0
        print(
            "criterion 5: pass, wrong-sign rates "
            f"{rates[0]:.3f} / {rates[1]:.3f} / {rates[2]:.3f}, {elapsed:.1f}s"
        )

    def test_06_snr_sweep_weighted_dominance(self):
        start = time.perf_counter()
        spec = PRESETS["fig1a"]
        sweep = run_sweep(spec.cfg, spec.axis, spec.grid, spec.replicates)
        sl = np.asarray(sweep.series("sl", "excess"))
        ulp = np.asarray(sweep.series("ulplus", "excess"))
        sslw = np.asarray(sweep.series("sslw", "excess"))
        assert np.all(sslw <= np.minimum(sl, ulp) + 0.005)
        gap_ulp = ulp - sslw
        gap_sl = sl - sslw
        assert gap_ulp[0] > gap_ulp[-1]
        assert gap_sl[-1] > gap_sl[0]
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        print(
            f"criterion 6: pass, worst margin {np.max(sslw - np.minimum(sl, ulp)):+.5f},"
            f" low/high gaps over single methods {gap_ulp[0]:.4f}/{gap_sl[-1]:.6f},"
            f" {elapsed:.1f}s"
        )

    def test_07_ratio_sweep_weighted_dominance(self):
        start = time.perf_counter()
        spec = PRESETS["fig1b"]
        sweep = run_sweep(spec.cfg, spec.axis, spec.grid, spec.replicates)
        sl = np.asarray(sweep.series("sl", "excess"))
        ulp = np.asarray(sweep.series("ulplus", "excess"))
        sslw = np.asarray(sweep.series("sslw", "excess"))
        assert np.all(sslw <= np.minimum(sl, ulp) + 0.005)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        print(
            f"criterion 7: pass, worst margin {np.max(sslw - np.minimum(sl, ulp)):+.5f}"
            f" across {len(sweep.grid)} ratio points, {elapsed:.1f}s"
        )

    def test_08_oracle_combination_identity(self):
        start = time.perf_counter()
        d = 64
        mse_a, mse_b, mse_c = mc_mse_triple(1.0, 1.0, 100_000, d, seed=8)
        assert oracle_weight(1.0, 1.0).t == 0.5
        assert abs(mse_c - 0.5) <= 0.05 * 0.5

        gaps = []
        for k, (a, b) in enumerate(((1.0, 1.0), (2.0, 6.0), (1.0, 100.0))):
            mse_a, mse_b, mse_c = mc_mse_triple(a, b, 1_250_000, d, seed=80 + k)
            measured = min(mse_a, mse_b) - mse_c
            gap, combined = oracle_gap(a, b)
            ratio = a / b
            target = min(ratio, 1.0 / ratio) * combined
            assert math.isclose(gap, target, rel_tol=1e-12)
            assert abs(measured - target) <= 0.05 * target
            gaps.append(measured)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        print(
            f"criterion 8: pass, measured gaps {gaps[0]:.4f} / {gaps[1]:.4f}"
            f" / {gaps[2]:.5f}, {elapsed:.1f}s"
        )

    def test_09_branch_table_exhaustive(self):
        start = time.perf_counter()
        rng = np.random.default_rng(9)
        counts = {"zero": 0, "sl": 0, "ulplus": 0}
        for _ in range(10_000):
            d = int(rng.integers(2, 7))
            n_l = int(rng.integers(1, 31))
            n_u = int(rng.integers(1, 61))
            s = float(rng.uniform(0.01, 2.5))
            model = MixtureModel(theta_star=s * unit_vector(rng, d))
            labeled = sample_labeled(model, n_l, seed=int(rng.integers(2**63)))
            pool = sample_unlabeled(model, n_u, seed=int(rng.integers(2**63)))
            out, branch = fit_ssl_s(labeled, pool, s)
            low = min(math.sqrt(d / n_l), (d / n_u) ** 0.25)
            if s <= low:
                expected = "zero"
            elif s <= math.sqrt(n_l / n_u):
                expected = "sl"
            else:
                expected = "ulplus"
            assert branch == expected
            if branch == "zero":
                candidate = np.zeros(d)
            elif branch == "sl":
                candidate = fit_sl(labeled).theta
            else:
                candidate = fix_sign(fit_ul(pool), fit_sl(labeled)).theta
            assert np.array_equal(out.theta, candidate)
            counts[branch] += 1
        elapsed = time.perf_counter() - start
        assert all(counts[name] > 0 for name in counts)
        print(
            f"criterion 9: pass, branch counts {counts['zero']}/{counts['sl']}"
            f"/{counts['ulplus']} over 10000 tuples, {elapsed:.1f}s"
        )

    def test_10_solver_oracle_equivalence(self):
        start = time.perf_counter()
        rng = np.random.default_rng(10)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            a = rng.standard_normal((d, d))
            m = a @ a.T
            lam = leading_eigenpair(m).value
            lam_oracle, _ = oracles.leading_pair(m)
            assert abs(lam - lam_oracle) <= 1e-8

        from ssl_lab.gmm import LabeledDataset

        for _ in range(20):
            d = int(rng.integers(2, 6))
            n = 40
            x = rng.standard_normal((n, d))
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            ridge = float(10.0 ** rng.uniform(-2.0, 0.0))
            fitted = fit_logistic(
                LabeledDataset(x=x, y=y), ridge, tol=1e-7, max_iter=100_000
            )
            theta_oracle = oracles.logistic_fixed_step(x, y, ridge, tol=1e-7)
            value = oracles.logistic_objective(fitted.theta, x, y, ridge)
            value_oracle = oracles.logistic_objective(theta_oracle, x, y, ridge)
            assert abs(value - value_oracle) <= 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        print(f"criterion 10: pass, both solvers match their oracles, {elapsed:.1f}s")

    def test_11_invariant_headliners(self, tmp_path):
        rng = np.random.default_rng(11)

        # Prediction error is invariant to positive rescaling of the estimate.
        for _ in range(30):
            d = int(rng.integers(2, 9))
            theta = rng.standard_normal(d)
            theta_star = rng.standard_normal(d)
            c = float(10.0 ** rng.uniform(-6.0, 6.0))
            assert math.isclose(
                prediction_error(c * theta, theta_star),
                prediction_error(theta, theta_star),
                rel_tol=1e-9,
                abs_tol=1e-12,
            )

        # Pointwise error gaps are antisymmetric in their two methods.
        theta_star = np.zeros(3)
        theta_star[0] = 1.2
        cfg = TrialConfig(
            model=MixtureModel(theta_star=theta_star),
            n_l=10,
            n_u=150,
            n_val=50,
            n_test=50,
            methods=("sl", "ulplus"),
            base_seed=11,
        )
        sweep = run_sweep(cfg, "nu", (100, 200), replicates=3)
        forward = np.asarray(error_gap(sweep, "sl", "ulplus"))
        backward = np.asarray(error_gap(sweep, "ulplus", "sl"))
        assert np.array_equal(forward, -backward)

        # The two rate-improvement factors always sum to one exactly.
        for _ in range(200):
            p = ProblemSize(
                s=float(10.0 ** rng.uniform(-2.0, 0.8)),
                d=int(rng.integers(2, 64)),
                n_l=int(rng.integers(1, 100_000)),
                n_u=int(rng.integers(0, 1_000_000)),
            )
            h_l, h_u = rate_improvement(p)
            assert h_l + h_u == 1.0

        # EM improves the average log-likelihood at every step.
        d = 6
        model = MixtureModel(theta_star=1.2 * unit_vector(rng, d))
        pool = sample_unlabeled(model, 400, seed=1101)
        init = 0.05 * unit_vector(rng, d)
        logliks = []
        for cap in range(1, 13):
            try:
                out = fit_em(pool, init, max_iter=cap)
            except ConvergenceError as err:
                logliks.append(oracles.sym_mixture_avg_loglik(err.last.theta, pool.x))
            else:
                logliks.append(oracles.sym_mixture_avg_loglik(out.theta, pool.x))
                break
        assert len(logliks) >= 3
        for prev, cur in zip(logliks, logliks[1:]):
            assert cur >= prev - 1e-10

        # The logistic gradient agrees with central finite differences, and
        # the solver lands on a stationary point of the oracle objective.
        from ssl_lab.gmm import LabeledDataset

        x = rng.standard_normal((25, 4))
        y = np.where(rng.random(25) < 0.5, 1.0, -1.0)
        ridge = 0.05
        theta0 = rng.standard_normal(4)

        def objective(theta):
            return oracles.logistic_objective(theta, x, y, ridge)

        analytic = oracles.logistic_gradient(theta0, x, y, ridge)
        numeric = oracles.central_diff_grad(objective, theta0)
        assert np.max(np.abs(analytic - numeric)) <= 1e-6
        fitted = fit_logistic(LabeledDataset(x=x, y=y), ridge, tol=1e-10)
        assert np.linalg.norm(oracles.central_diff_grad(objective, fitted.theta)) <= 1e-5

        # Worker count must not change simulated results in any bit.
        outputs = []
        for threads in ("1", "4"):
            out_dir = tmp_path / f"threads{threads}"
            code = cli.main(
                [
                    "simulate",
                    "--s", "1.2", "--d", "3", "--nl", "12", "--nu", "400",
                    "--nval", "50", "--ntest", "50",
                    "--methods", "sl,ulplus,sslw",
                    "--axis", "nu", "--grid", "200,400", "--replicates", "4",
                    "--seed", "7", "--threads", threads,
                    "--out", str(out_dir), "--quiet",
                ]
            )
            assert code == 0
            outputs.append((out_dir / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]
        print("criterion 11: pass, six headline invariants hold")
