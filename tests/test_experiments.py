import math
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import oracles
from ssl_lab.errors import ConvergenceError, ValidationError
from ssl_lab import estimators
from ssl_lab.estimators import fit_logistic, oracle_weight, self_train_path, sorted_distinct
from ssl_lab import experiments
from ssl_lab.cli import DEFAULT_FIT_METHODS, FIT_METHODS, METHOD_ALIASES
from ssl_lab.experiments import (
    METHODS,
    PRESETS,
    VALIDATION_METHODS,
    CellStats,
    FitContext,
    MethodMetrics,
    SweepResult,
    TrialConfig,
    TrialResult,
    compatibility_from_errors,
    compatibility_score,
    error_gap,
    fit_methods,
    linear_quantile,
    run_sweep,
    run_trial,
    scaling_fit,
    score_fit,
    sweep_cell_configs,
)
from ssl_lab.gmm import (
    EstimatorOutput,
    LabeledDataset,
    MixtureModel,
    UnlabeledDataset,
    estimation_error,
    excess_risk,
    sample_labeled,
    sample_unlabeled,
)
from ssl_lab.seeds import stream_seed, trial_seed
from ssl_lab.theory import trivial_excess

STAT_FIELDS = (
    "mean_excess", "std_excess",
    "mean_estimation", "std_estimation",
    "mean_test_error", "std_test_error",
)


def model(s, d):
    theta = np.zeros(d)
    theta[0] = s
    return MixtureModel(theta_star=theta)


def config(**kwargs):
    """Small, quick-to-run TrialConfig with overridable fields."""
    fields = dict(model=model(1.0, 3), n_l=8, n_u=40, n_val=30, n_test=25)
    fields.update(kwargs)
    return TrialConfig(**fields)


def synthetic_sweep(grid, series_by_method, axis="nu"):
    """Hand-built SweepResult whose mean metrics all equal the given series."""
    cells = []
    for i in range(len(grid)):
        row = tuple(
            CellStats(
                method=method,
                replicates=1,
                mean_excess=float(series[i]),
                std_excess=0.0,
                mean_estimation=float(series[i]),
                std_estimation=0.0,
                mean_test_error=float(series[i]),
                std_test_error=0.0,
            )
            for method, series in series_by_method.items()
        )
        cells.append(row)
    return SweepResult(axis_name=axis, grid=tuple(grid), replicates=1, cells=tuple(cells))


def assert_sweeps_identical(a, b):
    assert a.axis_name == b.axis_name
    assert a.grid == b.grid
    assert a.replicates == b.replicates
    assert len(a.cells) == len(b.cells)
    for row_a, row_b in zip(a.cells, b.cells):
        assert len(row_a) == len(row_b)
        for sa, sb in zip(row_a, row_b):
            assert sa.method == sb.method
            assert sa.replicates == sb.replicates
            for name in STAT_FIELDS:
                va, vb = getattr(sa, name), getattr(sb, name)
                if math.isnan(va):
                    assert math.isnan(vb)
                else:
                    assert va == vb
            assert sa.extra == sb.extra


class TestTrialConfig:
    def test_defaults(self):
        cfg = TrialConfig(model=model(1.0, 2), n_l=5, n_u=10)
        assert cfg.n_val == 1000 and cfg.n_test == 1000
        assert cfg.methods == ("sl",)
        assert cfg.ul_backend == "spectral"
        assert cfg.em_budget == 25

    def test_deduplicates_methods_preserving_order(self):
        cfg = config(methods=("sslw", "sl", "sslw", "zero", "sl"))
        assert cfg.methods == ("sslw", "sl", "zero")

    def test_coerces_counts_and_grids(self):
        cfg = config(n_l=8.0, n_u=40.0, t_grid=(0, 1), em_budget=30.0)
        assert cfg.n_l == 8 and isinstance(cfg.n_l, int)
        assert cfg.t_grid == (0.0, 1.0)
        assert cfg.em_budget == 30 and isinstance(cfg.em_budget, int)

    def test_numpy_integer_seed_is_stored_as_int(self):
        cfg = config(base_seed=np.int64(3))
        assert cfg.base_seed == 3 and type(cfg.base_seed) is int

    @pytest.mark.parametrize("bad", [
        dict(model="not a model"),
        dict(n_l=0),
        dict(n_u=-1),
        dict(n_val=-2),
        dict(n_l=2.5),
        dict(methods=()),
        dict(methods=("sl", "nope")),
        dict(self_train_thresholds=(-0.1,)),
        dict(self_train_thresholds=()),
        dict(ridge_grid=()),
        dict(ridge_grid=(-1.0,)),
        dict(ridge_grid=(math.inf,)),
        dict(base_seed=1.5),
        dict(ul_backend="EM"),
        dict(ul_backend="jacobi"),
        dict(em_budget=0),
        dict(em_budget=2.5),
        dict(self_train_thresholds=(math.nan,)),
        dict(self_train_thresholds=(0.5, math.nan)),
        dict(ridge_grid=(0.0,)),
        dict(ridge_grid=(0.1, 0.0)),
        dict(n_u=1e30),
        dict(n_test=2**63),
        dict(n_test=0),
        dict(n_l=math.inf),
        dict(n_u=math.nan),
        dict(n_val=True),
        dict(em_budget=math.inf),
        dict(base_seed=True),
    ])
    def test_rejects_invalid_fields(self, bad):
        with pytest.raises(ValidationError):
            config(**bad)

    def test_infinite_threshold_is_legal(self):
        cfg = config(self_train_thresholds=(math.inf, 0.5))
        assert cfg.self_train_thresholds == (math.inf, 0.5)

    @pytest.mark.parametrize("methods", [("sslw",), ("sl", "logistic"), ("selftrain",)])
    def test_validation_methods_need_validation_rows(self, methods):
        with pytest.raises(ValidationError, match="nonempty validation set"):
            config(n_val=0, methods=methods)

    def test_zero_validation_rows_allowed_without_selection(self):
        assert config(n_val=0, methods=("sl", "ulplus", "em")).n_val == 0


class TestRunTrial:
    def test_repeated_call_is_bitwise_identical(self):
        cfg = config(methods=("sl", "ulplus", "sslw", "lda"))
        first = run_trial(cfg, 7)
        second = run_trial(cfg, 7)
        assert first.seed == second.seed
        assert sorted(first.metrics) == sorted(second.metrics)
        for tag, mm in first.metrics.items():
            other = second.metrics[tag]
            assert (mm.excess, mm.estimation, mm.test_error) == (
                other.excess, other.estimation, other.test_error
            )
            assert mm.extra == other.extra

    def test_distinct_indices_use_distinct_seeds(self):
        cfg = config()
        seeds = {run_trial(cfg, i).seed for i in range(6)}
        assert len(seeds) == 6

    @pytest.mark.parametrize("bad", [-1, 0.5, math.inf, math.nan, True])
    def test_rejects_bad_trial_index(self, bad):
        with pytest.raises(ValidationError):
            run_trial(config(), bad)

    def test_every_method_tag_runs(self):
        cfg = config(
            model=model(1.5, 3), n_l=25, n_u=80, n_val=40, n_test=30,
            methods=tuple(METHODS),
        )
        result = run_trial(cfg, 3)
        assert not result.failures
        assert sorted(result.metrics) == sorted(METHODS)
        for mm in result.metrics.values():
            assert math.isfinite(mm.excess) and mm.excess >= 0.0
            assert math.isfinite(mm.estimation) and mm.estimation >= 0.0
            assert 0.0 <= mm.test_error <= 1.0

    def test_extras_expose_selections(self):
        cfg = config(
            model=model(1.5, 3), n_l=25, n_u=80, n_val=40, n_test=30,
            methods=("ulplus", "ssls", "sslw", "logistic", "selftrain"),
        )
        result = run_trial(cfg, 5)
        assert result.metrics["ulplus"].extra["wrong_sign"] in (0.0, 1.0)
        assert result.metrics["sslw"].extra["t"] in cfg.t_grid
        assert result.metrics["logistic"].extra["ridge"] in cfg.ridge_grid
        assert result.metrics["selftrain"].extra["ridge"] in cfg.ridge_grid
        assert result.metrics["selftrain"].extra["threshold"] >= 0.0
        branches = [result.metrics["ssls"].extra[f"branch_{b}"]
                    for b in ("zero", "sl", "ulplus")]
        assert sorted(branches) == [0.0, 0.0, 1.0]

    def test_zero_method_matches_theory(self):
        cfg = config(model=model(0.8, 4), methods=("zero",))
        result = run_trial(cfg, 2)
        mm = result.metrics["zero"]
        assert mm.excess == pytest.approx(trivial_excess(0.8), abs=1e-15)
        assert mm.estimation == pytest.approx(0.8, abs=1e-15)

    def test_estimator_failure_is_recorded_not_raised(self):
        cfg = config(n_u=0, methods=("sl", "ul"))
        result = run_trial(cfg, 0)
        assert sorted(result.metrics) == ["sl"]
        assert "ul" in result.failures
        assert "ValidationError" in result.failures["ul"]

    def test_em_backend_below_escape_reports_no_estimate(self):
        cfg = config(
            model=model(0.5, 2), n_l=12, n_u=200, n_val=50, n_test=20,
            methods=("sl", "ulplus", "sslw"), ul_backend="em", em_budget=3,
        )
        result = run_trial(cfg, 1)
        ulp = result.metrics["ulplus"]
        assert ulp.estimation == 0.5  # zero vector: distance to theta* is s
        assert ulp.excess == pytest.approx(trivial_excess(0.5), abs=1e-15)
        assert result.metrics["sslw"].excess == pytest.approx(
            result.metrics["sl"].excess, abs=1e-12
        )

    def test_one_spectral_fit_per_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            experiments, "fit_ul", lambda data: calls.append(data) or estimators.fit_ul(data)
        )
        # s = 2 with n_l = 8 <= n_u = 40 takes the switch rule's ulplus branch.
        cfg = config(model=model(2.0, 3), methods=("ul", "ulplus", "ssls", "sslw"))
        result = run_trial(cfg, 5)
        assert not result.failures
        assert result.metrics["ssls"].extra["branch_ulplus"] == 1.0
        assert len(calls) == 1
        reference = run_trial(replace(cfg, methods=("ssls",)), 5).metrics["ssls"]
        assert result.metrics["ssls"].estimation == reference.estimation
        assert reference.estimation == result.metrics["ulplus"].estimation

    def test_ssls_without_unlabeled_rows(self):
        result = run_trial(config(n_u=0, methods=("ssls",)), 2)
        assert not result.failures
        assert result.metrics["ssls"].extra["branch_ulplus"] == 0.0

    def test_em_backend_above_escape_is_sharp_and_sign_fixed(self):
        cfg = config(
            model=model(3.0, 2), n_l=12, n_u=400, n_val=50, n_test=20,
            methods=("sl", "ulplus"), ul_backend="em", em_budget=25,
        )
        result = run_trial(cfg, 4)
        ulp = result.metrics["ulplus"]
        assert ulp.estimation < 0.2
        assert ulp.excess < 1e-3
        assert ulp.extra["wrong_sign"] == 0.0


def fits_to_score(theta_star, rng):
    """Seeded random fits plus the zero, aligned, orthogonal and anti-aligned ones."""
    d = theta_star.size
    fits = [rng.standard_normal(d) * rng.uniform(0.01, 5.0) for _ in range(30)]
    fits += [np.zeros(d), 0.3 * theta_star, -0.7 * theta_star, -theta_star]
    if d > 1:
        orthogonal = np.zeros(d)
        orthogonal[1] = 2.0
        fits.append(orthogonal)
    return fits


class TestScoreFit:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n_test", [1, 25])
    def test_scores_are_the_free_functions_bit_for_bit(self, d, n_test):
        rng = np.random.default_rng(100 * d + n_test)
        truth_model = MixtureModel(theta_star=rng.standard_normal(d) * 1.3)
        test = sample_labeled(truth_model, n_test, seed=d)
        for theta in fits_to_score(truth_model.theta_star, rng):
            mm = score_fit(truth_model, test, theta, {"t": 0.5})
            assert mm.excess == excess_risk(theta, truth_model.theta_star)
            assert mm.estimation == estimation_error(theta, truth_model.theta_star)
            assert mm.test_error == experiments.test_error(theta, test)
            # The np.mean spelling that the mismatch count replaced.
            predictions = np.where(test.x @ theta >= 0.0, 1.0, -1.0)
            assert mm.test_error == float(np.mean(predictions != test.y))
            assert mm.extra == {"t": 0.5}

    @pytest.mark.parametrize("bad", [[math.nan, 0.0, 0.0], [math.inf, 1.0, 0.0], [1.0, 0.0]])
    def test_a_bad_fit_is_a_validation_failure(self, monkeypatch, bad):
        monkeypatch.setitem(
            METHODS, "zero", experiments.Method(lambda ctx: (np.array(bad), {}), real_data=False)
        )
        result = run_trial(config(methods=("zero", "sl")), 4)
        assert sorted(result.metrics) == ["sl"]
        assert result.failures["zero"].startswith("ValidationError: theta_hat")

    def test_an_snr_grid_value_past_the_rule_names_the_grid(self):
        with pytest.raises(ValidationError, match="^snr grid value must lie in \\[0, 1e\\+100\\]"):
            sweep_cell_configs(config(), "snr", (1.0, 1e200), 1)


class TestMethodRegistry:
    def test_harness_order(self):
        assert tuple(METHODS) == (
            "zero", "sl", "ul", "ulplus", "ssls", "sslw",
            "em", "em_means", "logistic", "selftrain", "lda",
        )

    def test_aliases_resolve_to_their_tags(self):
        expected = {
            "zero": "zero", "sl": "sl", "supervised": "sl", "ul": "ul",
            "ulplus": "ulplus", "ul+": "ulplus", "ulp": "ulplus",
            "ssls": "ssls", "sls": "ssls", "ssl-s": "ssls",
            "sslw": "sslw", "slw": "sslw", "ssl-w": "sslw",
            "em": "em", "em_means": "em_means", "em-means": "em_means",
            "logistic": "logistic", "selftrain": "selftrain", "self-train": "selftrain",
            "lda": "lda", "sphericallda": "lda", "spherical-lda": "lda",
        }
        for alias, tag in expected.items():
            assert METHOD_ALIASES[alias] == tag, alias

    def test_fit_method_lists(self):
        assert FIT_METHODS == (
            "sl", "ul", "ulplus", "sslw", "em", "em_means", "logistic", "selftrain", "lda"
        )
        assert DEFAULT_FIT_METHODS == ("sl", "ulplus", "sslw", "logistic", "selftrain", "lda")

    def test_validation_methods(self):
        assert set(VALIDATION_METHODS) == {"sslw", "logistic", "selftrain"}

    def test_entries_call_estimators_through_module_globals(self, monkeypatch):
        names = (
            "fit_sl", "fit_ul", "fit_ssl_s", "fit_ssl_w", "fit_em", "fit_em_means",
            "fit_logistic_grid", "self_train_path", "fit_spherical_lda",
        )
        called = set()
        for name in names:
            def counted(*args, _name=name, _fit=getattr(experiments, name), **kwargs):
                called.add(_name)
                return _fit(*args, **kwargs)
            monkeypatch.setattr(experiments, name, counted)
        result = run_trial(config(methods=tuple(METHODS)), 3)
        assert not result.failures
        assert called == set(names)

    def test_fit_methods_records_a_failure_and_scores_the_rest_in_order(self):
        # One class only: the spherical LDA direction is undefined.
        labeled = LabeledDataset(x=[[1.0, 0.5], [2.0, -0.5], [0.5, 1.0]], y=[1.0, 1.0, 1.0])
        pool = UnlabeledDataset(x=[[1.0, 0.0], [-1.0, 0.2], [0.3, -1.0], [-0.8, 0.4]])
        ctx = FitContext(labeled=labeled, unlabeled=pool, validation=pool)
        scores, failures = fit_methods(
            ctx, ("ulplus", "lda", "sl"), lambda theta, extra: (theta, extra)
        )
        assert list(scores) == ["ulplus", "sl"]
        assert np.array_equal(scores["sl"][0], ctx.sl.theta)
        assert np.array_equal(scores["ulplus"][0], ctx.ulplus.theta)
        assert failures == {"lda": "ValidationError: fit_spherical_lda needs both classes present"}


def preset_trials():
    """(id, cell config, trial index): two trials of every fig1a/fig1b cell."""
    trials = []
    for name in ("fig1a", "fig1b"):
        spec = PRESETS[name]
        cells = sweep_cell_configs(spec.cfg, spec.axis, spec.grid, replicates=1)
        for value, cfg in zip(spec.grid, cells):
            trials += [pytest.param(cfg, i, id=f"{name}-{value}-{i}") for i in range(2)]
    return trials


def trial_context(cfg, trial_index, **kwargs):
    """The FitContext run_trial builds for this trial."""
    seed = trial_seed(cfg.base_seed, trial_index)
    return FitContext(
        labeled=sample_labeled(cfg.model, cfg.n_l, stream_seed(seed, 0)),
        unlabeled=sample_unlabeled(cfg.model, cfg.n_u, stream_seed(seed, 1)),
        validation=sample_unlabeled(cfg.model, cfg.n_val, stream_seed(seed, 2)),
        model=cfg.model,
        ridge_grid=cfg.ridge_grid,
        **kwargs,
    )


def cold_logistic(ridge):
    return lambda x, y: fit_logistic(
        LabeledDataset(x=x, y=y), ridge,
    ).theta


class TestStage1ThresholdGrid:
    def test_equals_the_quantiles_of_the_unsorted_margins(self):
        # On the first axis the margins are |x_0|: integers with many ties,
        # so most quantiles interpolate between equal order statistics.
        rng = np.random.default_rng(7)
        x = np.column_stack([rng.integers(-3, 4, 501), rng.standard_normal(501)])
        unlab = UnlabeledDataset(x=x.astype(float))
        for theta in (np.array([2.0, 0.0]), np.array([0.6, -0.8])):
            margins = np.abs(unlab.x @ theta) / float(np.linalg.norm(theta))
            want = np.quantile(margins, [i / 8.0 for i in range(1, 8)])
            grid = experiments._stage1_threshold_grid(theta, unlab)
            assert np.array_equal(grid, want)
        assert len(np.unique(np.abs(unlab.x[:, 0]))) == 4


class TestNumpyWithoutNumpyMa:
    """linear_quantile and sorted_distinct give np.quantile's and np.unique's values."""

    QUANTILES = [i / 8.0 for i in range(9)] + [0.3, 0.7]

    @staticmethod
    def samples(n):
        """Sorted draws of n values at three scales, and n values with many ties."""
        rng = np.random.default_rng(n)
        return [np.sort(v) for v in (rng.random(n), 1e-6 * rng.exponential(size=n),
                                     1e6 * rng.random(n), rng.integers(0, 3, n) / 2.0)]

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 17, 500, 3001])
    def test_linear_quantile_matches_numpy_bit_for_bit(self, n):
        for ordered in self.samples(n):
            want = np.quantile(ordered, self.QUANTILES)
            got = [linear_quantile(ordered, q) for q in self.QUANTILES]
            assert np.array(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_sorted_distinct_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        cases = [list(rng.integers(0, 4, n) / 4.0), list(rng.random(n)),
                 [0.0, -0.0, math.inf, 1, 1.0, 0.5][:n + 1]]
        for values in cases:
            want = np.unique(values)
            got = sorted_distinct(values)
            assert got.dtype == np.float64 and np.array_equal(got, want)


class TestSelfTrainSearch:
    """The sorted-pool search against one mask-built union per threshold."""

    @pytest.mark.parametrize("cfg,trial_index", preset_trials())
    def test_matches_mask_built_oracle(self, cfg, trial_index):
        ctx = trial_context(cfg, trial_index)
        theta, extra = METHODS["selftrain"].fit(ctx)
        ridge, stage1 = ctx.ridge
        thresholds = experiments._stage1_threshold_grid(stage1.theta, ctx.unlabeled)
        best, unions, _ = oracles.self_train_by_masks(
            ctx.labeled.x, ctx.labeled.y, ctx.unlabeled.x, ctx.validation.x,
            thresholds, stage1.theta, cold_logistic(ridge),
        )
        assert extra == {"ridge": ridge, "threshold": thresholds[best]}
        fits = self_train_path(ctx.labeled, ctx.unlabeled, thresholds, ridge, stage1=stage1)
        assert np.array_equal(theta, fits[best].theta)
        for out, (x, y) in zip(fits, unions):
            grad = oracles.logistic_gradient(out.theta, x, y, ridge)
            assert float(np.linalg.norm(grad)) <= estimators.LOGISTIC_TOL

    def tied_context(self, thresholds):
        # Every unlabeled margin is exactly 1 (the stage-1 fit stays on the
        # first axis), so 3.0 and 2.0 keep no rows and 0.5 and 0.25 keep all.
        lab = LabeledDataset(
            x=np.array([[2.0, 0.0], [-2.0, 0.0], [1.0, 0.0], [-1.5, 0.0]]),
            y=np.array([1.0, -1.0, 1.0, -1.0]),
        )
        unlab = UnlabeledDataset(x=np.array([[1.0, 0.3], [-1.0, 0.7], [1.0, -2.0], [-1.0, 0.1]]))
        val = UnlabeledDataset(x=np.array([[0.5, 1.0], [-2.0, 0.4], [1.0, -0.2]]))
        return FitContext(labeled=lab, unlabeled=unlab, validation=val,
                          self_train_thresholds=thresholds)

    @pytest.mark.parametrize("thresholds", [(3.0, 2.0, 0.5, 0.25), (0.5, 0.25, 3.0, 2.0)])
    def test_equal_margins_keep_the_first_threshold_in_grid_order(self, thresholds):
        ctx = self.tied_context(thresholds)
        _, extra = METHODS["selftrain"].fit(ctx)
        ridge, stage1 = ctx.ridge
        best, _, _ = oracles.self_train_by_masks(
            ctx.labeled.x, ctx.labeled.y, ctx.unlabeled.x, ctx.validation.x,
            thresholds, stage1.theta, cold_logistic(ridge),
        )
        assert extra["threshold"] == thresholds[best]
        assert extra["threshold"] in (3.0, 0.5)

    @pytest.mark.parametrize("thresholds", [(2.5, 3.0, 2.5, 4.0), (4.0, 2.5, 3.0)])
    def test_duplicate_refits_keep_the_first_threshold(self, monkeypatch, thresholds):
        # Every threshold above 1 keeps no unlabeled row, so all of these
        # share one refit: it scores identically, and the first one wins.
        scored = []
        score = experiments.avg_margins
        monkeypatch.setattr(
            experiments, "avg_margins", lambda *a: scored.append(score(*a)) or scored[-1]
        )
        _, extra = METHODS["selftrain"].fit(self.tied_context(thresholds))
        assert extra["threshold"] == thresholds[0]
        margins = scored[-1]
        assert len(margins) == len(thresholds) and len(set(margins.tolist())) == 1

    def test_a_failed_refit_is_skipped_and_the_chain_resumes(self, monkeypatch):
        cfg = sweep_cell_configs(PRESETS["fig1a"].cfg, "snr", (1.5,), replicates=1)[0]
        ctx = trial_context(cfg, 0, self_train_thresholds=(0.0, 0.5, 1.0, 1.5))
        ridge, _ = ctx.ridge
        starts, ends = [], []
        newton = estimators._newton

        def flaky(x, *args):
            starts.append(args[-1])
            if len(starts) == 2:
                raise ConvergenceError("injected", last=EstimatorOutput(args[-1]))
            ends.append(newton(x, *args))
            return ends[-1]

        returned = []
        path = experiments.self_train_path
        monkeypatch.setattr(estimators, "_newton", flaky)
        monkeypatch.setattr(
            experiments, "self_train_path",
            lambda *a, **k: returned.append(path(*a, **k)) or returned[-1],
        )
        theta, extra = METHODS["selftrain"].fit(ctx)
        # Refits run in ascending union size: thresholds 1.5, 1.0 (fails), 0.5, 0.0.
        assert len(starts) == 4 and not np.any(starts[0])
        assert np.array_equal(starts[2], ends[0])  # past the failure, from the last good fit
        assert np.array_equal(starts[3], ends[1])
        (fits,) = returned
        assert isinstance(fits[2], ConvergenceError)
        assert [fits[i].theta.tolist() for i in (3, 1, 0)] == [end.tolist() for end in ends]
        assert extra["threshold"] != 1.0  # the failed candidate
        _, _, thetas = oracles.self_train_by_masks(
            ctx.labeled.x, ctx.labeled.y, ctx.unlabeled.x, ctx.validation.x,
            (0.0, 0.5, 1.5), ctx.ridge[1].theta, cold_logistic(ridge),
        )
        margins = [np.mean(np.abs(ctx.validation.x @ t)) / np.linalg.norm(t) for t in thetas]
        assert extra["threshold"] == (0.0, 0.5, 1.5)[int(np.argmax(margins))]


class TestSelectByMargin:
    VALIDATION = UnlabeledDataset(x=np.array([[1.0, 0.5], [-2.0, 0.3], [0.4, -1.1]]))

    def select(self, thetas):
        fits = [EstimatorOutput(theta=np.asarray(t, dtype=float)) for t in thetas]
        return experiments._select_by_margin(range(len(fits)), fits, self.VALIDATION)

    def test_rounding_ties_go_to_the_first_in_grid_order(self):
        # Positive multiples have the same margin up to rounding.
        theta = np.array([0.8, -0.3])
        for scales in ((1.0, 3.0, 7.1), (7.1, 1.0, 3.0), (1e-3, 1e3, 0.37)):
            index, _ = self.select([[0.0, 1.0]] + [c * theta for c in scales])
            assert index == 1

    def test_failed_and_zero_fits_are_skipped(self):
        fits = [
            ConvergenceError("injected", last=None),
            EstimatorOutput(theta=np.zeros(2)),
            EstimatorOutput(theta=[0.0, 1.0]),
        ]
        assert experiments._select_by_margin(range(3), fits, self.VALIDATION)[0] == 2
        with pytest.raises(ValidationError, match="zero vector"):
            experiments._select_by_margin(range(2), fits, self.VALIDATION)
        with pytest.raises(ConvergenceError):
            experiments._select_by_margin(range(1), fits, self.VALIDATION)


@pytest.mark.parametrize("name,handed", [
    ("fig1a", [(20, 0)] * 6),
    ("fig1b", [(7000, 7), (1750, 0), (700, 0), (175, 0), (70, 0), (35, 0), (10, 0)]),
])
def test_preset_ridge_grids_hand_off_only_past_the_block(monkeypatch, name, handed):
    """(n_l, _newton calls) of each ridge grid in one replicate: the stacked solve
    keeps every ridge while 7 n_l is at most HESSIAN_BLOCK, and none past it."""
    calls, seen = [], []
    newton, grid = estimators._newton, experiments.fit_logistic_grid

    def counted(data, ridges):
        calls.clear()
        fits = grid(data, ridges)
        seen.append((data.n, len(calls)))
        return fits

    monkeypatch.setattr(estimators, "_newton", lambda *a: calls.append(1) or newton(*a))
    monkeypatch.setattr(experiments, "fit_logistic_grid", counted)
    spec = PRESETS[name]
    run_sweep(spec.cfg, spec.axis, spec.grid, replicates=1)
    assert seen == handed


class TestRunSweep:
    @pytest.mark.parametrize("kwargs", [
        dict(axis="bogus", grid=(1,), replicates=1),
        dict(axis="nl", grid=(), replicates=1),
        dict(axis="nl", grid=(5,), replicates=0),
        dict(axis="nl", grid=(5,), replicates=1, threads=0),
        dict(axis="snr", grid=(-1.0,), replicates=1),
        dict(axis="nu_over_nl", grid=(0.0,), replicates=1),
        dict(axis="nl", grid=(1.7,), replicates=1),
        dict(axis="nu", grid=(40.5,), replicates=1),
        dict(axis="nu_over_nl", grid=(4.0, 3.0), replicates=1),
        dict(axis="nu_over_nl", grid=(80.0,), replicates=1),
        dict(axis="nl", grid=(5,), replicates=math.inf),
        dict(axis="nl", grid=(5,), replicates=math.nan),
        dict(axis="nl", grid=(5,), replicates=True),
        # seeds.trial_seed tells 2**64 trial indices apart; a sweep runs no more trials.
        dict(axis="nl", grid=(5,), replicates=2**64 + 1),
        dict(axis="nl", grid=(5, 6), replicates=2**63 + 1),
        dict(axis="nl", grid=(5,), replicates=10**400),
        dict(axis="nl", grid=(5,), replicates=1, threads=math.inf),
        dict(axis="nl", grid=(5,), replicates=1, threads=True),
        dict(axis="nu_over_nl", grid=(math.nan,), replicates=1),
        dict(axis="nu_over_nl", grid=(1e-320,), replicates=1),
        dict(axis="snr", grid=(1.0, 1), replicates=1),
        dict(axis="snr", grid=(0.0, -0.0), replicates=1),
        dict(axis="nu_over_nl", grid=(10.0, 4.0, 10), replicates=1),
    ])
    def test_rejects_invalid_arguments(self, kwargs):
        with pytest.raises(ValidationError):
            run_sweep(config(), **kwargs)

    def test_snr_axis_places_theta_star_at_grid_value(self):
        cfg = config(methods=("zero",), n_val=2, n_test=2)
        sweep = run_sweep(cfg, "snr", (0.5, 1.0, 2.0), replicates=1)
        for i, s in enumerate(sweep.grid):
            cell = sweep.cell(i, "zero")
            assert cell.mean_excess == pytest.approx(trivial_excess(s), abs=1e-15)
            assert cell.mean_estimation == pytest.approx(s, abs=1e-15)
            assert cell.std_excess == 0.0

    def test_ratio_axis_matches_explicit_labeled_sizes(self):
        cfg = config(n_u=100, methods=("sl", "zero"))
        by_ratio = run_sweep(cfg, "nu_over_nl", (100.0, 10.0, 4.0), replicates=2)
        by_nl = run_sweep(cfg, "nl", (1, 10, 25), replicates=2)
        assert_sweeps_identical(
            replace(by_ratio, axis_name="nl", grid=by_nl.grid), by_nl
        )

    def test_aggregation_matches_direct_trials(self):
        cfg = config(methods=("sl", "zero"))
        replicates = 4
        sweep = run_sweep(cfg, "nu", (20, 60), replicates=replicates)
        for i, n_u in enumerate(sweep.grid):
            cell_cfg = replace(cfg, n_u=int(n_u))
            trials = [run_trial(cell_cfg, i * replicates + j) for j in range(replicates)]
            for method in ("sl", "zero"):
                values = np.array([t.metrics[method].excess for t in trials])
                cell = sweep.cell(i, method)
                assert cell.mean_excess == pytest.approx(values.mean(), rel=1e-12)
                assert cell.std_excess == pytest.approx(values.std(ddof=0), rel=1e-12, abs=1e-15)

    def test_worker_counts_give_bitwise_identical_results(self):
        cfg = config(
            model=model(1.0, 3), n_l=10, n_u=50, n_val=20, n_test=20,
            methods=("sl", "ulplus", "sslw"),
        )
        grid = (30, 50, 80)
        serial = run_sweep(cfg, "nu", grid, replicates=6, threads=1)
        parallel = run_sweep(cfg, "nu", grid, replicates=6, threads=4)
        assert_sweeps_identical(serial, parallel)

    @pytest.mark.parametrize("grid, replicates, threads, workers", [
        ((5,), 1, 100_000, None), ((5, 6, 7), 1, 8, 3), ((5, 6), 3, 4, 4), ((5,), 2, 1, None),
    ])
    def test_the_pool_never_gets_more_workers_than_trials(self, monkeypatch, grid, replicates,
                                                          threads, workers):
        """A pool starts every worker up front, so it gets at most one per trial; a run that
        needs one worker takes the serial path."""
        import concurrent.futures

        asked = []

        class RecordingPool:
            """Records max_workers and runs the jobs in this process; it starts nothing."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = config(methods=("sl",))
        sweep = run_sweep(cfg, "nl", grid, replicates, threads)
        assert asked == ([] if workers is None else [workers])
        assert_sweeps_identical(sweep, run_sweep(cfg, "nl", grid, replicates, threads=1))

    def test_a_serial_sweep_holds_at_most_two_trial_results(self, monkeypatch):
        """Each trial folds into its cell as it finishes: while a trial runs, only the one
        before it is still alive, however many replicates the cell has."""
        alive = weakref.WeakSet()
        most = []

        def counted(cfg, trial_index):
            result = run_trial(cfg, trial_index)
            alive.add(result)
            most.append(len(alive))
            return result

        monkeypatch.setattr(experiments, "run_trial", counted)
        cfg = config(methods=("sl", "ul"), n_u=0)
        sweep = run_sweep(cfg, "nl", (5,), replicates=50)
        assert len(most) == 50 and max(most) <= 2
        assert sweep.cell(0, "ul").extra["failures"] == 50.0
        assert sum(sweep.failure_reasons.values()) == 50

    def test_repeated_run_is_bitwise_identical(self):
        cfg = config(methods=("sl", "ulplus"))
        first = run_sweep(cfg, "snr", (0.5, 1.5), replicates=3)
        second = run_sweep(cfg, "snr", (0.5, 1.5), replicates=3)
        assert_sweeps_identical(first, second)

    def test_failed_cells_report_nan_stats_and_failure_count(self):
        cfg = config(methods=("sl", "ul"))
        sweep = run_sweep(cfg, "nu", (0, 40), replicates=3)
        broken = sweep.cell(0, "ul")
        assert math.isnan(broken.mean_excess)
        assert broken.extra["failures"] == 3.0
        healthy = sweep.cell(1, "ul")
        assert math.isfinite(healthy.mean_excess)
        assert "failures" not in healthy.extra

    def test_series_and_cell_lookup_errors(self):
        cfg = config(methods=("sl",))
        sweep = run_sweep(cfg, "nl", (5, 10), replicates=1)
        assert len(sweep.series("sl")) == 2
        with pytest.raises(ValidationError):
            sweep.cell(0, "sslw")
        with pytest.raises(ValidationError):
            sweep.series("sl", metric="bogus")


class TestSlErrorBound:
    def test_mean_estimation_error_matches_gaussian_theory(self):
        d, n_l = 20, 100
        cfg = TrialConfig(
            model=model(1.0, d), n_l=n_l, n_u=0, n_val=2, n_test=2,
            methods=("sl",),
        )
        sweep = run_sweep(cfg, "nl", (n_l,), replicates=200)
        mean_error = sweep.cell(0, "sl").mean_estimation
        expected = math.sqrt(2.0) * math.gamma((d + 1) / 2) / math.gamma(d / 2) / math.sqrt(n_l)
        assert mean_error == pytest.approx(expected, rel=0.05)
        assert mean_error < math.sqrt(d / n_l)


class TestCombinationIdentities:
    def combined_errors(self, rng, d, mse_one, mse_two, trials):
        noise_one = rng.standard_normal((trials, d)) * math.sqrt(mse_one / d)
        noise_two = rng.standard_normal((trials, d)) * math.sqrt(mse_two / d)
        t = oracle_weight(mse_one, mse_two).t
        combined = t * noise_one + (1.0 - t) * noise_two
        return (
            np.mean(np.sum(noise_one**2, axis=1)),
            np.mean(np.sum(noise_two**2, axis=1)),
            np.mean(np.sum(combined**2, axis=1)),
        )

    def test_equal_mse_combination_halves_the_error(self):
        rng = np.random.default_rng(20240817)
        d, n_l, trials = 8, 8, 100_000
        noise_sl = rng.standard_normal((trials, d)) / math.sqrt(n_l)
        synthetic = rng.standard_normal((trials, d)) / math.sqrt(d)
        t = oracle_weight(d / n_l, 1.0).t
        assert t == pytest.approx(0.5, abs=1e-12)
        combined = t * noise_sl + (1.0 - t) * synthetic
        mse = np.mean(np.sum(combined**2, axis=1))
        assert mse == pytest.approx(0.5, rel=0.05)

    @pytest.mark.parametrize("mse_pair", [(1.0, 1.0), (2.0, 6.0), (1.0, 4.0)])
    def test_harmonic_mean_and_gap_identities(self, mse_pair):
        mse_one, mse_two = mse_pair
        rng = np.random.default_rng(611)
        mse_a, mse_b, mse_combined = self.combined_errors(
            rng, d=16, mse_one=mse_one, mse_two=mse_two, trials=100_000
        )
        harmonic = mse_one * mse_two / (mse_one + mse_two)
        assert mse_combined == pytest.approx(harmonic, rel=0.05)
        ratio = mse_one / mse_two
        gap = min(mse_a, mse_b) - mse_combined
        assert gap == pytest.approx(min(ratio, 1.0 / ratio) * mse_combined, rel=0.05)


class TestMonotoneSignFixing:
    def test_wrong_sign_rate_nonincreasing_in_labels(self):
        cfg = TrialConfig(
            model=model(1.0, 5), n_l=5, n_u=5000, n_val=2, n_test=2,
            methods=("ulplus",),
        )
        sweep = run_sweep(cfg, "nl", (5, 20, 100), replicates=500, threads=4)
        rates = [sweep.cell(i, "ulplus").extra["wrong_sign"] for i in range(3)]
        for low, high in zip(rates[1:], rates[:-1]):
            spread = math.sqrt((low * (1 - low) + high * (1 - high)) / 500)
            assert low <= high + 2 * spread + 1e-12


class TestCellStats:
    @pytest.mark.parametrize("replicates, numbers, extra, pattern", [
        (0, (0.1, 0.0, 0.2, 0.0, 0.3, 0.0), {}, "replicates"),
        (1, (0.1, -1.0, 0.2, 0.0, 0.3, 0.0), {}, "std_excess"),
        (1, (0.1, 0.0, -0.2, 0.0, 0.3, 0.0), {}, "mean_estimation"),
        (1, (0.1, 0.0, 0.2, 0.0, 1.7, 0.0), {}, "mean_test_error"),
        (1, (0.1, 0.0, 0.2, 0.0, 0.3, 1.5), {}, "std_test_error"),
        (1, (math.nan, 0.0, 0.2, 0.0, 0.3, 0.0), {}, "NaN"),
        (1, (0.1, 0.0, 0.2, 0.0, 0.3, 0.0), {"t": math.nan}, "extra t"),
        (1, (0.1, 0.0, math.inf, 0.0, 0.3, 0.0), {}, "mean_estimation"),
    ])
    def test_values_no_sweep_can_write_are_rejected(self, replicates, numbers, extra, pattern):
        with pytest.raises(ValidationError, match=pattern):
            CellStats("sl", replicates, *numbers, extra)

    @pytest.mark.parametrize("thresholds, mean", [
        ((0.5, 1.5), 1.0), ((math.inf, math.inf), math.inf),
        ((0.5, math.inf, 0.5), math.inf), ((math.inf, 0.5), math.inf),
    ])
    def test_a_cell_extra_is_inf_when_any_trial_is(self, thresholds, mean):
        results = [
            TrialResult(i, i, {"selftrain": MethodMetrics(0.1, 0.2, 0.3, {"threshold": t})}, {})
            for i, t in enumerate(thresholds)
        ]
        reasons = Counter()
        (stats,) = experiments._aggregate_cell(
            iter(results), ("selftrain",), len(thresholds), reasons
        )
        assert reasons == Counter()
        assert stats.extra["threshold"] == mean
        assert stats.mean_excess == pytest.approx(0.1) and stats.std_excess == pytest.approx(0.0)


class TestErrorGap:
    def test_gap_of_method_with_itself_is_zero(self):
        sweep = synthetic_sweep((1, 2, 3), {"sl": (0.3, 0.2, 0.1)})
        assert error_gap(sweep, "sl", "sl") == (0.0, 0.0, 0.0)

    def test_positive_gap_means_second_method_wins(self):
        sweep = synthetic_sweep((1, 2), {"sl": (0.3, 0.1), "sslw": (0.1, 0.2)})
        assert error_gap(sweep, "sl", "sslw") == pytest.approx((0.2, -0.1))

    def test_missing_method_rejected(self):
        sweep = synthetic_sweep((1, 2), {"sl": (0.3, 0.1)})
        with pytest.raises(ValidationError):
            error_gap(sweep, "sl", "sslw")

    def test_metric_keyword_switches_series(self):
        cells = (
            (
                CellStats(
                    method="sl", replicates=1,
                    mean_excess=0.5, std_excess=0.0,
                    mean_estimation=2.0, std_estimation=0.0,
                    mean_test_error=0.1, std_test_error=0.0,
                ),
                CellStats(
                    method="zero", replicates=1,
                    mean_excess=0.25, std_excess=0.0,
                    mean_estimation=1.0, std_estimation=0.0,
                    mean_test_error=0.5, std_test_error=0.0,
                ),
            ),
        )
        sweep = SweepResult(axis_name="nl", grid=(10,), replicates=1, cells=cells)
        assert error_gap(sweep, "sl", "zero", metric="estimation") == (1.0,)
        assert error_gap(sweep, "sl", "zero", metric="test_error") == pytest.approx((-0.4,))


class TestCompatibility:
    def test_worked_example(self):
        rho, inverse = compatibility_from_errors(0.1, 0.2, 4)
        assert rho == pytest.approx(0.275, abs=1e-12)
        assert inverse == pytest.approx(1.0 / 0.275, abs=1e-9)

    def test_equal_errors_reduce_to_bayes_term(self):
        rho, _ = compatibility_from_errors(0.2, 0.2, 4)
        assert rho == pytest.approx(0.2 / (2 * math.sqrt(4)), abs=1e-12)

    def test_near_separable_fallback(self):
        rho, inverse = compatibility_from_errors(0.005, 0.9, 7)
        assert rho == 0.005
        assert inverse == pytest.approx(200.0, abs=1e-9)

    def test_zero_error_gives_infinite_inverse(self):
        rho, inverse = compatibility_from_errors(0.0, 0.3, 2)
        assert rho == 0.0
        assert math.isinf(inverse)

    @pytest.mark.parametrize("args", [
        (-0.1, 0.2, 4), (0.1, 1.2, 4), (0.1, 0.2, 0),
        (0.2, 0.3, math.inf), (0.2, 0.3, math.nan), (0.2, 0.3, 1.5), (0.2, 0.3, True),
    ])
    def test_rejects_bad_inputs(self, args):
        with pytest.raises(ValidationError):
            compatibility_from_errors(*args)

    def test_score_on_separable_dataset_uses_fallback(self):
        data = sample_labeled(model(4.0, 3), 300, 97)
        rho, inverse = compatibility_score(data)
        assert rho <= 0.01
        assert inverse == (math.inf if rho == 0.0 else pytest.approx(1.0 / rho))

    def test_score_on_overlapping_dataset_is_positive_and_finite(self):
        data = sample_labeled(model(0.4, 3), 400, 53)
        rho, inverse = compatibility_score(data)
        assert 0.0 < rho < 1.0
        assert inverse == pytest.approx(1.0 / rho)


class TestScalingFit:
    def test_exact_inverse_law_has_slope_minus_one(self):
        grid = (10, 100, 1000, 10_000)
        sweep = synthetic_sweep(grid, {"sl": tuple(5.0 / n for n in grid)})
        assert scaling_fit(sweep, "sl") == pytest.approx(-1.0, abs=1e-9)

    def test_exact_inverse_root_law_has_slope_minus_half(self):
        grid = (16, 64, 256)
        sweep = synthetic_sweep(grid, {"sl": tuple(3.0 / math.sqrt(n) for n in grid)})
        assert scaling_fit(sweep, "sl") == pytest.approx(-0.5, abs=1e-9)

    def test_growing_law_has_positive_slope(self):
        grid = (2, 4, 8)
        sweep = synthetic_sweep(grid, {"sl": tuple(0.01 * n**0.7 for n in grid)})
        assert scaling_fit(sweep, "sl") == pytest.approx(0.7, abs=1e-9)

    def test_needs_three_cells(self):
        sweep = synthetic_sweep((10, 100), {"sl": (0.2, 0.1)})
        with pytest.raises(ValidationError):
            scaling_fit(sweep, "sl")

    def test_rejects_nonpositive_values(self):
        flat = synthetic_sweep((10, 100, 1000), {"sl": (0.1, 0.0, 0.01)})
        with pytest.raises(ValidationError):
            scaling_fit(flat, "sl")
        bad_axis = synthetic_sweep((0, 10, 100), {"sl": (0.3, 0.2, 0.1)})
        with pytest.raises(ValidationError):
            scaling_fit(bad_axis, "sl")


class TestPresets:
    def test_expected_presets_exist(self):
        assert {"fig1a", "fig1b", "fig3"} <= set(PRESETS)

    def test_fig1a_layout(self):
        spec = PRESETS["fig1a"]
        assert spec.axis == "snr"
        assert len(spec.grid) >= 6
        assert min(spec.grid) == 0.5 and max(spec.grid) == 3.0
        assert spec.replicates == 20
        assert spec.cfg.model.d == 2
        assert spec.cfg.n_l == 20 and spec.cfg.n_u == 2000
        assert spec.cfg.ul_backend == "em"
        assert {"sl", "ulplus", "sslw"} <= set(spec.cfg.methods)

    def test_fig1b_layout(self):
        spec = PRESETS["fig1b"]
        assert spec.axis == "nu_over_nl"
        assert spec.cfg.model.s == pytest.approx(0.5)
        assert spec.cfg.n_u == 7000
        assert spec.cfg.ul_backend == "em"

    def test_fig3_layout(self):
        spec = PRESETS["fig3"]
        assert spec.axis == "nl"
        assert spec.cfg.ul_backend == "spectral"
        assert "ssls" in spec.cfg.methods
