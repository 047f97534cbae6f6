import contextlib
import io
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import normal_cdf
from ssl_lab.cli import _SIMULATE_KEYS, _build_parser
from ssl_lab.data_io import TabularDataset, pca_project, split
from ssl_lab.errors import ValidationError
from ssl_lab.estimators import (
    WeightSelection,
    fit_em,
    fit_logistic,
    fit_logistic_grid,
    fit_ssl_s,
    fit_ssl_w,
    self_train_path,
)
from ssl_lab.experiments import (
    FitProtocol,
    TrialConfig,
    compatibility_from_errors,
    first_axis_model,
    run_trial,
    sweep_cell_configs,
)
from ssl_lab.gmm import (
    MAX_SNR,
    LabeledDataset,
    MixtureModel,
    UnlabeledDataset,
    check_real,
    check_whole,
    estimation_error,
    excess_risk,
    freeze,
    prediction_error,
    readonly,
    sample_labeled,
    sample_unlabeled,
    std_normal_cdf,
)
from ssl_lab.seeds import MASK64
from ssl_lab.theory import ProblemSize, trivial_excess


class TestStdNormalCdf:
    @pytest.mark.parametrize("x", [-8.0, -3.0, -1.0, -0.5, 0.0, 0.3, 1.0, 2.0, 6.0, 8.0])
    def test_matches_integration_oracle(self, x):
        assert std_normal_cdf(x) == pytest.approx(normal_cdf(x), abs=1e-10)

    def test_known_values(self):
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_cdf(1.0) == pytest.approx(0.841345, abs=1e-6)
        assert std_normal_cdf(-1.0) == pytest.approx(0.158655, abs=1e-6)

    def test_far_left_tail_is_tiny(self):
        assert 0.0 < std_normal_cdf(-8.0) < 1e-14

    def test_reflection(self):
        rng = np.random.default_rng(11)
        for x in rng.uniform(-6.0, 6.0, size=50):
            assert std_normal_cdf(-x) == pytest.approx(1.0 - std_normal_cdf(x), abs=1e-12)

    def test_monotone(self):
        rng = np.random.default_rng(12)
        xs = np.sort(rng.uniform(-10.0, 10.0, size=200))
        values = [std_normal_cdf(x) for x in xs]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError):
            std_normal_cdf(bad)


def frozen_view():
    """A read-only view whose writeable base its maker could still change."""
    view = np.arange(6.0)[1:]
    view.setflags(write=False)
    return view


class TestReadonly:
    def test_a_frozen_array_that_owns_its_data_is_taken_as_is(self):
        a = freeze(np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]))
        assert readonly(a) is a
        data = LabeledDataset(x=a, y=freeze(np.array([1.0, -1.0])))
        assert data.x is a

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.arange(6.0).reshape(2, 3),
            frozen_view,
            lambda: freeze(np.arange(6)),
            lambda: freeze(np.asfortranarray(np.arange(6.0).reshape(2, 3))),
            lambda: [[0.0, 1.0], [2.0, 3.0]],
        ],
        ids=["writeable", "frozen-view", "int-dtype", "fortran-order", "list"],
    )
    def test_anything_else_is_copied(self, make):
        a = make()
        out = readonly(a)
        assert out is not a and not np.shares_memory(out, a)
        assert out.dtype == np.float64 and out.flags.owndata and not out.flags.writeable
        assert np.array_equal(out, a)

    def test_freeze_works_in_place(self):
        a = np.zeros(3)
        assert freeze(a) is a and not a.flags.writeable


class TestMixtureModel:
    def test_snr_is_norm(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            theta = rng.standard_normal(rng.integers(1, 8))
            model = MixtureModel(theta_star=theta)
            assert model.s == pytest.approx(float(np.linalg.norm(theta)), rel=1e-12)
            assert model.d == theta.size

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValidationError):
            MixtureModel(theta_star=np.array([]))
        with pytest.raises(ValidationError):
            MixtureModel(theta_star=np.array([1.0, math.nan]))

    def test_bayes_error_is_phi_of_minus_s(self):
        rng = np.random.default_rng(22)
        for theta in [np.zeros(2), np.array([40.0]), *(rng.standard_normal(3) for _ in range(10))]:
            model = MixtureModel(theta_star=theta)
            assert model.bayes_error == std_normal_cdf(-model.s)

    @pytest.mark.parametrize("theta", [[1e160, 0.0], [MAX_SNR, MAX_SNR], [2.0 * MAX_SNR]])
    def test_rejects_an_snr_past_the_rule_without_a_warning(self, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValidationError, match="^the norm of theta_star must be at most 1e\\+100$"
            ):
                MixtureModel(theta_star=np.array(theta))

    def test_takes_the_largest_snr(self):
        assert MixtureModel(theta_star=np.array([0.0, MAX_SNR])).s == MAX_SNR

    @pytest.mark.parametrize("metric", [prediction_error, excess_risk, estimation_error])
    @pytest.mark.parametrize("theta", [[1e200, 0.0], [MAX_SNR, MAX_SNR]])
    def test_free_metrics_take_the_same_rule(self, metric, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValidationError, match="^the norm of theta_star must be at most 1e\\+100$"
            ):
                metric([1.0, 0.0], theta)


DATA_CSV = str(Path(__file__).resolve().parent.parent / "data" / "synthetic_2gmm_200.csv")
SEPARATED = MixtureModel(theta_star=np.array([2.0, 0.5]))


def trial_config(**kwargs):
    fields = dict(model=first_axis_model(1.0, 2), n_l=8, n_u=40, n_val=10, n_test=10)
    return TrialConfig(**{**fields, **kwargs})


def fit_flag(dest):
    """fit with one parsed flag replaced by `value`; a failed check raises its error, and
    otherwise the result is fit_results.json."""

    def call(value):
        with tempfile.TemporaryDirectory() as out:
            args = _build_parser().parse_args(["fit", DATA_CSV, "--nl", "20", "--quiet",
                                               "--out", out])
            setattr(args, dest, value)
            run = args.handler(args)
            with contextlib.redirect_stdout(io.StringIO()):
                run()
            return Path(out, "fit_results.json").read_text()

    return call


TABLE = TabularDataset(x=sample_labeled(SEPARATED, 20, 3).x, y=np.ones(20), columns=("a", "b"))


def split_of(**given):
    """The bytes of each part of TABLE's split: one row each, seed 0, but for `given`."""
    parts = split(TABLE, **{**dict(n_l=1, n_val=1, n_test=1, seed=0), **given})
    return [part.x.tobytes() for part in parts]


def field_of(make, name, **fixed):
    return lambda value: getattr(make(**{**fixed, name: value}), name)


#: Every count the library takes, as (name in its messages, least, a valid k, call):
#: call(value) gives what the entry point makes of value, or raises ValidationError.
WHOLE_ENTRY_POINTS = {
    "_draw n": ("n", 0, 5, lambda v: sample_labeled(SEPARATED, v, 1).x.tobytes()),
    "_draw seed": ("seed", None, 7, lambda v: sample_labeled(SEPARATED, 5, v).x.tobytes()),
    "first_axis_model d": ("d", 1, 3, lambda v: first_axis_model(1.0, v).theta_star.tobytes()),
    **{f"TrialConfig {name}": (name, least, k, field_of(trial_config, name))
       for name, least, k in [("n_l", 1, 8), ("n_u", 0, 40), ("n_val", 0, 10),
                              ("n_test", 1, 10), ("base_seed", None, 3)]},
    "FitProtocol em_budget": ("em_budget", 1, 30, field_of(FitProtocol, "em_budget")),
    "run_trial trial_index": ("trial_index", 0, 2, lambda v: run_trial(trial_config(), v).seed),
    "sweep replicates": ("replicates", 1, 2,
                         lambda v: len(sweep_cell_configs(trial_config(), "nl", (5,), v))),
    "sweep threads": ("threads", 1, 2,
                      lambda v: len(sweep_cell_configs(trial_config(), "nl", (5,), 1, v))),
    "_cell_config nl": ("nl grid value", None, 5,
                        lambda v: sweep_cell_configs(trial_config(), "nl", (v,), 1)[0].n_l),
    "_cell_config nu": ("nu grid value", None, 50,
                        lambda v: sweep_cell_configs(trial_config(), "nu", (v,), 1)[0].n_u),
    "compatibility_from_errors d": ("d", 1, 4, lambda v: compatibility_from_errors(0.2, 0.3, v)),
    **{f"split {name}": (name, least, 2, lambda v, name=name: split_of(**{name: v}))
       for name, least in [("n_l", 0), ("n_val", 0), ("n_test", 0), ("seed", None)]},
    "pca_project k": ("k", 1, 2, lambda v: pca_project(TABLE, v).x.tobytes()),
    "fit_em max_iter": ("max_iter", 1, 200, lambda v: fit_em(
        sample_unlabeled(SEPARATED, 200, 4), [1.0, 0.0], v).theta.tobytes()),
    "fit_logistic max_iter": ("max_iter", 1, 100, lambda v: fit_logistic(
        sample_labeled(SEPARATED, 50, 5), 0.1, max_iter=v).theta.tobytes()),
    **{f"ProblemSize {name}": (name, least, k, field_of(ProblemSize, name, s=1.0, d=3,
                                                        n_l=10, n_u=100))
       for name, least, k in [("d", 2, 3), ("n_l", 0, 10), ("n_u", 0, 100)]},
    **{f"simulate key {key}": (key, None, 3, lambda v, key=key: _SIMULATE_KEYS[key](v, key))
       for key in ("d", "n_l", "n_u", "n_val", "n_test", "base_seed", "em_budget",
                   "replicates")},
    **{f"fit {flag}": (name, least, k, fit_flag(dest))
       for flag, dest, name, least, k in [("--nl", "nl", "n_l", 1, 20),
                                          ("--nval", "nval", "n_val", 0, 40),
                                          ("--ntest", "ntest", "n_test", 1, 40),
                                          ("--pca", "pca", "pca", 1, 2)]},
}


class TestCheckWhole:
    @pytest.mark.parametrize("value, least", [(0, None), (-3, None), (7, 7), (np.int64(5), 0),
                                              (5.0, 5), (np.float64(-2.0), None), (2**70, 1)])
    def test_takes_a_whole_number_as_an_int(self, value, least):
        got = check_whole(value, "n", least)
        assert type(got) is int and got == value

    @pytest.mark.parametrize("entry", sorted(WHOLE_ENTRY_POINTS))
    def test_every_spelling_of_a_count_gives_one_result(self, entry):
        _, _, k, call = WHOLE_ENTRY_POINTS[entry]
        assert repr(call(k)) == repr(call(np.int64(k))) == repr(call(float(k)))

    @pytest.mark.parametrize("entry", sorted(WHOLE_ENTRY_POINTS))
    def test_every_entry_point_rejects_the_rest_with_the_rule_message(self, entry):
        name, least, k, call = WHOLE_ENTRY_POINTS[entry]
        rejected = [(value, f"{name} must be a whole number, got {value!r}")
                    for value in (True, k + 0.5, str(k), math.nan, math.inf)]
        if least is not None:
            rejected.append((least - 1, f"{name} must be at least {least}, got {least - 1}"))
        for value, message in rejected:
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                call(value)

    @pytest.mark.parametrize("entry", sorted(WHOLE_ENTRY_POINTS))
    def test_a_huge_int_is_named_by_its_size_in_bits(self, entry):
        """10**5000 and -10**5000 are taken, or rejected by a rule that names their size."""
        name, least, _, call = WHOLE_ENTRY_POINTS[entry]
        bound = r"(must be at most \d+|must lie in \[0, 1\.79769e\+308\])"
        below = (re.escape(f"{name} must be at least {least}") if least is not None
                 else r".+ must be at least \d+")
        for value, message in [(10**5000, rf".+ {bound}, got an int of 16610 bits"),
                               (-10**5000, rf"{below}, got a negative int of 16610 bits")]:
            try:
                call(value)
            except ValidationError as err:
                assert re.fullmatch(message, str(err)), str(err)
            else:
                assert value > 0 or least is None


LABELED = sample_labeled(SEPARATED, 30, 11)
UNLABELED = sample_unlabeled(SEPARATED, 60, 12)


def outcome(fits):
    """The bytes of each fit of a list, or its error."""
    return [fit.theta.tobytes() if hasattr(fit, "theta") else repr(fit) for fit in fits]


#: Every real the library takes, as (name in its messages, most, positive, a valid whole k,
#: call): the entry point's bounds are [0, most], or (0, most] when positive, and call(value)
#: gives what it makes of value, or raises ValidationError.
FLOAT_MAX = sys.float_info.max
REAL_ENTRY_POINTS = {
    "first_axis_model s": ("s", MAX_SNR, False, 1,
                           lambda v: first_axis_model(v, 2).theta_star.tobytes()),
    "ProblemSize s": ("s", MAX_SNR, False, 1, field_of(ProblemSize, "s", d=3, n_l=10, n_u=100)),
    "trivial_excess s": ("s", MAX_SNR, False, 1, trivial_excess),
    "_cell_config snr": ("snr grid value", MAX_SNR, False, 1, lambda v: sweep_cell_configs(
        trial_config(), "snr", (v,), 1)[0].model.theta_star.tobytes()),
    "_cell_config nu_over_nl": ("nu_over_nl grid value", FLOAT_MAX, True, 5,
                                lambda v: sweep_cell_configs(trial_config(), "nu_over_nl",
                                                             (v,), 1)[0].n_l),
    **{f"FitProtocol {name}": (f"{name} value", most, positive, 1,
                               lambda v, name=name: getattr(FitProtocol(**{name: (v,)}), name))
       for name, most, positive in [("t_grid", 1.0, False), ("ridge_grid", FLOAT_MAX, True),
                                    ("self_train_thresholds", math.inf, False)]},
    **{f"simulate key {key}": (f"{key} value", math.inf, False, 1,
                               lambda v, key=key: _SIMULATE_KEYS[key]([v], key))
       for key in ("t_grid", "self_train_thresholds", "ridge_grid", "grid")},
    "fit_ssl_s s": ("s", FLOAT_MAX, False, 1, lambda v: repr(fit_ssl_s(LABELED, UNLABELED, v))),
    "fit_ssl_w t_grid": ("t_grid value", 1.0, False, 1, lambda v: repr(fit_ssl_w(
        LABELED, fit_logistic(LABELED, 0.1), UNLABELED, (0.5, v)))),
    "WeightSelection t": ("t", 1.0, False, 1, lambda v: WeightSelection(v).t),
    "fit_logistic ridge": ("ridge", FLOAT_MAX, False, 1,
                           lambda v: fit_logistic(LABELED, v).theta.tobytes()),
    "fit_logistic tol": ("tol", FLOAT_MAX, True, 1,
                         lambda v: fit_logistic(LABELED, 0.1, v).theta.tobytes()),
    "fit_logistic_grid ridge": ("ridge", FLOAT_MAX, False, 1,
                                lambda v: outcome(fit_logistic_grid(LABELED, [0.1, v]))),
    "self_train_path threshold": ("threshold", math.inf, False, 1, lambda v: outcome(
        self_train_path(LABELED, UNLABELED, [v], 0.1, fit_logistic(LABELED, 0.1)))),
    "self_train_path ridge": ("ridge", FLOAT_MAX, False, 1, lambda v: outcome(
        self_train_path(LABELED, UNLABELED, [0.5], v, fit_logistic(LABELED, v)))),
    **{f"compatibility_from_errors {name}": (name, 1.0, False, 1, lambda v, name=name: (
        compatibility_from_errors(**{"err_bayes": 0.2, "err_ulp": 0.3, "d": 4, name: v})))
       for name in ("err_bayes", "err_ulp")},
}


def shown(value):
    """How the rule messages show a value."""
    if isinstance(value, int) and abs(value) > FLOAT_MAX:
        return f"{'a negative' if value < 0 else 'an'} int of {abs(value).bit_length()} bits"
    return repr(value)


class TestCheckReal:
    @pytest.mark.parametrize("value, most, positive", [
        (0, FLOAT_MAX, False), (0.5, 1.0, False), (np.float32(0.25), 1.0, True),
        (np.int64(7), FLOAT_MAX, True), (MAX_SNR, MAX_SNR, False), (math.inf, math.inf, False),
        (-0.0, 1.0, False), (FLOAT_MAX, FLOAT_MAX, True)])
    def test_takes_a_real_in_its_bounds_as_a_float(self, value, most, positive):
        got = check_real(value, "x", most, positive)
        assert type(got) is float and got == value

    @pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
    def test_every_spelling_of_a_real_gives_one_result(self, entry):
        *_, k, call = REAL_ENTRY_POINTS[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spellings = [repr(call(v)) for v in (float(k), k, np.float64(k), np.float32(k))]
        assert spellings == [spellings[0]] * 4

    @pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
    def test_every_entry_point_rejects_the_rest_with_the_rule_message(self, entry):
        name, most, positive, k, call = REAL_ENTRY_POINTS[entry]
        interval = f"{'(' if positive else '['}0, {most:g}]"
        rejected = [(value, f"{name} must be a real number, got {value!r}")
                    for value in (True, np.bool_(False), str(k), None)]
        outside = [math.nan, -1.0, 10**400, -10**5000, np.float32(-2.0)]
        outside += [0, 0.0] if positive else []
        outside += [math.inf] if most < math.inf else []
        outside += [2.0 * most] if most < FLOAT_MAX else []
        outside += [np.float32(2.0 * most)] if most < 1e30 else []
        rejected += [(value, f"{name} must lie in {interval}, got {shown(value)}")
                     for value in outside]
        for value, message in rejected:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                    call(value)


class TestSampling:
    def test_deterministic_given_seed(self):
        model = MixtureModel(theta_star=np.array([0.7, -0.2, 1.1]))
        a = sample_labeled(model, 5, seed=42)
        b = sample_labeled(model, 5, seed=42)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        u1 = sample_unlabeled(model, 7, seed=9)
        u2 = sample_unlabeled(model, 7, seed=9)
        assert np.array_equal(u1.x, u2.x)

    @pytest.mark.parametrize("d, n, seed", [(1, 0, 0), (2, 0, 5), (1, 1, 3), (2, 37, 11),
                                            (5, 1_000, 2**63 + 9), (3, 4_096, -4)])
    def test_unlabeled_draw_is_the_labeled_draw_without_labels(self, d, n, seed):
        model = MixtureModel(theta_star=np.linspace(-1.0, 2.0, d))
        lab = sample_labeled(model, n, seed)
        unlab = sample_unlabeled(model, n, seed)
        assert type(unlab) is UnlabeledDataset
        assert unlab.x.shape == lab.x.shape == (n, d)
        assert unlab.x.tobytes() == lab.x.tobytes()
        for array in (lab.x, lab.y, unlab.x):
            assert not array.flags.writeable

    @pytest.mark.parametrize("n", [0, 1, 7, 4_096])
    @pytest.mark.parametrize("theta", [[-0.75], [0.0], [-0.75, 0.0], [0.0, -1.1, 0.6, 2.5, -3.0]],
                             ids=["d1-negative", "d1-zero", "d2", "d5"])
    def test_draw_keeps_the_seed_contract(self, theta, n):
        """Labels from integers, then the noise, then x = y * theta_star + noise, bit for bit."""
        model = MixtureModel(theta_star=np.array(theta))
        for seed in (0, 11, 2**63 + 9, -4):
            rng = np.random.default_rng(seed & MASK64)
            y = 2.0 * rng.integers(0, 2, size=n) - 1.0
            z = rng.standard_normal((n, model.d))
            x = y[:, None] * model.theta_star + z
            data = sample_labeled(model, n, seed)
            assert data.y.tobytes() == y.tobytes()
            assert data.x.tobytes() == x.tobytes()
            assert data.x.flags.c_contiguous and not data.x.flags.writeable

    @pytest.mark.parametrize("sampler", [sample_labeled, sample_unlabeled])
    def test_samples_own_their_arrays(self, sampler):
        data = sampler(MixtureModel(theta_star=np.array([1.0, -0.5])), 9, 4)
        for array in (data.x, getattr(data, "y", data.x)):
            assert array.base is None and not array.flags.writeable

    @pytest.mark.parametrize("sampler", [sample_labeled, sample_unlabeled])
    @pytest.mark.parametrize("n, seed", [(True, 1), (3, True)], ids=["bool-n", "bool-seed"])
    def test_rejects_a_bool_size_or_seed(self, sampler, n, seed):
        model = MixtureModel(theta_star=np.array([1.0, -0.5]))
        with pytest.raises(ValidationError):
            sampler(model, n, seed)

    def test_numpy_integers_and_negative_seeds_are_accepted(self):
        model = MixtureModel(theta_star=np.array([1.0, -0.5]))
        plain = sample_labeled(model, 6, 2**64 - 4)
        for n, seed in ((np.int32(6), -4), (6, np.int64(-4)), (np.uint8(6), np.uint64(2**64 - 4))):
            data = sample_labeled(model, n, seed)
            assert data.x.tobytes() == plain.x.tobytes()
            assert data.y.tobytes() == plain.y.tobytes()

    def test_different_seeds_differ(self):
        model = MixtureModel(theta_star=np.array([1.0, 0.0]))
        a = sample_labeled(model, 50, seed=1)
        b = sample_labeled(model, 50, seed=2)
        assert not np.array_equal(a.x, b.x)

    def test_empty_sample(self):
        model = MixtureModel(theta_star=np.array([3.0, 4.0]))
        data = sample_unlabeled(model, 0, seed=0)
        assert data.x.shape == (0, 2)
        labeled = sample_labeled(model, 0, seed=0)
        assert labeled.x.shape == (0, 2)
        assert labeled.y.shape == (0,)

    def test_labels_are_plus_minus_one(self):
        model = MixtureModel(theta_star=np.array([0.5, 0.5]))
        data = sample_labeled(model, 400, seed=3)
        assert set(np.unique(data.y)) <= {-1.0, 1.0}
        # both classes show up in a sample this large
        assert len(set(np.unique(data.y))) == 2

    def test_zero_mean_model_is_pure_noise(self):
        model = MixtureModel(theta_star=np.zeros(2))
        data = sample_labeled(model, 100_000, seed=7)
        assert np.abs(data.x.mean(axis=0)).max() < 0.02
        second = data.x.T @ data.x / data.x.shape[0]
        assert np.abs(second - np.eye(2)).max() < 0.03

    def test_label_weighted_mean_recovers_theta(self):
        model = MixtureModel(theta_star=np.array([1.0, 0.0]))
        data = sample_labeled(model, 1_000_000, seed=1)
        mean = (data.y[:, None] * data.x).mean(axis=0)
        assert np.abs(mean - model.theta_star).max() < 0.005

    def test_second_moment_matches_population(self):
        theta = np.array([1.0, 0.0])
        model = MixtureModel(theta_star=theta)
        data = sample_unlabeled(model, 1_000_000, seed=2)
        second = data.x.T @ data.x / data.x.shape[0]
        target = np.eye(2) + np.outer(theta, theta)
        assert np.abs(second - target).max() < 0.01

    def test_residuals_are_standard_normal(self):
        rng = np.random.default_rng(77)
        for seed in range(3):
            theta = rng.standard_normal(4)
            model = MixtureModel(theta_star=theta)
            data = sample_labeled(model, 50_000, seed=seed)
            residual = data.x - data.y[:, None] * theta
            assert np.abs(residual.mean(axis=0)).max() < 0.03
            assert np.abs(residual.var(axis=0) - 1.0).max() < 0.05

    def test_dataset_validation(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValidationError):
            LabeledDataset(x=x, y=np.array([1.0, -1.0]))
        with pytest.raises(ValidationError):
            LabeledDataset(x=x, y=np.array([1.0, 0.5, -1.0]))
        with pytest.raises(ValidationError):
            UnlabeledDataset(x=np.array([[1.0, math.inf]]))


class TestPredictionError:
    def test_bayes_direction(self):
        theta = np.array([1.0, 0.0])
        assert prediction_error(theta, theta) == pytest.approx(normal_cdf(-1.0), abs=1e-10)
        assert prediction_error(theta, theta) == pytest.approx(0.158655, abs=1e-6)

    def test_orthogonal_is_chance(self):
        assert prediction_error(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == 0.5

    def test_zero_estimate_is_chance(self):
        assert prediction_error(np.zeros(3), np.array([1.0, 2.0, 2.0])) == 0.5

    def test_scale_invariance_exact_for_power_of_two(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            theta_hat = rng.standard_normal(d)
            theta_star = rng.standard_normal(d)
            base = prediction_error(theta_hat, theta_star)
            for c in (0.25, 2.0, 1024.0, 2.0 ** -30):
                assert prediction_error(c * theta_hat, theta_star) == base

    def test_scale_invariance_general(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            theta_hat = rng.standard_normal(3)
            theta_star = rng.standard_normal(3)
            base = prediction_error(theta_hat, theta_star)
            for c in (0.3, 7.7, 1e-6, 1e6):
                assert prediction_error(c * theta_hat, theta_star) == pytest.approx(base, rel=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            theta_hat = rng.standard_normal(4)
            theta_star = rng.standard_normal(4) * rng.uniform(0.1, 3.0)
            total = prediction_error(theta_hat, theta_star) + prediction_error(-theta_hat, theta_star)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            theta_star = rng.standard_normal(3)
            theta_hat = rng.standard_normal(3)
            s = float(np.linalg.norm(theta_star))
            value = prediction_error(theta_hat, theta_star)
            assert std_normal_cdf(-s) - 1e-15 <= value <= 1.0

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(35)
        n = 1_000_000
        for seed in range(3):
            theta_star = rng.standard_normal(5) * rng.uniform(0.2, 1.5)
            theta_hat = rng.standard_normal(5)
            model = MixtureModel(theta_star=theta_star)
            data = sample_labeled(model, n, seed=seed)
            predicted = np.where(data.x @ theta_hat >= 0.0, 1.0, -1.0)
            rate = float(np.mean(predicted != data.y))
            p = prediction_error(theta_hat, theta_star)
            margin = 3.0 * math.sqrt(p * (1.0 - p) / n)
            assert abs(rate - p) <= margin

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            prediction_error(np.array([1.0, math.nan]), np.array([1.0, 0.0]))
        with pytest.raises(ValidationError):
            prediction_error(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0]))


class TestExcessRisk:
    def test_bayes_has_no_excess(self):
        theta = np.array([0.3, -1.2, 0.5])
        assert excess_risk(theta, theta) == 0.0
        assert excess_risk(2.0 * theta, theta) == pytest.approx(0.0, abs=1e-15)

    def test_zero_estimate_unit_snr(self):
        theta_star = np.array([1.0, 0.0])
        value = excess_risk(np.zeros(2), theta_star)
        assert value == pytest.approx(normal_cdf(1.0) - 0.5, abs=1e-10)
        assert value == pytest.approx(0.341345, abs=1e-6)

    def test_sign_flip_unit_snr(self):
        theta_star = np.array([0.0, 1.0])
        value = excess_risk(-theta_star, theta_star)
        assert value == pytest.approx(normal_cdf(1.0) - normal_cdf(-1.0), abs=1e-10)
        assert value == pytest.approx(0.682689, abs=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            theta_star = rng.standard_normal(3) * rng.uniform(0.0, 2.0)
            theta_hat = rng.standard_normal(3)
            assert excess_risk(theta_hat, theta_star) >= 0.0


class TestEstimationError:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ((1.0, 0.0), (0.0, 1.0), math.sqrt(2.0)),
            ((2.0, 2.0), (2.0, 2.0), 0.0),
            ((3.0, 4.0), (0.0, 0.0), 5.0),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert estimation_error(np.array(a), np.array(b)) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            a = rng.standard_normal(4)
            b = rng.standard_normal(4)
            assert estimation_error(a, b) == estimation_error(b, a)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            estimation_error(np.zeros(2), np.zeros(3))
