"""Seeded Monte Carlo harness: replicated trials, sweeps, and gap studies.

A trial samples labeled/unlabeled/validation/test sets for one problem
size, fits the requested methods, and records closed-form metrics (excess
risk and estimation error against the true theta) plus the empirical
test-set error. score_fit scores every method of a trial against the
trial's model, whose s and Bayes error are computed once, and its test
set. A sweep repeats trials over a grid (SNR, n_l, n_u, or the n_u/n_l
ratio) with a fixed replicate count and aggregates mean/std per cell
with a hand-rolled Welford accumulator.

Determinism: the per-trial seed is a 64-bit mix of (base_seed, global
trial index) and every random stream inside the trial derives from it, so
a sweep is bit-identical across runs and across worker counts; worker
processes only change who computes a trial, never what it computes.

Hyperparameters are selected by average margin on the unlabeled
validation set: ridge for the logistic fit from a log-spaced grid, the
self-training threshold from quantiles of the stage-1 margins, and the
mixing weight t inside fit_ssl_w. Every grid is scored in one
estimators.avg_margins call, and margins equal to within rounding are
tied, the first candidate in grid order winning (estimators.best_margin).

The unsupervised backend behind the sign-fixed estimate ("ulplus", and
through it "sslw") is configurable: "spectral" uses the second-moment
eigenpair, "em" runs the symmetric EM update from a deterministic
near-zero start under a hard iteration budget (em_budget) and reports the
zero vector (no estimate) whenever EM fails to settle within it. Near
zero the update is essentially multiplication by the sample second
moment, so EM converges inside the budget once the components separate
and keeps wandering at low SNR: the backend is sharp or silent, never a
half-escaped guess. The "ul", "em", and "ssls" method tags always use
their own fixed algorithms regardless of backend.

METHODS is the one registry of method tags: how each fits from a
FitContext, its accepted spellings, and whether it runs on real data.
fit_methods is the one loop over it, which run_trial and the fit command
both call. Solver settings (tolerances and iteration caps) are the
estimators module's; only the "em" backend's em_budget is passed here.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConvergenceError, SslLabError, ValidationError
from .estimators import (
    DEFAULT_T_GRID,
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
    self_train_path,
)
from .gmm import (
    MAX_SNR,
    EstimatorOutput,
    LabeledDataset,
    MixtureModel,
    UnlabeledDataset,
    check_real,
    check_whole,
    sample_labeled,
    sample_unlabeled,
)
from .seeds import stream_seed, trial_seed

SWEEP_AXES = ("snr", "nl", "nu", "nu_over_nl")
UL_BACKENDS = ("spectral", "em")
DEFAULT_RIDGE_GRID = tuple(float(r) for r in np.logspace(-4.0, 1.0, 7))
METRIC_FIELDS = ("excess", "estimation", "test_error")
#: CellStats's statistics, each metric's mean then std: the results-file columns.
STAT_FIELDS = tuple(f"{kind}_{metric}" for metric in METRIC_FIELDS for kind in ("mean", "std"))

EM_INIT_SCALE = 1e-3
#: The ridge of compatibility_score's logistic fit.
COMPATIBILITY_RIDGE = 1e-3


def first_axis_model(s: float, d: int, name: str = "s") -> MixtureModel:
    """The mixture whose theta_star is s times the first basis vector of R^d; `name` names s."""
    s = check_real(s, name, MAX_SNR)
    d = check_whole(d, "d", 1, np.iinfo(np.intp).max)
    theta = np.zeros(d)
    theta[0] = s
    return MixtureModel(theta_star=theta)


def check_validation_size(methods, n_val: int) -> None:
    """Reject n_val = 0 when a requested method selects on the validation set."""
    needy = [tag for tag in methods if tag in VALIDATION_METHODS]
    if n_val == 0 and needy:
        raise ValidationError(f"methods {needy} need a nonempty validation set; n_val is 0")


@dataclass(frozen=True, eq=False)
class TrialConfig:
    """One problem size plus the fitting protocol.

    Sweeps place theta_star on the first basis vector; arbitrary
    directions are still accepted here. Metrics are rotation-equivariant,
    and so is every fitting routine except the "em" backend, whose
    deterministic near-zero start sits on the last basis axis: its escape
    transient depends on the angle between that axis and theta_star, and
    the sweep convention keeps the start signal-free.
    self_train_thresholds=None derives 7 quantiles of the stage-1 margins
    per trial instead of a fixed list.
    """

    model: MixtureModel
    n_l: int
    n_u: int
    n_val: int = 1000
    n_test: int = 1000
    methods: tuple = ("sl",)
    t_grid: tuple = DEFAULT_T_GRID
    self_train_thresholds: tuple | None = None
    ridge_grid: tuple = DEFAULT_RIDGE_GRID
    base_seed: int = 0
    ul_backend: str = "spectral"
    em_budget: int = 25

    def __post_init__(self):
        if not isinstance(self.model, MixtureModel):
            raise ValidationError("model must be a MixtureModel")
        # n x d must index one draw; grid cells pass here too, so sampling never sees a
        # bigger size.
        most = np.iinfo(np.intp).max // self.model.d
        for name, least in (("n_l", 1), ("n_u", 0), ("n_val", 0), ("n_test", 1)):
            object.__setattr__(self, name, check_whole(getattr(self, name), name, least, most))
        methods = tuple(dict.fromkeys(self.methods))
        if not methods:
            raise ValidationError("methods must be nonempty")
        for tag in methods:
            if tag not in METHODS:
                raise ValidationError(f"unknown method tag {tag!r}")
        object.__setattr__(self, "methods", methods)
        check_validation_size(methods, self.n_val)
        # Each grid's bounds. Ridge 0 is left out: on separable data its infimum is not attained.
        grids = {"t_grid": (1.0, False), "ridge_grid": (sys.float_info.max, True)}
        if self.self_train_thresholds is not None:
            grids["self_train_thresholds"] = (math.inf, False)
        for name, (most, positive) in grids.items():
            grid = tuple(check_real(t, f"{name} value", most, positive)
                         for t in getattr(self, name))
            if not grid:
                raise ValidationError(f"{name} must be nonempty")
            object.__setattr__(self, name, grid)
        object.__setattr__(self, "base_seed", check_whole(self.base_seed, "base_seed"))
        if self.ul_backend not in UL_BACKENDS:
            raise ValidationError(f"ul_backend must be one of {UL_BACKENDS}")
        object.__setattr__(self, "em_budget", check_whole(self.em_budget, "em_budget", 1))


@dataclass(frozen=True, eq=False)
class MethodMetrics:
    """Closed-form and empirical errors of one method in one trial."""

    excess: float
    estimation: float
    test_error: float
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.excess < 0:
            raise ValidationError("excess must be nonnegative")
        if not (0.0 <= self.test_error <= 1.0):
            raise ValidationError("test_error must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class TrialResult:
    trial_index: int
    seed: int
    metrics: dict
    failures: dict


@dataclass(frozen=True, eq=False)
class CellStats:
    """Aggregated statistics of one method at one grid cell.

    The one contract of a cell, which the harness and read_results share:
    at least one replicate; the STAT_FIELDS all NaN (no scored trial, as
    _aggregate_cell writes it) or all finite, each >= 0, the test-error pair
    <= 1; no extra NaN (an extra may be +inf: a threshold of inf is legal).
    """

    method: str
    replicates: int
    mean_excess: float
    std_excess: float
    mean_estimation: float
    std_estimation: float
    mean_test_error: float
    std_test_error: float
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.replicates < 1:
            raise ValidationError(f"replicates must be at least 1, got {self.replicates}")
        for key, value in self.extra.items():
            if math.isnan(value):
                raise ValidationError(f"extra {key} is NaN")
        stats = {name: getattr(self, name) for name in STAT_FIELDS}
        nan = [name for name, value in stats.items() if math.isnan(value)]
        if len(nan) == len(stats):
            return
        if nan:
            raise ValidationError(f"{nan[0]} is NaN, but not every mean and std is")
        for name, value in stats.items():
            if not 0.0 <= value < math.inf or (name.endswith("test_error") and value > 1):
                raise ValidationError(f"{name} {value!r} is out of range")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-cell statistics of a sweep; `failure_reasons` counts failed
    trials per "method: error" and is not written to results files."""

    axis_name: str
    grid: tuple
    replicates: int
    cells: tuple  # cells[i] is a tuple of CellStats for grid[i]
    failure_reasons: dict = field(default_factory=dict)

    def methods(self) -> tuple:
        return tuple(sorted({stats.method for row in self.cells for stats in row}))

    def cell(self, grid_index: int, method: str) -> CellStats:
        for stats in self.cells[grid_index]:
            if stats.method == method:
                return stats
        raise ValidationError(f"method {method!r} not present at grid index {grid_index}")

    def series(self, method: str, metric: str = "excess") -> tuple:
        return self._column(method, f"mean_{metric}")

    def std_series(self, method: str, metric: str = "excess") -> tuple:
        return self._column(method, f"std_{metric}")

    def _column(self, method: str, name: str) -> tuple:
        if name not in STAT_FIELDS:
            raise ValidationError(f"metric must be one of {METRIC_FIELDS}")
        return tuple(getattr(self.cell(i, method), name) for i in range(len(self.grid)))


def test_error(theta: np.ndarray, test) -> float:
    """Share of test rows whose label the sign of <theta, x> gets wrong.

    A count over n is one rounding, the same bits as np.mean of the 0/1
    mismatches.
    """
    if test.n < 1:
        raise ValidationError("the test set is empty")
    return np.count_nonzero((test.x @ theta >= 0.0) != (test.y > 0.0)) / test.n


def score_fit(model: MixtureModel, test, theta, extra: dict) -> MethodMetrics:
    """Score one fit against the true model and the test set."""
    excess, estimation = model.risks(theta)
    return MethodMetrics(excess, estimation, test_error(theta, test), extra)


def _select_by_margin(grid, fits, validation):
    """(value, fit) with the largest validation margin over grid, given
    one fit per value: an EstimatorOutput, or the error its fit raised.

    Candidates whose fit raised or is the zero vector (whose margin is
    undefined) are skipped; if every candidate fails the last error is
    raised. The rest are scored in one avg_margins call, and ties
    (equal to within rounding) go to the first in grid order.
    """
    values, kept = [], []
    last_error = None
    for value, out in zip(grid, fits):
        if isinstance(out, SslLabError):
            last_error = out
            continue
        if float(np.linalg.norm(out.theta)) == 0.0:
            last_error = ValidationError("avg_margins is undefined for the zero vector")
            continue
        values.append(value)
        kept.append(out)
    if not kept:
        raise last_error if last_error is not None else ValidationError("no candidates")
    best = best_margin(avg_margins([out.theta for out in kept], validation))
    return values[best], kept[best]


def _stage1_threshold_grid(stage1_theta, unlabeled):
    """Seven quantiles of the stage-1 absolute normalized margins."""
    norm = float(np.linalg.norm(stage1_theta))
    if unlabeled.n < 1 or norm == 0.0:
        return (0.0,)
    margins = np.sort(np.abs(unlabeled.x @ stage1_theta) / norm)
    return tuple(linear_quantile(margins, i / 8.0) for i in range(1, 8))


def linear_quantile(ordered: np.ndarray, q: float) -> float:
    """np.quantile(ordered, q) bit for bit, for sorted finite values and 0 <= q <= 1.

    numpy's default linear rule, without np.quantile, which loads numpy.ma:
    the virtual index (n - 1) q splits into i and a fraction t, and the
    value a + (b - a) t between a = ordered[i] and b = ordered[i + 1] is
    taken from b's side, b - (b - a)(1 - t), once t >= 0.5.
    """
    index = (len(ordered) - 1) * q
    i = math.floor(index)
    if i >= len(ordered) - 1:
        return float(ordered[-1])
    a, b, t = float(ordered[i]), float(ordered[i + 1]), index - i
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def _budgeted_em(unlabeled, init, budget: int):
    """Symmetric EM with a hard iteration budget; unconverged means zero.

    Started near zero, the iterate escapes toward the component axis
    only once the per-step gain (roughly 1 + s^2) can amplify the sample
    signal within the budget, so EM settles quickly when the components
    are well separated and is still wandering at low SNR. A wandering
    iterate carries no trustworthy direction, so the backend reports no
    estimate: the zero vector, the pipeline's explicit null element
    (fix_sign passes it through and fit_ssl_w skips zero candidates).
    """
    try:
        return fit_em(unlabeled, init, max_iter=budget)
    except ConvergenceError:
        return EstimatorOutput(theta=np.zeros(len(init)))


@dataclass(frozen=True, eq=False)
class FitContext:
    """The data and settings every method fits from, plus the fits they share.

    `model` is the true mixture in a simulation and None on real data;
    only the truth-dependent extra "wrong_sign" and the switch rule's
    oracle SNR ("ssls", which therefore runs in simulations only) read it.
    The fits several methods need (sl, the spectral ul, the backend's
    sign-fixed ulplus, and the validation-selected ridge fit) are computed
    on first use and then shared. Estimators are called through this
    module's globals at call time, never held, so patching them still
    takes effect.
    """

    labeled: LabeledDataset
    unlabeled: UnlabeledDataset
    validation: UnlabeledDataset
    model: MixtureModel | None = None
    t_grid: tuple = DEFAULT_T_GRID
    ridge_grid: tuple = DEFAULT_RIDGE_GRID
    self_train_thresholds: tuple | None = None
    ul_backend: str = "spectral"
    em_budget: int = 25

    @cached_property
    def em_init(self) -> np.ndarray:
        # Deterministic, signal-free EM start: a near-zero vector on the
        # last basis axis, which the sweep convention (theta_star on the
        # first axis) keeps orthogonal to the true mean direction. EM must
        # earn any alignment from the data; below its escape SNR the
        # iterate simply stays near zero.
        init = np.zeros(self.labeled.d)
        init[-1] = EM_INIT_SCALE
        return init

    @cached_property
    def sl(self):
        return fit_sl(self.labeled)

    @cached_property
    def ul(self):
        """The spectral estimate: the "ul" method, the spectral backend's
        ulplus and the switch rule's ulplus branch all use this one fit."""
        return fit_ul(self.unlabeled)

    @cached_property
    def ulplus(self):
        """Sign-fixed unsupervised estimate from the configured backend."""
        if self.ul_backend == "spectral":
            raw = self.ul
        else:
            raw = _budgeted_em(self.unlabeled, self.em_init, self.em_budget)
        return fix_sign(raw, self.sl)

    @cached_property
    def ridge(self):
        """(ridge, logistic fit) with the largest validation margin."""
        fits = fit_logistic_grid(self.labeled, self.ridge_grid)
        return _select_by_margin(self.ridge_grid, fits, self.validation)


@dataclass(frozen=True)
class Method:
    """One registry entry. `fit(ctx)` returns (theta, extra), extra being
    the method's selections keyed by name; `validation` marks a method
    that selects on the validation set, `real_data` one that the fit
    command offers, and `fit_default` one it runs by default."""

    fit: Callable
    aliases: tuple = ()
    validation: bool = False
    real_data: bool = True
    fit_default: bool = False


def _fit_ulplus(ctx):
    theta = ctx.ulplus.theta
    if ctx.model is None:
        return theta, {}
    return theta, {"wrong_sign": float(theta @ ctx.model.theta_star < 0.0)}


def _fit_ssls(ctx):
    # The switch rule's "ulplus" branch is the sign-fixed spectral fit; it
    # needs unlabeled rows, and without any the branch is never taken.
    ulp = fix_sign(ctx.ul, ctx.sl) if ctx.unlabeled.n else None
    out, branch = fit_ssl_s(ctx.labeled, ctx.unlabeled, ctx.model.s, theta_ulp=ulp)
    return out.theta, {f"branch_{b}": float(branch == b) for b in ("zero", "sl", "ulplus")}


def _fit_sslw(ctx):
    out, selection = fit_ssl_w(ctx.labeled, ctx.ulplus, ctx.validation, t_grid=ctx.t_grid)
    return out.theta, {"t": selection.t}


def _fit_logistic(ctx):
    ridge, out = ctx.ridge
    return out.theta, {"ridge": ridge}


def _fit_selftrain(ctx):
    """Pick the pseudolabel threshold by validation margin of the refit;
    every threshold shares the ridge-selected stage-1 fit."""
    ridge, stage1 = ctx.ridge
    thresholds = ctx.self_train_thresholds
    if thresholds is None:
        thresholds = _stage1_threshold_grid(stage1.theta, ctx.unlabeled)
    fits = self_train_path(ctx.labeled, ctx.unlabeled, thresholds, ridge, stage1=stage1)
    threshold, out = _select_by_margin(thresholds, fits, ctx.validation)
    return out.theta, {"ridge": ridge, "threshold": threshold}


#: Every method tag, in harness order.
METHODS = {
    "zero": Method(lambda ctx: (np.zeros(ctx.labeled.d), {}), real_data=False),
    "sl": Method(lambda ctx: (ctx.sl.theta, {}), ("supervised",), fit_default=True),
    "ul": Method(lambda ctx: (ctx.ul.theta, {})),
    "ulplus": Method(_fit_ulplus, ("ul+", "ulp"), fit_default=True),
    # The switch rule needs the true SNR, which real tables do not carry.
    "ssls": Method(_fit_ssls, ("sls", "ssl-s"), real_data=False),
    "sslw": Method(_fit_sslw, ("slw", "ssl-w"), validation=True, fit_default=True),
    "em": Method(lambda ctx: (fit_em(ctx.unlabeled, ctx.em_init).theta, {})),
    "em_means": Method(
        lambda ctx: (fit_em_means(ctx.unlabeled, ctx.em_init).theta, {}), ("em-means",)
    ),
    "logistic": Method(_fit_logistic, validation=True, fit_default=True),
    "selftrain": Method(_fit_selftrain, ("self-train",), validation=True, fit_default=True),
    "lda": Method(
        lambda ctx: (fit_spherical_lda(ctx.labeled).theta, {}),
        ("sphericallda", "spherical-lda"),
        fit_default=True,
    ),
}
#: Methods that select a hyperparameter on the validation set.
VALIDATION_METHODS = tuple(tag for tag, method in METHODS.items() if method.validation)


def fit_methods(ctx: FitContext, methods, score) -> tuple:
    """Fit each tag in `methods` from ctx; the one loop over METHODS.

    score(theta, extra) turns a fit into what the caller keeps. Returns
    (scores, failures), both keyed by tag in `methods` order: a method
    whose fit or score raises SslLabError lands in failures as
    "ErrorType: message" instead of aborting the others.
    """
    scores: dict = {}
    failures: dict = {}
    for tag in methods:
        try:
            scores[tag] = score(*METHODS[tag].fit(ctx))
        except SslLabError as err:
            failures[tag] = f"{type(err).__name__}: {err}"
    return scores, failures


def run_trial(cfg: TrialConfig, trial_index: int) -> TrialResult:
    """Run one seeded trial: sample, fit every method, measure.

    Per-method estimator failures are recorded in TrialResult.failures
    instead of aborting the whole trial.
    """
    trial_index = check_whole(trial_index, "trial_index", 0)
    seed = trial_seed(cfg.base_seed, trial_index)
    model = cfg.model
    ctx = FitContext(
        labeled=sample_labeled(model, cfg.n_l, stream_seed(seed, 0)),
        unlabeled=sample_unlabeled(model, cfg.n_u, stream_seed(seed, 1)),
        validation=sample_unlabeled(model, cfg.n_val, stream_seed(seed, 2)),
        model=model,
        t_grid=cfg.t_grid,
        ridge_grid=cfg.ridge_grid,
        self_train_thresholds=cfg.self_train_thresholds,
        ul_backend=cfg.ul_backend,
        em_budget=cfg.em_budget,
    )
    test = sample_labeled(model, cfg.n_test, stream_seed(seed, 3))
    metrics, failures = fit_methods(
        ctx, cfg.methods, lambda theta, extra: score_fit(model, test, theta, extra)
    )
    return TrialResult(trial_index=trial_index, seed=seed, metrics=metrics, failures=failures)


def _cell_config(cfg: TrialConfig, axis: str, value) -> TrialConfig:
    if axis == "snr":
        return replace(cfg, model=first_axis_model(value, cfg.model.d, "snr grid value"))
    if axis == "nl":
        return replace(cfg, n_l=check_whole(value, "nl grid value"))
    if axis == "nu":
        return replace(cfg, n_u=check_whole(value, "nu grid value"))
    if axis == "nu_over_nl":
        ratio = check_real(value, "nu_over_nl grid value", positive=True)
        # round() needs n_u / ratio finite, which a tiny ratio overflows.
        quotient = check_real(cfg.n_u / ratio, f"n_u / nu_over_nl grid value (n_u = {cfg.n_u})")
        # The cell records `ratio`, so it must be the ratio that runs.
        n_l = max(1, round(quotient))
        if cfg.n_u / n_l != ratio:
            raise ValidationError(
                f"nu_over_nl grid value {value} does not divide n_u={cfg.n_u} into a whole n_l"
            )
        return replace(cfg, n_l=n_l)
    raise ValidationError(f"axis must be one of {SWEEP_AXES}")


class _Welford:
    """Streaming mean and population variance accumulator."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, x: float):
        self.count += 1
        if math.inf in (x, self.mean):
            # A threshold of inf is legal, and inf - inf would make the mean NaN.
            self.mean = self.m2 = math.inf
            return
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    def std(self) -> float:
        if self.count == 0:
            return math.nan
        return math.sqrt(max(self.m2, 0.0) / self.count)

    def result_mean(self) -> float:
        return self.mean if self.count else math.nan


def _aggregate_cell(results, methods, replicates, reasons: Counter) -> tuple:
    """Fold the next `replicates` trial results of the iterator `results` into
    per-method statistics, counting each "method: error" failure in `reasons`.

    Results are consumed one at a time in trial order, so the accumulated
    floats do not depend on who computed each trial.
    """
    methods = sorted(methods)
    accs = {method: {name: _Welford() for name in METRIC_FIELDS} for method in methods}
    extras: dict = {method: {} for method in methods}
    failed: Counter = Counter()
    for _ in range(replicates):
        result = next(results)
        for tag, message in result.failures.items():
            reasons[f"{tag}: {message}"] += 1
            failed[tag] += 1
        for method, mm in result.metrics.items():
            for name, acc in accs[method].items():
                acc.add(getattr(mm, name))
            for key, value in mm.extra.items():
                extras[method].setdefault(key, _Welford()).add(float(value))
    stats = []
    for method in methods:
        extra = {key: acc.result_mean() for key, acc in sorted(extras[method].items())}
        if failed[method]:
            extra["failures"] = float(failed[method])
        # accs and STAT_FIELDS both follow METRIC_FIELDS, mean before std.
        values = (v for acc in accs[method].values() for v in (acc.result_mean(), acc.std()))
        stats.append(CellStats(method, replicates, **dict(zip(STAT_FIELDS, values)), extra=extra))
    return tuple(stats)


def sweep_cell_configs(cfg: TrialConfig, axis: str, grid, replicates: int, threads: int = 1):
    """Validate a sweep's arguments; return one TrialConfig per grid value.

    run_sweep starts with this check, so a bad size (zero replicates or
    workers, more trials than the 2**64 that seeds.trial_seed tells apart,
    a grid value that leaves n_l = 0) fails before any trial runs.
    Grid values must differ as floats (0 and -0.0 are one value), as each
    names one cell of the results file.
    """
    if axis not in SWEEP_AXES:
        raise ValidationError(f"axis must be one of {SWEEP_AXES}")
    grid = tuple(grid)
    if not grid:
        raise ValidationError("grid must be nonempty")
    check_whole(replicates, "replicates", 1, 2**64 // len(grid))
    check_whole(threads, "threads", 1)
    configs = [_cell_config(cfg, axis, value) for value in grid]
    floats = [float(value) for value in grid]
    if len(set(floats)) < len(floats):
        raise ValidationError(f"grid values must be distinct as floats, got {floats}")
    return configs


def run_sweep(
    cfg: TrialConfig,
    axis: str,
    grid,
    replicates: int,
    threads: int = 1,
) -> SweepResult:
    """Run replicates x len(grid) trials, folding each into its cell as it finishes.

    The global trial index of (cell i, replicate j) is i*replicates + j,
    which fully determines that trial's seed; scheduling across worker
    processes cannot change any number in the result. A serial sweep holds
    one trial result at a time, and a pool that loses a worker raises
    SslLabError.
    """
    grid = tuple(grid)
    cell_configs = sweep_cell_configs(cfg, axis, grid, replicates, threads)
    replicates = int(replicates)
    trials = len(grid) * replicates
    configs = (c for c in cell_configs for _ in range(replicates))
    reasons: Counter = Counter()

    def fold(results) -> tuple:
        return tuple(_aggregate_cell(results, cfg.methods, replicates, reasons) for _ in grid)

    # The pool starts every worker up front, so it never gets more than there are trials.
    workers = min(int(threads), trials)
    if workers == 1:
        cells = fold(map(run_trial, configs, range(trials)))
    else:
        # Imported here so that serial runs never load multiprocessing.
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunk = max(1, trials // (4 * workers))
                cells = fold(pool.map(run_trial, configs, range(trials), chunksize=chunk))
        except BrokenExecutor as err:
            raise SslLabError(str(err)) from err
    return SweepResult(
        axis_name=axis,
        grid=grid,
        replicates=replicates,
        cells=cells,
        failure_reasons=dict(reasons),
    )


def error_gap(sweep: SweepResult, method_a: str, method_b: str, metric: str = "excess") -> tuple:
    """Per-cell mean(error_a) - mean(error_b) of two method tags; positive where b wins."""
    series_a = sweep.series(method_a, metric)
    series_b = sweep.series(method_b, metric)
    return tuple(a - b for a, b in zip(series_a, series_b))


def compatibility_from_errors(err_bayes: float, err_ulp: float, d: int) -> tuple:
    """(rho, 1/rho) from the two training errors and the dimension.

    rho = (m + err_bayes)/(2*sqrt(d)) with m the relative error inflation
    (err_ulp - err_bayes)/err_bayes; when err_bayes <= 0.01 the data is
    treated as near separable and rho = err_bayes directly.
    """
    err_bayes = check_real(err_bayes, "err_bayes", 1.0)
    err_ulp = check_real(err_ulp, "err_ulp", 1.0)
    d = check_whole(d, "d", 1, np.iinfo(np.intp).max)
    if err_bayes <= 0.01:
        rho = err_bayes
    else:
        m = (err_ulp - err_bayes) / err_bayes
        rho = (m + err_bayes) / (2.0 * math.sqrt(d))
    inverse = math.inf if rho == 0.0 else 1.0 / rho
    return rho, inverse


def compatibility_score(labeled_full) -> tuple:
    """Compatibility of a labeled dataset: plug training errors into rho.

    The linear proxy for the Bayes rule is a logistic fit on the full
    dataset at ridge COMPATIBILITY_RIDGE; the unsupervised-style reference
    is the spherical LDA direction. Both are scored by training error.
    """
    bayes = fit_logistic(labeled_full, COMPATIBILITY_RIDGE)
    lda = fit_spherical_lda(labeled_full)
    err_bayes = test_error(bayes.theta, labeled_full)
    err_ulp = test_error(lda.theta, labeled_full)
    return compatibility_from_errors(err_bayes, err_ulp, labeled_full.d)


def scaling_fit(sweep: SweepResult, method: str, metric: str = "excess") -> float:
    """Least-squares slope of log(mean error) against log(axis value)."""
    if len(sweep.grid) < 3:
        raise ValidationError("scaling_fit needs at least 3 grid cells")
    xs = np.asarray(sweep.grid, dtype=float)
    ys = np.asarray(sweep.series(method, metric), dtype=float)
    if np.any(xs <= 0):
        raise ValidationError("axis values must be positive for a log-log fit")
    if np.any(~np.isfinite(ys)) or np.any(ys <= 0):
        raise ValidationError("errors must be positive for a log-log fit")
    lx = np.log(xs)
    ly = np.log(ys)
    lx_centered = lx - lx.mean()
    return float((lx_centered @ (ly - ly.mean())) / (lx_centered @ lx_centered))


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """A sweep: trial config plus axis, grid and replicates (a preset pins all four)."""

    cfg: TrialConfig
    axis: str
    grid: tuple
    replicates: int


PRESETS = {
    # SNR sweep at small fixed samples; the classic head-to-head picture.
    "fig1a": SweepSpec(
        cfg=TrialConfig(
            model=first_axis_model(1.0, 2),
            n_l=20,
            n_u=2000,
            methods=("sl", "ulplus", "sslw", "selftrain"),
            ul_backend="em",
        ),
        axis="snr",
        grid=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
        replicates=20,
    ),
    # ratio sweep at fixed unlabeled budget
    "fig1b": SweepSpec(
        cfg=TrialConfig(
            model=first_axis_model(0.5, 2),
            n_l=10,
            n_u=7000,
            methods=("sl", "ulplus", "sslw", "selftrain"),
            ul_backend="em",
        ),
        axis="nu_over_nl",
        grid=(1.0, 4.0, 10.0, 40.0, 100.0, 200.0, 700.0),
        replicates=20,
    ),
    # labeled-size sweep across the switching point of the two baselines
    "fig3": SweepSpec(
        cfg=TrialConfig(
            model=first_axis_model(0.5, 2),
            n_l=100,
            n_u=10_000,
            methods=("sl", "ulplus", "ssls", "sslw"),
            ul_backend="spectral",
        ),
        axis="nl",
        grid=(100, 500, 1000, 2500, 5000, 10_000),
        replicates=20,
    ),
}
