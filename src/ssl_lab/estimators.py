"""Estimators for the symmetric 2-GMM mean direction.

Supervised, unsupervised, and semi-supervised fits:

- fit_sl: label-weighted sample mean (1/n_l) sum y_i x_i.
- fit_ul: spectral estimate sqrt((lambda - 1)_+) * v from the leading
  eigenpair of the uncentered second moment (1/n_u) sum x_j x_j^T, taken
  from one dense symmetric eigensolve (numpy.linalg.eigh). The second
  moment is deliberately uncentered: the mixture is symmetric, so the
  population mean is zero and E[X X^T] = I + theta theta^T.
- fix_sign: resolves UL's inherent sign ambiguity with the labeled data,
  sign(<theta_sl, theta_ul>) * theta_ul, where sign(0) := +1.
- fit_ssl_s: the three-branch switch between the zero vector, fit_sl, and
  the sign-fixed fit_ul, driven by thresholds on the oracle SNR s and on
  (d, n_l, n_u).
- fit_ssl_w: the convex combination t*theta_sl + (1-t)*theta_ulplus with t
  picked by average margin on an unlabeled validation set.
- avg_margins: the mean absolute normalized validation margins of a stack
  of candidates (one candidate is a one-row stack), one matrix product per
  block of validation rows; best_margin applies the one tie rule of every
  validation selection.
- fit_em: EM specialized to this family, whose exact update is
  theta <- (1/n) sum tanh(<theta, x_i>) x_i.
- fit_em_means: EM with two free means (shared identity covariance, equal
  weights), the generic-mixture sibling of fit_em; returns half the mean
  difference. In experiments it is only the "em_means" method tag, not
  one of the unsupervised backends (UL_BACKENDS).
- fit_logistic: ridge-penalized logistic regression through the origin,
  damped Newton with backtracking; self_train_path builds on its kernel.
- fit_logistic_grid: fit_logistic at every ridge of a grid, bit for bit.
  While the k ridges times n rows are at most HESSIAN_BLOCK, the grid runs
  as one stacked solve on the shared labeled set for as long as each
  ridge takes full Newton steps; each sum whose order matters is a
  stacked matmul with a unit dimension, which numpy runs as the same BLAS
  call per problem that a single fit makes. A ridge that leaves that
  path, and every ridge past the block, runs alone through fit_logistic's
  solver, which alone holds the line search, the -g step and the errors.
- self_train_path: two-stage self-training refits for a list of
  pseudolabel thresholds (one threshold is a one-entry list),
  warm-started along nested unions of one margin-sorted pool.
- fit_spherical_lda: half the difference of class-conditional means.

Every fit returns an EstimatorOutput, which holds only theta and no method
label: the method tags are experiments.METHODS. Estimates passed in as
arguments (fix_sign's, the theta_ulp of fit_ssl_s and fit_ssl_w,
self_train_path's stage1) are EstimatorOutputs, checked once when they
were built. Everything is a pure function of its arguments; iterative
solvers keep all state local and report non-convergence as
ConvergenceError carrying the last iterate. The
solver settings every program run uses are stated once, here: EM_TOL and
EM_MAX_ITER for both EMs, LOGISTIC_TOL and LOGISTIC_MAX_ITER for the
logistic fits. self_train_path's refits and fit_logistic_grid read the
latter two when called.
Only two settings are passed per call: fit_em's iteration cap (the "em"
backend's budget) and fit_logistic's tolerance and cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .gmm import (
    EstimatorOutput,
    LabeledDataset,
    UnlabeledDataset,
    as_vector,
    check_finite,
    check_real,
    check_whole,
    readonly,
)

#: The solver settings of every program run (module docstring).
EM_TOL = 1e-8
EM_MAX_ITER = 200_000
LOGISTIC_TOL = 1e-6
LOGISTIC_MAX_ITER = 5_000
DEFAULT_T_GRID = tuple(round(0.05 * i, 2) for i in range(21))
#: Validation rows per matrix product in avg_margins: the k x n margins
#: are never held at once, so scoring stays cheap on large tables.
MARGIN_BLOCK = 4096
#: Margins this close to the largest, relative to it, are tied.
MARGIN_RTOL = 1e-12
#: Columns per product of _newton's blocked Hessian sum. Up to this many rows the
#: sum is one gemm, bit for bit the unblocked (yx * w) @ yx.T; past it the d x n
#: scratch that product needs shrinks to d x HESSIAN_BLOCK. fit_logistic_grid
#: stacks k ridges on n rows while k * n is at most this, within the same scratch.
HESSIAN_BLOCK = 16_384


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Leading eigenvalue and unit eigenvector of a symmetric matrix."""

    value: float
    vector: np.ndarray

    def __post_init__(self):
        v = as_vector(self.vector, "vector")
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "vector", readonly(v))


@dataclass(frozen=True)
class WeightSelection:
    """Chosen mixing weight t in [0, 1]."""

    t: float

    def __post_init__(self):
        object.__setattr__(self, "t", check_real(self.t, "t", 1.0))


def fit_sl(data: LabeledDataset) -> EstimatorOutput:
    """Label-weighted mean (1/n) sum y_i x_i."""
    if data.n < 1:
        raise ValidationError("fit_sl needs at least one labeled sample")
    theta = (data.y @ data.x) / data.n
    return EstimatorOutput(theta=theta)


def second_moment(data: UnlabeledDataset) -> np.ndarray:
    """Uncentered second moment (1/n) sum x_j x_j^T, symmetric and read-only."""
    if data.n < 1:
        raise ValidationError("second_moment needs at least one sample")
    m = (data.x.T @ data.x) / data.n
    return readonly(0.5 * (m + m.T))


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip v so its largest-|entry| coordinate is positive (ties: first)."""
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0 else v


def leading_eigenpair(m) -> EigenPair:
    """Leading eigenpair of a symmetric matrix by a dense LAPACK solve.

    Only the lower triangle of the matrix is read. The returned vector is
    a unit eigenvector of the largest eigenvalue with its largest-|entry|
    coordinate made positive.
    """
    matrix = np.asarray(m, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError("matrix must be square")
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("matrix must have finite entries")
    values, vectors = np.linalg.eigh(matrix)
    return EigenPair(value=values[-1], vector=canonical_sign(vectors[:, -1]))


def fit_ul(data: UnlabeledDataset) -> EstimatorOutput:
    """Spectral estimate sqrt((lambda - 1)_+) * v, zero when lambda <= 1.

    The sign of the output is the eigensolver's canonical one; the model's
    +-theta ambiguity is resolved only by fix_sign.
    """
    pair = leading_eigenpair(second_moment(data))
    magnitude = math.sqrt(max(pair.value - 1.0, 0.0))
    return EstimatorOutput(theta=magnitude * pair.vector)


def fix_sign(theta_ul: EstimatorOutput, theta_sl: EstimatorOutput) -> EstimatorOutput:
    """Pick the sign of theta_ul that agrees with theta_sl; sign(0) := +1."""
    ul, sl = theta_ul.theta, theta_sl.theta
    if ul.size != sl.size:
        raise ValidationError("theta_ul and theta_sl must have equal length")
    sign = -1.0 if float(sl @ ul) < 0.0 else 1.0
    return EstimatorOutput(theta=sign * ul)


def fit_ssl_s(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    s: float,
    theta_ulp: EstimatorOutput | None = None,
) -> tuple[EstimatorOutput, str]:
    """Three-branch switch between 0, fit_sl, and sign-fixed fit_ul.

    With d the data dimension and n_l, n_u the sample counts:

    - branch "zero"   if s <= min(sqrt(d/n_l), (d/n_u)^(1/4)),
    - branch "sl"     elif s <= sqrt(n_l/n_u),
    - branch "ulplus" otherwise.

    `s` is oracle knowledge of the SNR. An empty unlabeled set is
    allowed: both n_u thresholds are then +inf, so the unlabeled data is
    never needed on the branch taken. Estimator errors propagate only
    from the branch actually taken.

    `theta_ulp` substitutes a precomputed sign-fixed spectral estimate for
    the "ulplus" branch; by default it is fix_sign(fit_ul(unlabeled),
    fit_sl(labeled)).

    Returns (output, branch) with branch in {"zero", "sl", "ulplus"}; the
    output's vector is bitwise equal to the chosen candidate's.
    """
    if labeled.n < 1:
        raise ValidationError("fit_ssl_s needs at least one labeled sample")
    if labeled.d != unlabeled.d and unlabeled.n > 0:
        raise ValidationError("labeled and unlabeled dimensions differ")
    s_val = check_real(s, "s")

    d = float(labeled.d)
    n_l = float(labeled.n)
    n_u = float(unlabeled.n)
    low_threshold = min(math.sqrt(d / n_l), (d / n_u) ** 0.25 if n_u > 0 else math.inf)
    if s_val <= low_threshold:
        theta = np.zeros(labeled.d)
        branch = "zero"
    elif s_val <= (math.sqrt(n_l / n_u) if n_u > 0 else math.inf):
        theta = fit_sl(labeled).theta
        branch = "sl"
    else:
        if theta_ulp is None:
            theta_ulp = fix_sign(fit_ul(unlabeled), fit_sl(labeled))
        theta = theta_ulp.theta
        if theta.size != labeled.d:
            raise ValidationError("theta_ulp dimension differs from the data")
        branch = "ulplus"
    return EstimatorOutput(theta=theta), branch


def avg_margins(thetas, validation: UnlabeledDataset) -> np.ndarray:
    """Mean absolute normalized margin of each row of a k x d stack.

    Row i scores (1/n) sum_x |<theta_i, x>| / ||theta_i|| over the n
    validation rows. The margins are formed one block of MARGIN_BLOCK
    validation rows at a time, one k x block matrix product each, and
    summed per candidate.
    """
    th = np.asarray(thetas, dtype=float)
    if th.ndim != 2 or th.size == 0:
        raise ValidationError("thetas must be a nonempty k x d matrix")
    check_finite(th, "thetas")
    if validation.n < 1:
        raise ValidationError("avg_margins needs a nonempty validation set")
    if th.shape[1] != validation.d:
        raise ValidationError("theta and validation dimensions differ")
    norms = np.linalg.norm(th, axis=1)
    if np.any(norms == 0.0):
        raise ValidationError("avg_margins is undefined for the zero vector")
    totals = np.zeros(len(th))
    for start in range(0, validation.n, MARGIN_BLOCK):
        block = validation.x[start:start + MARGIN_BLOCK]
        margins = th @ block.T
        totals += np.abs(margins, out=margins).sum(axis=1)
    return totals / validation.n / norms


def best_margin(margins) -> int:
    """Index of the selected candidate: the first, in grid order, whose
    margin is within MARGIN_RTOL (relative) of the largest.

    This is the one tie rule of every validation selection. Margins equal
    to within rounding are tied, so which of several equally good
    candidates wins never depends on rounding noise.
    """
    margins = np.asarray(margins, dtype=float)
    return int(np.argmax(margins >= margins.max() * (1.0 - MARGIN_RTOL)))


def fit_ssl_w(
    labeled: LabeledDataset,
    theta_ulp: EstimatorOutput,
    validation: UnlabeledDataset,
    t_grid=DEFAULT_T_GRID,
) -> tuple[EstimatorOutput, WeightSelection]:
    """Pick t from t_grid maximizing the validation margin of the convex
    combination t*theta_sl + (1-t)*theta_ulp.

    Candidates whose combination is the zero vector are skipped (an error
    if that leaves none); the rest are built in one broadcast and scored
    in one avg_margins call. Ties (best_margin: equal to within rounding)
    break toward the smallest t, so when theta_ulp is zero, and every
    candidate is a multiple of theta_sl, the smallest nonzero t wins.
    `theta_ulp` is the sign-fixed unsupervised estimate.
    """
    grid = [check_real(t, "t_grid value", 1.0) for t in t_grid]
    if not grid:
        raise ValidationError("t_grid must be nonempty")

    sl = fit_sl(labeled)
    ulp = theta_ulp.theta
    if ulp.size != sl.d:
        raise ValidationError("theta_sl and theta_ulp must have equal length")

    ts = np.array(sorted(grid))
    candidates = ts[:, None] * sl.theta + (1.0 - ts)[:, None] * ulp
    nonzero = np.linalg.norm(candidates, axis=1) > 0.0
    if not np.any(nonzero):
        raise ValidationError("every weighted candidate was the zero vector")
    ts, candidates = ts[nonzero], candidates[nonzero]
    best = best_margin(avg_margins(candidates, validation))
    return EstimatorOutput(theta=candidates[best]), WeightSelection(t=float(ts[best]))


def oracle_weight(mse_sl: float, mse_ul: float) -> WeightSelection:
    """MSE-proportional oracle weight t = mse_ul / (mse_sl + mse_ul)."""
    if mse_sl < 0.0 or mse_ul < 0.0:
        raise ValidationError("mean squared errors must be nonnegative")
    total = float(mse_sl) + float(mse_ul)
    if total == 0.0:
        raise ValidationError("at least one MSE must be positive")
    return WeightSelection(t=float(mse_ul) / total)


def fit_em(data: UnlabeledDataset, theta_init, max_iter: int = EM_MAX_ITER) -> EstimatorOutput:
    """Symmetric-mixture EM: iterate theta <- (1/n) sum tanh(<theta,x>) x.

    This is the exact EM step for the known-identity-covariance symmetric
    pair of components. Stops when successive iterates move less than
    EM_TOL; the "em" backend passes its em_budget as max_iter.
    """
    if data.n < 1:
        raise ValidationError("fit_em needs at least one sample")
    max_iter = check_whole(max_iter, "max_iter", 1)
    theta = as_vector(theta_init, "theta_init").copy()
    if theta.size != data.d:
        raise ValidationError("theta_init dimension differs from the data")
    x = data.x
    soft_labels = np.empty(data.n)
    for _ in range(max_iter):
        np.tanh(np.matmul(x, theta, out=soft_labels), out=soft_labels)
        theta_next = (soft_labels @ x) / data.n
        step = theta_next - theta
        # np.linalg.norm's own formula for a 1-d vector, without its overhead.
        if math.sqrt(float(step @ step)) < EM_TOL:
            return EstimatorOutput(theta=theta_next)
        theta = theta_next
    raise ConvergenceError(
        f"EM did not converge in {max_iter} iterations",
        last=EstimatorOutput(theta=theta),
    )


def fit_em_means(data: UnlabeledDataset, mu_init) -> EstimatorOutput:
    """EM with two free means (identity covariance, equal weights).

    Unlike fit_em this does not tie the component means to +-theta; it
    alternates soft assignments r_i = sigma(<mu1 - mu2, x_i> - (||mu1||^2 -
    ||mu2||^2)/2) with weighted mean updates, and returns (mu1 - mu2)/2.
    `mu_init` seeds mu1 (mu2 starts at -mu_init). Stops, as fit_em does,
    once neither mean moves EM_TOL, within EM_MAX_ITER iterations.
    """
    if data.n < 1:
        raise ValidationError("fit_em_means needs at least one sample")
    mu1 = as_vector(mu_init, "mu_init").copy()
    if mu1.size != data.d:
        raise ValidationError("mu_init dimension differs from the data")
    mu2 = -mu1
    x = data.x
    n = data.n
    for _ in range(EM_MAX_ITER):
        logit = x @ (mu1 - mu2) - 0.5 * (float(mu1 @ mu1) - float(mu2 @ mu2))
        r = _sigmoid(logit)
        w1 = float(np.sum(r))
        w2 = float(n) - w1
        # A component with no mass keeps its mean (degenerate but stable).
        mu1_next = (r @ x) / w1 if w1 > 0.0 else mu1
        mu2_next = ((1.0 - r) @ x) / w2 if w2 > 0.0 else mu2
        move = max(
            float(np.linalg.norm(mu1_next - mu1)),
            float(np.linalg.norm(mu2_next - mu2)),
        )
        mu1, mu2 = mu1_next, mu2_next
        if move < EM_TOL:
            return EstimatorOutput(theta=0.5 * (mu1 - mu2))
    raise ConvergenceError(
        f"free-means EM did not converge in {EM_MAX_ITER} iterations",
        last=EstimatorOutput(theta=0.5 * (mu1 - mu2)),
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # One tanh pass; saturates to exactly 0 or 1 for large |z|, no overflow.
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _loss(margins: np.ndarray, theta: np.ndarray, ridge: float, scratch) -> float:
    """The objective (1/n) sum log(1 + exp(-m)) + ridge * ||theta||^2 of
    the margins m = y <theta, x>; sum / size is np.mean without its overhead.
    `scratch`, two float arrays shaped like the margins, takes every pass."""
    loss = _log_loss(margins, scratch)
    return float(loss.sum()) / loss.size + float(ridge) * float(theta @ theta)


def _stacked_loss(margins: np.ndarray, theta: np.ndarray, ridge: np.ndarray, scratch):
    """_loss of each row of a stack, bit for bit: k x n margins, k x d thetas and
    k ridges. `scratch` is two float arrays with at least k rows of n."""
    loss = _log_loss(margins, [part[:len(margins)] for part in scratch])
    return loss.sum(axis=1) / loss.shape[1] + ridge * _dots(theta, theta)


def _log_loss(margins: np.ndarray, scratch) -> np.ndarray:
    """log(1 + exp(-m)) of each margin m, in scratch[0]; scratch[1] takes a pass."""
    loss, tail = scratch
    # log(1 + exp(-m)) = max(-m, 0) + log1p(exp(-|m|)), stable for any m;
    # -|m| is min(m, -m), with exp(+-0) = 1 either way.
    np.negative(margins, out=loss)
    np.minimum(margins, loss, out=tail)
    np.log1p(np.exp(tail, out=tail), out=tail)
    np.maximum(loss, 0.0, out=loss)
    loss += tail
    return loss


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] of each row pair of two k x d stacks, bit for bit: a stacked
    matmul with a unit dimension is one dot per row."""
    return np.matmul(a[:, None], b[..., None])[:, 0, 0]


def fit_logistic(
    data: LabeledDataset,
    ridge: float,
    tol: float = LOGISTIC_TOL,
    max_iter: int = LOGISTIC_MAX_ITER,
) -> EstimatorOutput:
    """Ridge logistic regression through the origin (no intercept).

    Damped Newton from theta = 0: each iteration solves the d x d system
    H step = -g with the Hessian H = (1/n) X^T diag(p(1-p)) X + 2 ridge I,
    then backtracks along the step until the Armijo sufficient-decrease
    test holds. An iteration whose Hessian solve fails, or whose step is
    non-finite or not a descent direction, steps along -g instead.
    Returns once the gradient norm is at most tol. With ridge = 0 on
    separable data the infimum is not attained, so the solver can
    legitimately exhaust max_iter; the error carries the last iterate.
    """
    if data.n < 1:
        raise ValidationError("fit_logistic needs at least one sample")
    ridge = check_real(ridge, "ridge")
    tol = check_real(tol, "tol", positive=True)
    max_iter = check_whole(max_iter, "max_iter", 1)
    yx = np.multiply(data.x.T, data.y, order="C")
    theta = _newton(yx, ridge, tol, max_iter, np.zeros(data.d))
    return EstimatorOutput(theta=theta)


def fit_logistic_grid(data: LabeledDataset, ridges) -> list:
    """fit_logistic at every ridge of a grid, each to LOGISTIC_TOL within
    LOGISTIC_MAX_ITER iterations.

    Returns one entry per ridge, in grid order: the fit, or the
    ConvergenceError it raised, each bit for bit what fit_logistic(data,
    ridge) returns or raises. While k ridges times n rows is at most
    HESSIAN_BLOCK, the k fits run as one stacked solve (_newton_grid) for as
    long as each takes full Newton steps; a ridge that leaves that path, and
    every ridge past the block, is solved alone by _newton from zero.
    """
    if data.n < 1:
        raise ValidationError("fit_logistic needs at least one sample")
    ridges = [check_real(ridge, "ridge") for ridge in ridges]
    yx = np.multiply(data.x.T, data.y, order="C")
    thetas = [None] * len(ridges)
    if len(ridges) * data.n <= HESSIAN_BLOCK:
        thetas = _newton_grid(yx, ridges)
    fits = []
    for ridge, theta in zip(ridges, thetas):
        try:
            if theta is None:
                theta = _newton(yx, ridge, LOGISTIC_TOL, LOGISTIC_MAX_ITER, np.zeros(data.d))
            fits.append(EstimatorOutput(theta=theta))
        except ConvergenceError as err:
            fits.append(err)
    return fits


def _newton(yx, ridge: float, tol, max_iter: int, theta: np.ndarray) -> np.ndarray:
    """fit_logistic's solver on validated arrays, from theta; returns the
    final theta. self_train_path warm-starts it along the threshold path.

    yx is d x n with column i = y_i x_i: exact as y_i = +-1, so no step
    needs the labels, and feature-major, so the Hessian's weighting runs
    along n. An accepted step's margins are the next iteration's. Every
    elementwise pass writes into scratch arrays allocated once per call;
    the inputs are never written. The Hessian is summed over column
    blocks of HESSIAN_BLOCK.
    """
    d, n = yx.shape
    p, w, *scratch = np.empty((4, n))
    yxw = np.empty((d, min(n, HESSIAN_BLOCK)))
    first, *rest = [
        (yx[:, i:i + HESSIAN_BLOCK], w[i:i + HESSIAN_BLOCK], yxw[:, :min(n - i, HESSIAN_BLOCK)])
        for i in range(0, n, HESSIAN_BLOCK)
    ]
    margins = theta @ yx
    value = _loss(margins, theta, ridge, scratch)
    for _ in range(max_iter):
        # p = _sigmoid(-margins): 0.5 * (-m) and m * -0.5 are the same bits.
        np.multiply(margins, -0.5, out=p)
        np.tanh(p, out=p)
        p += 1.0
        p *= 0.5
        grad = -(yx @ p) / n + 2.0 * ridge * theta
        if math.sqrt(float(grad @ grad)) <= tol:
            return theta
        np.subtract(1.0, p, out=w)
        w *= p
        # The first block's product starts the sum, as 0.0 + -0.0 would be +0.0.
        cols, weights, out = first
        hessian = np.multiply(cols, weights, out=out) @ cols.T
        for cols, weights, out in rest:
            hessian += np.multiply(cols, weights, out=out) @ cols.T
        hessian /= n
        hessian.flat[:: d + 1] += 2.0 * ridge
        try:
            direction = np.linalg.solve(hessian, -grad)
        except np.linalg.LinAlgError:
            direction = -grad
        slope = float(grad @ direction)
        if not (math.isfinite(slope) and slope < 0.0):
            direction, slope = -grad, -float(grad @ grad)
        step = 1.0
        while True:
            candidate = theta + step * direction
            cand_margins = candidate @ yx
            cand_value = _loss(cand_margins, candidate, ridge, scratch)
            if cand_value <= value + 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-18:
                raise ConvergenceError(
                    "backtracking line search stalled",
                    last=EstimatorOutput(theta=theta),
                )
        theta, value, margins = candidate, cand_value, cand_margins
    raise ConvergenceError(
        f"damped Newton did not reach tolerance in {max_iter} iterations",
        last=EstimatorOutput(theta=theta),
    )


def _newton_grid(yx, ridges) -> list:
    """_newton's full-step path from zero at k ridges on one yx at once, to
    LOGISTIC_TOL within LOGISTIC_MAX_ITER (read when called); k * n must be at
    most HESSIAN_BLOCK, so the Hessians are one product. Returns one entry per
    ridge: the theta _newton returns for it, or None.

    Row i of every stacked array is problem ids[i]. A problem stays in the
    stack while the batched solve succeeds and its full Newton step is a
    descent step that passes the Armijo test, and leaves it with its theta
    once it converges. Any other problem, and one still in the stack at
    LOGISTIC_MAX_ITER, is None: _newton alone takes a shorter or a -g step, or raises.
    Every order-dependent sum is a stacked matmul, which numpy runs as the
    gemv, dot or gemm _newton makes, per problem, and a batched solve is a
    gesv per problem, so each theta is bit for bit _newton's.
    """
    d, n = yx.shape
    ids = np.arange(len(ridges))
    ridge = np.array(ridges, dtype=float)
    found = [None] * len(ids)
    theta = np.zeros((len(ids), d))
    p_rows, w_rows, *scratch = np.empty((4, len(ids), n))
    yxw = np.empty((len(ids), d, n))
    margins = np.matmul(theta[:, None], yx)[:, 0]
    value = _stacked_loss(margins, theta, ridge, scratch)
    for _ in range(LOGISTIC_MAX_ITER):
        p = p_rows[:len(ids)]
        np.multiply(margins, -0.5, out=p)
        np.tanh(p, out=p)
        p += 1.0
        p *= 0.5
        grad = -np.matmul(yx, p[..., None])[..., 0] / n + (2.0 * ridge)[:, None] * theta
        done = np.sqrt(_dots(grad, grad)) <= LOGISTIC_TOL
        for i in np.flatnonzero(done):
            found[ids[i]] = theta[i]
        if done.any():
            ids, ridge, theta, value, grad, p = (
                part[~done] for part in (ids, ridge, theta, value, grad, p)
            )
        k = len(ids)
        if not k:
            break
        w = np.subtract(1.0, p, out=w_rows[:k])
        w *= p
        hessian = np.matmul(np.multiply(yx, w[:, None], out=yxw[:k]), yx.T)
        hessian /= n
        hessian.reshape(k, d * d)[:, :: d + 1] += (2.0 * ridge)[:, None]
        try:
            direction = np.linalg.solve(hessian, -grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            break
        slope = _dots(grad, direction)
        cand = theta + direction
        cand_margins = np.matmul(cand[:, None], yx)[:, 0]
        cand_value = _stacked_loss(cand_margins, cand, ridge, scratch)
        # NaN fails slope < 0, and -inf the Armijo test, as no loss is -inf.
        keep = (slope < 0.0) & (cand_value <= value + 1e-4 * slope)
        ids, ridge, theta, margins, value = (
            part[keep] for part in (ids, ridge, cand, cand_margins, cand_value)
        )
    return found


def sorted_distinct(values) -> np.ndarray:
    """np.unique(values) for a list of reals none of which is NaN, without
    np.unique, which loads numpy.ma. set merges 0.0 and -0.0 as np.unique does.
    """
    return np.array(sorted(set(values)), dtype=float)


def self_train_path(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    thresholds,
    ridge: float,
    stage1: EstimatorOutput,
) -> list:
    """Two-stage self-training with logistic pseudolabeling, for every
    threshold, from one sorted pool.

    Stage 1 is `stage1`, the fit_logistic fit on the labeled data at this
    ridge. Stage 2 pseudolabels every unlabeled x whose absolute
    normalized margin |<theta_1, x>| / ||theta_1|| reaches the threshold
    t as sign(<theta_1, x>), with sign(0) := +1. Stage 3 refits the
    logistic loss on the union: the labeled rows, then the kept unlabeled
    rows in their original order. t = +inf, an empty unlabeled set or a
    zero stage-1 fit (whose margins are undefined) keeps no unlabeled row,
    so the refit is plain fit_logistic on the labeled data. Every refit
    runs to LOGISTIC_TOL within LOGISTIC_MAX_ITER iterations.

    The unions are nested: with the unlabeled rows stable-sorted by how
    many thresholds their margin reaches, most first, each is a prefix of
    one pool, taken as a view. Rows that reach the same thresholds keep
    their original order, so a one-threshold union is in the order above.
    The refits run in ascending union size; the first starts from zero,
    as fit_logistic does, and each later one from the last that converged
    (a warm start along the threshold path). Thresholds that keep the same
    rows share one refit.

    Returns one entry per threshold, in the order given: the refit's
    EstimatorOutput, or the ConvergenceError it raised.
    """
    thresholds = [check_real(threshold, "threshold", math.inf) for threshold in thresholds]
    if labeled.n < 1:
        raise ValidationError("self_train_path needs at least one labeled sample")
    ridge = check_real(ridge, "ridge")
    theta1 = stage1.theta
    if theta1.size != labeled.d:
        raise ValidationError("stage1 dimension differs from the data")
    norm1 = float(np.linalg.norm(theta1))

    yx = np.multiply(labeled.x.T, labeled.y, order="C")
    counts = np.zeros(len(thresholds), dtype=int)
    if unlabeled.n > 0 and norm1 > 0.0:
        scores = unlabeled.x @ theta1
        margins = np.abs(scores) / norm1
        # missed[i]: how many distinct thresholds row i's margin falls short
        # of, counted by one comparison per level. A stable sort of these
        # small integers (a radix sort) orders the pool by bucket; kept[j]
        # counts the rows missing at most j.
        levels = sorted_distinct(thresholds)
        missed = np.zeros(unlabeled.n, dtype=np.min_scalar_type(len(levels)))
        for level in levels:
            missed += margins < level
        order = np.argsort(missed, kind="stable")
        kept = np.cumsum(np.bincount(missed, minlength=len(levels)))
        counts = kept[len(levels) - 1 - np.searchsorted(levels, thresholds)]
        signs = np.where(scores[order] >= 0.0, 1.0, -1.0)
        # The pool is gathered in place: labeled columns, then the sorted rows.
        pool = np.empty((labeled.d, labeled.n + unlabeled.n))
        pool[:, :labeled.n] = yx
        np.multiply(np.take(unlabeled.x, order, axis=0).T, signs, out=pool[:, labeled.n:])
        yx = pool

    fits = {}
    theta = np.zeros(labeled.d)
    for count in sorted(set(counts.tolist())):
        rows = labeled.n + count
        try:
            theta = _newton(yx[:, :rows], ridge, LOGISTIC_TOL, LOGISTIC_MAX_ITER, theta)
            fits[count] = EstimatorOutput(theta=theta)
        except ConvergenceError as err:
            fits[count] = err
    return [fits[count] for count in counts.tolist()]


def fit_spherical_lda(data: LabeledDataset) -> EstimatorOutput:
    """Half the difference of class-conditional means, (mu_+ - mu_-)/2."""
    pos = data.y > 0
    neg = ~pos
    if not (np.any(pos) and np.any(neg)):
        raise ValidationError("fit_spherical_lda needs both classes present")
    mu_pos = data.x[pos].mean(axis=0)
    mu_neg = data.x[neg].mean(axis=0)
    return EstimatorOutput(theta=0.5 * (mu_pos - mu_neg))
