"""Independent reference implementations used to cross-check the package.

Each routine here deliberately takes a different route from the library
code it checks: the normal CDF comes from high-precision numerical
integration, eigenpairs from a dense cyclic Jacobi sweep, the logistic fit
from fixed-step gradient descent with a trace-bound step size, gradients
from central differences, the mixture log-likelihood from a logcosh
identity, CSV tables from csv.reader and float() one cell at a time, and
the self-training threshold search from one boolean-mask union per
threshold, each fitted cold from zero. traced_peak reads the allocation
peak that the memory bounds check.
Keep them boring and obviously correct.
"""

import csv
import math
import os
import tracemalloc

import mpmath as mp
import numpy as np

from ssl_lab.errors import DataFormatError, SslLabError


def normal_cdf(x):
    """Standard normal CDF by numerical integration at 40 digits."""
    with mp.workdps(40):
        xm = mp.mpf(float(x))
        density = lambda t: mp.exp(-t * t / 2) / mp.sqrt(2 * mp.pi)
        if xm < -6:
            return float(mp.quad(density, [mp.ninf, xm]))
        if xm > 6:
            return float(1 - mp.quad(density, [xm, mp.inf]))
        return float(mp.mpf("0.5") + mp.quad(density, [0, xm]))


def jacobi_eigh(a, tol=1e-14, max_sweeps=100):
    """Dense symmetric eigensolver by cyclic Jacobi rotations.

    Returns (values, vectors) with eigenvalues in descending order and the
    matching eigenvectors as columns.
    """
    b = np.array(a, dtype=float)
    n = b.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = math.sqrt(2.0 * float(np.sum(np.tril(b, -1) ** 2)))
        if off <= tol * max(1.0, float(np.linalg.norm(b))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(b[p, q]) < 1e-300:
                    continue
                tau = (b[q, q] - b[p, p]) / (2.0 * b[p, q])
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = b[:, p].copy()
                col_q = b[:, q].copy()
                b[:, p] = c * col_p - s * col_q
                b[:, q] = s * col_p + c * col_q
                row_p = b[p, :].copy()
                row_q = b[q, :].copy()
                b[p, :] = c * row_p - s * row_q
                b[q, :] = s * row_p + c * row_q
                col_p = v[:, p].copy()
                col_q = v[:, q].copy()
                v[:, p] = c * col_p - s * col_q
                v[:, q] = s * col_p + c * col_q
    order = np.argsort(np.diag(b))[::-1]
    return np.diag(b)[order].copy(), v[:, order].copy()


def leading_pair(a):
    """Largest eigenvalue and eigenvector, largest-|entry| made positive."""
    values, vectors = jacobi_eigh(a)
    vec = vectors[:, 0]
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        vec = -vec
    return float(values[0]), vec


def sigmoid(z):
    """Logistic function 1 / (1 + exp(-z)) of one scalar, exp never overflowing."""
    z = float(z)
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    return math.exp(z) / (1.0 + math.exp(z))


def logistic_objective(theta, x, y, ridge):
    """Ridge logistic objective accumulated pointwise with scalar math."""
    total = 0.0
    for i in range(x.shape[0]):
        m = float(y[i]) * float(np.dot(x[i], theta))
        if m >= 0:
            total += math.log1p(math.exp(-m))
        else:
            total += -m + math.log1p(math.exp(m))
    return total / x.shape[0] + ridge * float(np.dot(theta, theta))


def logistic_gradient(theta, x, y, ridge):
    n = x.shape[0]
    margins = y * (x @ theta)
    sig = np.empty(n)
    pos = margins >= 0
    sig[pos] = np.exp(-margins[pos]) / (1.0 + np.exp(-margins[pos]))
    sig[~pos] = 1.0 / (1.0 + np.exp(margins[~pos]))
    return -((y * sig) @ x) / n + 2.0 * ridge * theta


def logistic_fixed_step(x, y, ridge, tol=1e-10, max_iter=2_000_000):
    """Fixed-step gradient descent at step 1/L, L from the trace bound.

    Runs until the gradient norm reaches tol. The trace bound on the
    Hessian is loose, so this is slow and steady on purpose.
    """
    n, d = x.shape
    lipschitz = float(np.sum(x * x)) / (4.0 * n) + 2.0 * ridge
    step = 1.0 / lipschitz
    theta = np.zeros(d)
    for _ in range(max_iter):
        grad = logistic_gradient(theta, x, y, ridge)
        if float(np.linalg.norm(grad)) <= tol:
            return theta
        theta = theta - step * grad
    return theta


def central_diff_grad(f, theta, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = step
        grad[i] = (f(theta + bump) - f(theta - bump)) / (2.0 * step)
    return grad


def sym_mixture_avg_loglik(theta, x):
    """Average log-likelihood of the two-component symmetric mixture.

    Uses log(0.5 N(x; theta, I) + 0.5 N(x; -theta, I)) rewritten through
    logcosh(<theta, x>) for numerical stability.
    """
    theta = np.asarray(theta, dtype=float)
    a = np.abs(x @ theta)
    logcosh = a - math.log(2.0) + np.log1p(np.exp(-2.0 * a))
    quadratic = 0.5 * (np.sum(x * x, axis=1) + float(theta @ theta))
    d = x.shape[1]
    return float(np.mean(logcosh - quadratic)) - 0.5 * d * math.log(2.0 * math.pi)


def load_csv_rows(path, label_column, positive_label):
    """Reference table reader: csv.reader, then float() on each stripped cell.

    Returns (x, y, columns) as data_io.load_csv builds them and raises
    DataFormatError with load_csv's messages. Its grammar is float()'s,
    which also takes '1_000' and non-ASCII digits; load_csv rejects those.
    """
    display = os.fspath(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise DataFormatError(f"{display}: empty file, expected a header row") from None
        if len(set(header)) != len(header):
            raise DataFormatError(f"{display}: duplicate column names in header")
        if label_column not in header:
            raise DataFormatError(
                f"{display}: label column {label_column!r} not found; columns are {header}"
            )
        label_index = header.index(label_column)
        columns = tuple(name for i, name in enumerate(header) if i != label_index)
        if not columns:
            raise DataFormatError(f"{display}: no feature columns besides the label column")
        rows = []
        raw_labels = []
        for line, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(header):
                raise DataFormatError(
                    f"{display}: row {line}: expected {len(header)} fields, found {len(record)}"
                )
            values = []
            for i, cell in enumerate(record):
                if i == label_index:
                    continue
                try:
                    value = float(cell.strip())
                except ValueError:
                    raise DataFormatError(
                        f"{display}: row {line}: cannot parse {cell!r} in column "
                        f"{header[i]!r} as a real number"
                    ) from None
                if not math.isfinite(value):
                    raise DataFormatError(
                        f"{display}: row {line}: non-finite value {cell!r} in column {header[i]!r}"
                    )
                values.append(value)
            rows.append(values)
            raw_labels.append(record[label_index].strip())
    if not rows:
        raise DataFormatError(f"{display}: no data rows after the header")
    distinct = sorted(set(raw_labels))
    if len(distinct) != 2:
        raise DataFormatError(
            f"{display}: label column must take exactly two distinct values, "
            f"found {len(distinct)}: {distinct[:5]}"
        )
    positive = str(positive_label)
    if positive not in distinct:
        raise DataFormatError(
            f"{display}: positive label {positive!r} not among label values {distinct}"
        )
    y = np.where([label == positive for label in raw_labels], 1.0, -1.0)
    return np.asarray(rows, dtype=float), y, columns


def self_train_by_masks(labeled_x, labeled_y, unlabeled_x, validation_x, thresholds, theta1, fit):
    """Reference self-training threshold search, one mask-built union each.

    For each threshold in the order given, keeps the unlabeled rows whose
    absolute normalized stage-1 margin |<theta1, x>| / ||theta1|| reaches
    it, pseudolabels them sign(<theta1, x>) with sign(0) := +1, appends
    them in their original order to the labeled rows, and calls
    fit(x, y) on that union. A zero theta1 or an empty unlabeled set
    keeps no rows. Returns (best, unions, thetas): best is the index of
    the first threshold in grid order whose fit has the largest mean
    absolute normalized validation margin (None if no fit succeeded),
    unions[i] is threshold i's (x, y), and thetas[i] its fit, or None
    where fit raised an SslLabError or returned the zero vector.
    """
    norm1 = float(np.linalg.norm(theta1))
    unions, thetas = [], []
    best, best_margin = None, -math.inf
    for i, threshold in enumerate(thresholds):
        x, y = labeled_x, labeled_y
        if len(unlabeled_x) > 0 and norm1 > 0.0:
            scores = unlabeled_x @ theta1
            keep = np.abs(scores) / norm1 >= threshold
            x = np.concatenate([x, unlabeled_x[keep]])
            y = np.concatenate([y, np.where(scores[keep] >= 0.0, 1.0, -1.0)])
        unions.append((x, y))
        try:
            theta = fit(x, y)
        except SslLabError:
            theta = None
        norm = 0.0 if theta is None else float(np.linalg.norm(theta))
        thetas.append(theta if norm > 0.0 else None)
        if norm == 0.0:
            continue
        margin = float(np.mean(np.abs(validation_x @ theta))) / norm
        if margin > best_margin:
            best, best_margin = i, margin
    return best, unions, thetas


def traced_peak(run) -> int:
    """Peak bytes allocated while run() ran, as tracemalloc counts them (numpy reports to it)."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
