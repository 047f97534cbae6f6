"""Symmetric two-component Gaussian mixture: model, sampling, risk metrics.

The generative family: labels Y are uniform on {-1, +1} and features follow
X | Y ~ N(Y * theta_star, I_d). The signal-to-noise ratio is s = ||theta_star||.
For a linear classifier x -> sign(<theta, x>) the misclassification rate has
the closed form Phi(-<theta, theta_star> / ||theta||), where Phi is the
standard normal CDF, so all error metrics here are exact rather than sampled:

- prediction_error: the closed-form misclassification rate, with the zero
  vector defined as the chance classifier (error 0.5);
- excess_risk: prediction error minus the Bayes error Phi(-s);
- estimation_error: the Euclidean distance ||theta_hat - theta_star||.

MixtureModel caches s and the Bayes error; its `risks` shares the formulas
of the free functions, which check theta_star by building a MixtureModel.
s <= MAX_SNR keeps s**3 in the closed forms finite.

Sampling is fully determined by a 64-bit seed. Each call owns a fresh
numpy PCG64 generator (Gaussians via numpy's ziggurat standard_normal) and
draws in a fixed order: labels first, then the noise matrix. The signal
theta_star * y is then added into that noise block in place, which gives the
same bits as y * theta_star + noise since IEEE + and * commute exactly.
Nothing here mutates shared state, so every function is safe to call
concurrently.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .seeds import MASK64

_SQRT2 = math.sqrt(2.0)
#: The largest SNR taken anywhere (every SNR's check_real bound, MixtureModel); float max
#: is about 1.8e308.
MAX_SNR = 1e100
#: The label for each value of the 0/1 draw.
_SIGNS = np.array([-1.0, 1.0])


def freeze(a: np.ndarray) -> np.ndarray:
    """Make `a` read-only in place and return it; no other module freezes arrays.

    The caller has just made `a` and let no view of it escape, so the frozen
    array cannot change, and readonly takes it without a copy.
    """
    a.setflags(write=False)
    return a


def readonly(a) -> np.ndarray:
    """`a` as a read-only float64 array that no one else can write.

    A float64, C-contiguous ndarray that owns its data and is already
    read-only (what freeze leaves) is returned as-is; like freeze, this
    trusts that no writeable view of it is left. Anything else is copied:
    a list, another dtype, a view, or a writeable array, which its caller
    could still change.
    """
    owned = type(a) is np.ndarray and a.flags.owndata and a.flags.c_contiguous
    if owned and a.dtype == np.float64 and not a.flags.writeable:
        return a
    return freeze(np.array(a, dtype=float, copy=True))


def check_finite(a: np.ndarray, name: str) -> None:
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} must have finite entries")


def _past_float(value) -> bool:
    """Whether `value` is an int past float range, which has no float."""
    return (not isinstance(value, float) and isinstance(value, numbers.Integral)
            and abs(int(value)) > sys.float_info.max)


def _shown(value) -> str:
    """repr(value), or an int's size in bits once it is past float range: such
    digits are slow to print, and past 4,300 of them Python refuses to."""
    if _past_float(value):
        return f"{'a negative' if value < 0 else 'an'} int of {abs(int(value)).bit_length()} bits"
    return repr(value)


def check_real(value, name: str, most: float = sys.float_info.max, positive: bool = False) -> float:
    """`value` as a float if it is a real in [0, most], or (0, most] when `positive`.

    The one real-number rule: a Python or numpy int or float, not a bool or a
    string. The default `most` is the largest float, so the value must be
    finite; most=math.inf also takes +inf. An int past float range has no
    float, so it lies in no such interval. NaN lies in none either.
    """
    # float first skips the slower abstract-class test: fits check their t_grid, ridges
    # and thresholds on every trial.
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise ValidationError(f"{name} must be a real number, got {_shown(value)}")
    real = math.nan if _past_float(value) else float(value)
    if not (0.0 < real <= most if positive else 0.0 <= real <= most):
        interval = f"{'(' if positive else '['}0, {most:g}]"
        raise ValidationError(f"{name} must lie in {interval}, got {_shown(value)}")
    return real


def check_whole(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """`value` as an int if it is a whole number in [least, most], each bound when given.

    The one count rule: an int, a numpy integer or a real with an integral
    value (not inf or NaN), and not a bool, so 20 and 20.0 pass but 20.5,
    "20" and True do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        isinstance(value, numbers.Integral) or float(value).is_integer()
    ):
        raise ValidationError(f"{name} must be a whole number, got {_shown(value)}")
    whole = int(value)
    if least is not None and whole < least:
        raise ValidationError(f"{name} must be at least {least}, got {_shown(value)}")
    if most is not None and whole > most:
        raise ValidationError(f"{name} must be at most {most}, got {_shown(value)}")
    return whole


def as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a nonempty 1-d vector")
    check_finite(arr, name)
    return arr


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """The mixture N(+theta_star, I) / N(-theta_star, I) with uniform labels.

    `s` (the SNR, equal to ||theta_star||, at most MAX_SNR), `d` and the
    Bayes error Phi(-s) are derived from theta_star and cached on
    construction.
    """

    theta_star: np.ndarray
    s: float = field(init=False)
    d: int = field(init=False)
    bayes_error: float = field(init=False)

    def __post_init__(self):
        theta = as_vector(self.theta_star, "theta_star")
        # The norm of finite entries is a nonnegative real, or inf past float
        # range, so the one bound it can break is MAX_SNR.
        with np.errstate(over="ignore"):
            s = float(np.linalg.norm(theta))
        if s > MAX_SNR:
            raise ValidationError(f"the norm of theta_star must be at most {MAX_SNR:g}")
        object.__setattr__(self, "theta_star", readonly(theta))
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "d", int(theta.size))
        object.__setattr__(self, "bayes_error", std_normal_cdf(-s))

    def risks(self, theta_hat) -> tuple:
        """(excess_risk, estimation_error) of theta_hat, which is checked once."""
        th, ts = _checked_hat(theta_hat, self.theta_star), self.theta_star
        return _excess(th, ts, self.bayes_error), _estimation(th, ts)


@dataclass(frozen=True, eq=False)
class UnlabeledDataset:
    """Rows x[j]: an n x d matrix of finite floats, d >= 1. LabeledDataset
    adds labels, and data_io.TabularDataset column names, to these checks."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2:
            raise ValidationError("x must be a 2-d matrix")
        if x.shape[1] < 1:
            raise ValidationError("x must have at least one column")
        check_finite(x, "x")
        object.__setattr__(self, "x", readonly(x))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True, eq=False)
class LabeledDataset(UnlabeledDataset):
    """Rows x[i] with labels y[i] in {-1, +1}."""

    y: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1 or y.shape[0] != self.n:
            raise ValidationError("y must be a vector with one entry per row of x")
        if not (np.abs(y) == 1.0).all():
            raise ValidationError("labels must be exactly -1 or +1")
        object.__setattr__(self, "y", readonly(y))


@dataclass(frozen=True, eq=False)
class EstimatorOutput:
    """A fitted direction estimate: a finite, read-only vector theta.

    It carries no method label; a method is named only by its tag in
    experiments.METHODS.
    """

    theta: np.ndarray

    def __post_init__(self):
        theta = as_vector(self.theta, "theta")
        object.__setattr__(self, "theta", readonly(theta))

    @property
    def d(self) -> int:
        return self.theta.size


def _draw(model: MixtureModel, n: int, seed: int) -> tuple:
    """(x, y) of n draws, determined entirely by (model, n, seed): labels
    first, then the n x d standard normal noise block, which becomes x once
    the signal is added into it."""
    n = check_whole(n, "n", 0, np.iinfo(np.intp).max // model.d)
    rng = np.random.default_rng(check_whole(seed, "seed") & MASK64)
    y = _SIGNS[rng.integers(0, 2, size=n)]
    x = rng.standard_normal((n, model.d))
    # Through the d x n view, each row of the add runs n long, not d.
    np.add(x.T, np.multiply.outer(model.theta_star, y), out=x.T)
    return freeze(x), freeze(y)


def sample_labeled(model: MixtureModel, n: int, seed: int) -> LabeledDataset:
    """Draw n labeled samples: y uniform on {-1,+1}, x = y*theta_star + noise."""
    x, y = _draw(model, n, seed)
    return LabeledDataset(x=x, y=y)


def sample_unlabeled(model: MixtureModel, n: int, seed: int) -> UnlabeledDataset:
    """Draw n samples from the x-marginal: sample_labeled's x, labels dropped."""
    return UnlabeledDataset(x=_draw(model, n, seed)[0])


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    Accurate to well under 1e-10 absolutely, including deep in the lower
    tail (erfc avoids the cancellation that 0.5*(1+erf) would suffer).
    """
    xf = float(x)
    if math.isnan(xf) or math.isinf(xf):
        raise ValidationError("std_normal_cdf requires finite x")
    return 0.5 * math.erfc(-xf / _SQRT2)


def _checked_hat(theta_hat, theta_star: np.ndarray) -> np.ndarray:
    """theta_hat as a finite vector of the checked theta_star's length."""
    th = as_vector(theta_hat, "theta_hat")
    if th.size != theta_star.size:
        raise ValidationError("theta_hat and theta_star must have equal length")
    return th


def _prediction(th: np.ndarray, ts: np.ndarray) -> float:
    norm = float(np.linalg.norm(th))
    if norm == 0.0:
        return 0.5
    return std_normal_cdf(-float(th @ ts) / norm)


def _excess(th: np.ndarray, ts: np.ndarray, bayes: float) -> float:
    # The subtraction can round to a tiny negative for near-optimal inputs.
    return max(0.0, _prediction(th, ts) - bayes)


def _estimation(th: np.ndarray, ts: np.ndarray) -> float:
    return float(np.linalg.norm(th - ts))


def prediction_error(theta_hat, theta_star) -> float:
    """Exact misclassification rate of sign(<theta_hat, x>) under the model.

    Returns Phi(-<theta_hat, theta_star>/||theta_hat||), or 0.5 for the zero
    vector (the chance classifier, by convention).
    """
    ts = MixtureModel(theta_star).theta_star
    return _prediction(_checked_hat(theta_hat, ts), ts)


def excess_risk(theta_hat, theta_star) -> float:
    """prediction_error minus the Bayes error Phi(-||theta_star||); >= 0."""
    model = MixtureModel(theta_star)
    ts = model.theta_star
    return _excess(_checked_hat(theta_hat, ts), ts, model.bayes_error)


def estimation_error(theta_hat, theta_star) -> float:
    """Euclidean distance ||theta_hat - theta_star||."""
    ts = MixtureModel(theta_star).theta_star
    return _estimation(_checked_hat(theta_hat, ts), ts)
