"""Per-feature power transform and standardization, fitted on training data.

Each of the 271 distance features is passed through a Box-Cox transform
with its own exponent, estimated by maximizing the profile log-likelihood
LL(lam) = -(n/2) ln var(t(x; lam)) + (lam - 1) sum(ln x), then centered and
scaled to unit variance using statistics of the transformed training
column. Constant columns get lam = 1 and a guarded scale so no division by
zero can occur.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MIN_RANGE_M, NUM_BEAMS
from .errors import DegenerateFeatureError, DimensionError, InsufficientDataError

LAMBDA_MIN = -5.0
LAMBDA_MAX = 5.0
LAMBDA_TOL = 1e-4
STD_FLOOR = 1e-12
_COARSE_STEP = 0.1


def boxcox_apply(x, lam: float):
    """Box-Cox transform: (x^lam - 1)/lam for lam != 0, ln x at lam = 0."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise ValueError("Box-Cox transform requires strictly positive inputs")
    if lam == 0.0:
        out = np.log(x)
    else:
        out = (np.power(x, lam) - 1.0) / lam
    return out if out.ndim else float(out)


def boxcox_inverse(y, lam: float):
    """Analytic inverse of boxcox_apply; raises outside the image domain."""
    y = np.asarray(y, dtype=np.float64)
    if lam == 0.0:
        out = np.exp(y)
    else:
        base = lam * y + 1.0
        if np.any(base <= 0.0):
            raise ValueError("value outside the Box-Cox image for this exponent")
        out = np.power(base, 1.0 / lam)
    return out if out.ndim else float(out)


def boxcox_loglik(samples: np.ndarray, lam: float) -> float:
    """Profile log-likelihood of the Box-Cox exponent for one sample set."""
    transformed = boxcox_apply(samples, lam)
    var = float(np.var(transformed))
    if var <= 0.0:
        return -math.inf
    n = samples.shape[0]
    return -(n / 2.0) * math.log(var) + (lam - 1.0) * float(np.sum(np.log(samples)))


def fit_boxcox_lambda(samples, tol: float = LAMBDA_TOL) -> float:
    """Maximum-likelihood Box-Cox exponent over [-5, 5], to absolute `tol`."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[0] < 3:
        raise InsufficientDataError("need at least 3 samples to fit the exponent")
    if np.any(samples <= 0.0):
        raise ValueError("samples must be strictly positive")
    if float(np.ptp(samples)) < STD_FLOOR:
        raise DegenerateFeatureError("all samples are equal; exponent is undefined")
    return float(_fit_lambdas(samples[:, None], tol)[0])


def _fit_lambdas(X: np.ndarray, tol: float = LAMBDA_TOL) -> np.ndarray:
    """Maximum-likelihood exponent of every column of a positive matrix.

    A coarse grid over [-5, 5], evaluated on the whole matrix at once,
    brackets each column's optimum; golden-section search then refines it
    column by column. Constant columns get 1.
    """
    n, width = X.shape
    logX = np.log(X)
    log_sums = np.sum(logX, axis=0)
    grid = np.arange(LAMBDA_MIN, LAMBDA_MAX + _COARSE_STEP / 2, _COARSE_STEP)
    best_ll = np.full(width, -np.inf)
    best_idx = np.zeros(width, dtype=np.int64)
    for i, lam in enumerate(grid):
        t = logX if lam == 0.0 else (np.power(X, lam) - 1.0) / lam
        var = np.var(t, axis=0)
        with np.errstate(divide="ignore"):
            ll = -(n / 2.0) * np.log(var) + (lam - 1.0) * log_sums
        ll = np.where(var > 0.0, ll, -np.inf)
        better = ll > best_ll
        best_ll = np.where(better, ll, best_ll)
        best_idx[better] = i

    lambdas = np.ones(width)
    for j in np.flatnonzero(np.ptp(X, axis=0) >= STD_FLOOR):
        col = X[:, j]
        lo = grid[max(best_idx[j] - 1, 0)]
        hi = grid[min(best_idx[j] + 1, len(grid) - 1)]
        lambdas[j] = _golden_section(lambda lam: boxcox_loglik(col, lam), lo, hi, tol)
    return lambdas


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


@dataclass(frozen=True)
class FeatureTransformer:
    """Fitted per-feature Box-Cox exponents and standardization statistics."""

    lambdas: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    epsilon: float = MIN_RANGE_M

    def __post_init__(self):
        for arr in (self.lambdas, self.means, self.stds):
            if arr.shape != (NUM_BEAMS,):
                raise DimensionError(
                    f"transformer parameters must have shape ({NUM_BEAMS},)"
                )
            arr.setflags(write=False)

    def transform_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.clip(np.asarray(X, dtype=np.float64), self.epsilon, None)
        return (_boxcox_columns(X, self.lambdas) - self.means) / self.stds

    def transform(self, v: np.ndarray) -> np.ndarray:
        return self.transform_matrix(np.asarray(v, dtype=np.float64)[None, :])[0]

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "lambdas": self.lambdas.tolist(),
            "means": self.means.tolist(),
            "stds": self.stds.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FeatureTransformer":
        return cls(
            lambdas=np.asarray(payload["lambdas"], dtype=np.float64),
            means=np.asarray(payload["means"], dtype=np.float64),
            stds=np.asarray(payload["stds"], dtype=np.float64),
            epsilon=float(payload["epsilon"]),
        )


def _boxcox_columns(X: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """boxcox_apply of every column of X with its own exponent."""
    out = np.empty_like(X)
    zero = lambdas == 0.0
    out[:, zero] = np.log(X[:, zero])
    out[:, ~zero] = (np.power(X[:, ~zero], lambdas[~zero]) - 1.0) / lambdas[~zero]
    return out


def fit_feature_transformer(X: np.ndarray) -> FeatureTransformer:
    """Fit exponents and standardization statistics column by column.

    Training rows only; values below the sensor floor are clipped up to it.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != NUM_BEAMS:
        raise DimensionError(f"expected an (n, {NUM_BEAMS}) feature matrix")
    if X.shape[0] < 3:
        raise InsufficientDataError("need at least 3 training rows")
    X = np.clip(X, MIN_RANGE_M, None)
    lambdas = _fit_lambdas(X)
    transformed = _boxcox_columns(X, lambdas)
    means = transformed.mean(axis=0)
    stds = np.maximum(transformed.std(axis=0), STD_FLOOR)
    return FeatureTransformer(lambdas=lambdas, means=means, stds=stds)
