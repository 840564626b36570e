"""Per-feature power transform and standardization, fitted on training data.

Each of the 271 distance features is passed through a Box-Cox transform
with its own exponent, estimated by maximizing the profile log-likelihood
LL(lam) = -(n/2) ln var(t(x; lam)) + (lam - 1) sum(ln x), then centered and
scaled to unit variance using statistics of the transformed training
column. Constant columns get lam = 1 and a guarded scale so no division by
zero can occur. The transform is computed as expm1(lam ln x)/lam, which,
unlike (x^lam - 1)/lam, does not cancel as lam nears zero (Higham 2002).

The fit runs over blocks of columns, each transposed to a C-contiguous
`(cols, n)` array of at most `_BLOCK_ELEMENTS` values. In a block, each
column's first maximum over the 101-point grid -5, -4.9, ..., 5 brackets its
optimum, and a golden-section search (Kiefer 1953) refines all columns in
lockstep; every column keeps its own bracket and stops when it is narrower
than the tolerance. The grid maximum is found coarse to fine: every tenth
point first, then the eighteen points around the best of them. The profile
log-likelihood is concave in lam (Kouider & Chen 1995), so the first maximum
lies within nine points of the best coarse point, and the search returns
the index a scan of all 101 points returns.
Every stage calls one log-likelihood kernel, which reduces each column
along its contiguous row in the order `boxcox_loglik` reduces a 1-D column,
so each exponent is bit-for-bit the one a search on that column alone finds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MIN_RANGE_M, NUM_BEAMS, unpack
from .errors import DegenerateFeatureError, DimensionError, InsufficientDataError
from .hyperparams import POSITIVE

LAMBDA_MIN = -5.0
LAMBDA_MAX = 5.0
LAMBDA_TOL = 1e-4
STD_FLOOR = 1e-12
_COARSE_STEP = 0.1
_GRID = np.arange(LAMBDA_MIN, LAMBDA_MAX + _COARSE_STEP / 2, _COARSE_STEP)
_SPACING = 10  # the grid search's coarse pass takes every tenth point
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# elements of one (cols, n) block of the lockstep golden section: 1 MiB
_BLOCK_ELEMENTS = 1 << 17


def boxcox_apply(x, lam: float):
    """Box-Cox transform: expm1(lam ln x)/lam for lam != 0, ln x at lam = 0."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise ValueError("Box-Cox transform requires strictly positive inputs")
    out = np.log(x)
    if lam != 0.0:
        out = np.expm1(out * lam) / lam
    return out if out.ndim else float(out)


def boxcox_inverse(y, lam: float):
    """Analytic inverse of boxcox_apply: exp(log1p(lam y)/lam) for lam != 0,
    exp y at lam = 0; raises outside the image domain."""
    y = np.asarray(y, dtype=np.float64)
    if lam == 0.0:
        out = np.exp(y)
    else:
        scaled = lam * y
        if np.any(scaled <= -1.0):
            raise ValueError("value outside the Box-Cox image for this exponent")
        out = np.exp(np.log1p(scaled) / lam)
    return out if out.ndim else float(out)


def boxcox_loglik(samples: np.ndarray, lam: float) -> float:
    """Profile log-likelihood of the Box-Cox exponent for one sample set."""
    samples = np.asarray(samples, dtype=np.float64)
    transformed = boxcox_apply(samples, lam)
    var = float(np.var(transformed))
    if not var > 0.0:
        return -math.inf
    n = samples.shape[0]
    return float(-(n / 2.0) * np.log(var) + (lam - 1.0) * np.sum(np.log(samples)))


def fit_boxcox_lambda(samples) -> float:
    """Maximum-likelihood Box-Cox exponent over [-5, 5], to absolute `LAMBDA_TOL`."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[0] < 3:
        raise InsufficientDataError("need at least 3 samples to fit the exponent")
    if np.any(samples <= 0.0):
        raise ValueError("samples must be strictly positive")
    if float(np.ptp(samples)) < STD_FLOOR:
        raise DegenerateFeatureError("all samples are equal; exponent is undefined")
    return float(_fit_lambdas(samples[:, None])[0])


def _fit_lambdas(X: np.ndarray) -> np.ndarray:
    """Maximum-likelihood exponent of every column of a positive matrix.

    Constant columns get 1. The others are fitted over blocks of whole
    columns holding at most `_BLOCK_ELEMENTS` values (a 96-row matrix is one
    block), each transposed to a C-contiguous `(cols, n)` array whose rows
    share one `_loglik_kernel`. The first maximum of a row's log-likelihood
    over `_GRID` (the one a strict `>` scan keeps) brackets its optimum
    between the grid points either side. `_grid_maximum` finds it coarse to
    fine from at most 29 of the 101 points, exactly because the
    log-likelihood is concave.
    Golden-section search then runs for every row in lockstep: each row
    keeps its own points c, d and their log-likelihoods, and every step
    moves each row whose bracket is still wider than `LAMBDA_TOL` and
    evaluates one new point for it.
    """
    n, width = X.shape
    lambdas = np.ones(width)
    columns = np.flatnonzero(np.ptp(X, axis=0) >= STD_FLOOR)
    per_block = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, columns.size, per_block):
        block = columns[start:start + per_block]
        loglik = _loglik_kernel(np.ascontiguousarray(X.T[block]))
        every = np.arange(block.size)
        best = _grid_maximum(loglik, block.size)
        a = _GRID[np.maximum(best - 1, 0)]
        b = _GRID[np.minimum(best + 1, _GRID.size - 1)]
        c = b - _INV_PHI * (b - a)
        d = a + _INV_PHI * (b - a)
        fc, fd = loglik(c, every), loglik(d, every)
        while (live := np.flatnonzero(b - a > LAMBDA_TOL)).size:
            left = fc[live] >= fd[live]  # the optimum lies in [a, d]
            lft, rgt = live[left], live[~left]
            b[lft], d[lft], fd[lft] = d[lft], c[lft], fc[lft]
            a[rgt], c[rgt], fc[rgt] = c[rgt], d[rgt], fd[rgt]
            c[lft] = b[lft] - _INV_PHI * (b[lft] - a[lft])
            d[rgt] = a[rgt] + _INV_PHI * (b[rgt] - a[rgt])
            f = loglik(np.where(left, c[live], d[live]), live)
            fc[lft], fd[rgt] = f[left], f[~left]
        lambdas[block] = (a + b) / 2.0
        del loglik  # free this block's rows and buffer before the next is built
    return lambdas


def _grid_maximum(loglik, k: int) -> np.ndarray:
    """Each of k rows' first maximum over `_GRID`, as a grid index.

    A coarse pass evaluates every tenth point and takes each row's first
    maximum c. A concave sequence rises strictly up to its first maximum
    and never rises after it, and the coarse points are ten apart, so that
    maximum lies in c-9..c+9: a fine pass evaluates the other points of
    that window, each row at its own exponents. The first maximum over
    every evaluated point is then the one a scan of all 101 points finds,
    in at most 29 calls.
    """
    every = np.arange(k)
    ll = np.full((_GRID.size, k), -math.inf)
    for i in range(0, _GRID.size, _SPACING):
        ll[i] = loglik(np.full(k, _GRID[i]), every)
    coarse = np.argmax(ll, axis=0)
    for offset in (*range(1 - _SPACING, 0), *range(1, _SPACING)):
        i = coarse + offset
        live = np.flatnonzero((i >= 0) & (i < _GRID.size))
        if live.size:
            ll[i[live], live] = loglik(_GRID[i[live]], live)
    return np.argmax(ll, axis=0)


def _loglik_kernel(rows: np.ndarray):
    """The log-likelihood kernel of a C-contiguous `(cols, n)` block.

    `loglik(lam, live)` is `boxcox_loglik(rows[live[i]], lam[i])` for every
    i, bit for bit: the transform takes boxcox_apply's steps and the
    reductions run along contiguous rows, as they do for a 1-D column, in
    one `(cols, n)` buffer reused by every call. `rows` is overwritten with
    its logarithms, which every call starts from.
    """
    k, n = rows.shape
    logs = np.log(rows, out=rows)
    log_sums = logs.sum(axis=1)
    work = np.empty_like(logs)

    def loglik(lam: np.ndarray, live: np.ndarray) -> np.ndarray:
        t = work[:live.size]
        # a subset of rows is gathered into the buffer itself ("clip" takes
        # no temporary copy; every index is in range)
        x = logs if live.size == k else np.take(logs, live, axis=0, out=t, mode="clip")
        zero = lam == 0.0
        np.multiply(x, lam[:, None], out=t)
        np.expm1(t, out=t)
        t /= np.where(zero, 1.0, lam)[:, None]
        if zero.any():
            t[zero] = logs[live[zero]]
        # np.var's own steps, in place
        mean = t.sum(axis=1, keepdims=True)
        mean /= n
        t -= mean
        np.square(t, out=t)
        var = t.sum(axis=1) / n
        ll = -(n / 2.0) * np.log(np.where(var > 0.0, var, 1.0)) + (lam - 1.0) * log_sums[live]
        ll[~(var > 0.0)] = -math.inf  # NaN too: a strict `>` scan never keeps it
        return ll

    return loglik


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
        if not np.all(self.stds > 0.0):
            raise ValueError("transformer stds must be positive")
        POSITIVE.check("transformer epsilon", self.epsilon)

    def transform_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.clip(np.asarray(X, dtype=np.float64), self.epsilon, None)
        return (_boxcox_columns(X, self.lambdas) - self.means) / self.stds

    def transform(self, v: np.ndarray) -> np.ndarray:
        return self.transform_matrix(np.asarray(v, dtype=np.float64)[None, :])[0]

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "lambdas": self.lambdas,
            "means": self.means,
            "stds": self.stds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FeatureTransformer":
        return cls(
            lambdas=unpack(payload, "lambdas", np.float64),
            means=unpack(payload, "means", np.float64),
            stds=unpack(payload, "stds", np.float64),
            epsilon=payload["epsilon"],
        )


def _boxcox_columns(X: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """boxcox_apply of every column of X with its own exponent."""
    zero = lambdas == 0.0
    out = np.log(X)
    logs = out[:, zero]
    out *= lambdas
    np.expm1(out, out=out)
    out /= np.where(zero, 1.0, lambdas)
    out[:, zero] = logs
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
