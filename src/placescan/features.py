"""Per-feature power transform and standardization, fitted on training data.

Each of the 271 distance features is passed through a Box-Cox transform
with its own exponent, estimated by maximizing the profile log-likelihood
LL(lam) = -(n/2) ln var(t(x; lam)) + (lam - 1) sum(ln x), then centered and
scaled to unit variance using statistics of the transformed training
column. Constant columns get lam = 1 and a guarded scale so no division by
zero can occur. The transform is computed as expm1(lam ln x)/lam, which,
unlike (x^lam - 1)/lam, does not cancel as lam nears zero (Higham 2002).

The fit runs over blocks of columns, each transposed to a C-contiguous
`(cols, n)` array of at most `_BLOCK_ELEMENTS` values. In a block, a
golden-section search (Kiefer 1953) over the whole of [-5, 5] refines all
columns in lockstep. The profile log-likelihood is concave in lam (Kouider &
Chen 1995), so the search needs no bracket of its own; and since every
column starts from the same interval and each step narrows it by the same
factor, all columns stop together, after the fixed number of steps that
takes the interval below the tolerance. Every step calls one
log-likelihood kernel, which reduces each column along its contiguous row in
the order `boxcox_loglik` reduces a 1-D column, so each exponent is
bit-for-bit the one a search on that column alone finds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NUM_BEAMS, Float64s, beam_rows, stored
from .errors import DegenerateFeatureError, DimensionError, InsufficientDataError

LAMBDA_MIN = -5.0
LAMBDA_MAX = 5.0
LAMBDA_TOL = 1e-4
STD_FLOOR = 1e-12
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
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
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
    share one `_loglik_kernel`. Golden-section search runs for every row in
    lockstep from [LAMBDA_MIN, LAMBDA_MAX]: each row keeps its own bracket
    a, b, its points c, d and their log-likelihoods, and every step narrows
    each bracket by the same factor and evaluates one new point per row. So
    every row takes the same number of steps, the fewest that narrow the
    whole range below `LAMBDA_TOL` (24 at 1e-4, so 26 kernel calls per block).
    """
    n, width = X.shape
    lambdas = np.ones(width)
    columns = np.flatnonzero(np.ptp(X, axis=0) >= STD_FLOOR)
    per_block = max(1, _BLOCK_ELEMENTS // n)
    steps = math.ceil(math.log(LAMBDA_TOL / (LAMBDA_MAX - LAMBDA_MIN), _INV_PHI))
    for start in range(0, columns.size, per_block):
        block = columns[start:start + per_block]
        loglik = _loglik_kernel(np.ascontiguousarray(X.T[block]))
        a, b = np.full(block.size, LAMBDA_MIN), np.full(block.size, LAMBDA_MAX)
        c = b - _INV_PHI * (b - a)
        d = a + _INV_PHI * (b - a)
        fc, fd = loglik(c), loglik(d)
        for _ in range(steps):
            left = fc >= fd  # the optimum lies in [a, d]
            a, b = np.where(left, a, c), np.where(left, d, b)
            new = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
            c, d = np.where(left, new, d), np.where(left, c, new)
            f = loglik(new)
            fc, fd = np.where(left, f, fd), np.where(left, fc, f)
        lambdas[block] = (a + b) / 2.0
        del loglik  # free this block's rows and buffer before the next is built
    return lambdas


def _loglik_kernel(rows: np.ndarray):
    """The log-likelihood kernel of a C-contiguous `(cols, n)` block.

    `loglik(lam)` is `boxcox_loglik(rows[i], lam[i])` for every row i, bit
    for bit: the transform takes boxcox_apply's steps and the reductions run
    along contiguous rows, as they do for a 1-D column, in one `(cols, n)`
    buffer reused by every call. `rows` is overwritten with its logarithms,
    which every call starts from.
    """
    n = rows.shape[1]
    logs = np.log(rows, out=rows)
    log_sums = logs.sum(axis=1)
    t = np.empty_like(logs)

    def loglik(lam: np.ndarray) -> np.ndarray:
        zero = lam == 0.0
        np.multiply(logs, lam[:, None], out=t)
        np.expm1(t, out=t)
        np.divide(t, np.where(zero, 1.0, lam)[:, None], out=t)
        if zero.any():
            t[zero] = logs[zero]
        # np.var's own steps, in place
        mean = t.sum(axis=1, keepdims=True)
        mean /= n
        np.subtract(t, mean, out=t)
        np.square(t, out=t)
        var = t.sum(axis=1) / n
        ll = -(n / 2.0) * np.log(np.where(var > 0.0, var, 1.0)) + (lam - 1.0) * log_sums
        ll[~(var > 0.0)] = -math.inf  # NaN too, as boxcox_loglik
        return ll

    return loglik


@dataclass(frozen=True)
class FeatureTransformer:
    """Fitted per-feature Box-Cox exponents and standardization statistics."""

    lambdas: Float64s
    means: Float64s
    stds: Float64s

    def __post_init__(self):
        for arr in (self.lambdas, self.means, self.stds):
            if arr.shape != (NUM_BEAMS,):
                raise DimensionError(
                    f"transformer parameters must have shape ({NUM_BEAMS},)"
                )
            arr.setflags(write=False)
        if not np.all(self.stds > 0.0):
            raise ValueError("transformer stds must be positive")

    def transform_matrix(self, X) -> np.ndarray:
        """The (n, 271) standardised features of one raw scan or a matrix of
        raw scans, imputed first as `validate_scan` does (`core.beam_rows`)."""
        X = beam_rows(np.atleast_2d(X), 2)
        return (_boxcox_columns(X, self.lambdas) - self.means) / self.stds

    def to_dict(self) -> dict:
        """The model-file section: `core.stored`."""
        return stored(self)


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

    Training rows only, which must be finite; they are clipped into the
    sensor envelope.
    """
    return fit_and_transform(X)[0]


def fit_and_transform(X: np.ndarray) -> tuple[FeatureTransformer, np.ndarray]:
    """`fit_feature_transformer(X)`, and X through it: bit for bit the
    transformer's `transform_matrix(X)`, standardised in place from the
    fit's own Box-Cox matrix."""
    rows = beam_rows(X, 2)
    if rows.shape[0] < 3:
        raise InsufficientDataError("need at least 3 training rows")
    if not np.all(np.isfinite(X)):
        raise ValueError("feature values must be finite")
    lambdas = _fit_lambdas(rows)
    transformed = _boxcox_columns(rows, lambdas)
    del rows  # the clipped copy: the statistics' temporaries may take its place
    means = transformed.mean(axis=0)
    stds = np.maximum(transformed.std(axis=0), STD_FLOOR)
    transformed -= means
    transformed /= stds
    return FeatureTransformer(lambdas=lambdas, means=means, stds=stds), transformed
