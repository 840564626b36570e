"""Kernel SVM trained by sequential minimal optimization, one-vs-rest.

The binary dual is solved by SMO with the second-order working-set rule
of Fan, Chen & Lin (JMLR 6, 2005), the LIBSVM solver: i is the maximal
violator in I_up, j the I_low member whose pair with i decreases the dual
most, and the solver stops once the maximal violating pair's gap m - M is
below `tol`. Ties go to the lowest index, so training is deterministic.
Multiclass prediction is a softmax over the four one-vs-rest decision
values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import NUM_CLASSES, Float64s
from ..hyperparams import (
    FLAG, POSITIVE, Count, Positive, PositiveOrNone, Real, check_params, checked,
)
from .linear import softmax

DEFAULT_C = 1.0
DEFAULT_DEGREE = 3
DEFAULT_COEF0 = 0.0
DEFAULT_TOL = 1e-3
# iteration cap, as in LIBSVM: max(MAX_ITER, MAX_ITER_PER_ROW * n)
MAX_ITER = 10**7
MAX_ITER_PER_ROW = 100


def poly_kernel(
    X: np.ndarray,
    Z: np.ndarray,
    gamma: float,
    coef0: float = DEFAULT_COEF0,
    degree: int = DEFAULT_DEGREE,
) -> np.ndarray:
    """(gamma <x, z> + coef0)^degree, broadcast over row pairs."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    return np.power(gamma * (X @ Z.T) + coef0, degree)


def default_gamma(X: np.ndarray) -> float:
    """1 / (n_features * overall variance), the 'scale' convention."""
    var = float(X.var())
    if var <= 0:
        var = 1.0
    return 1.0 / (X.shape[1] * var)


def smo_solve(
    K: np.ndarray,
    y: np.ndarray,
    C: float = DEFAULT_C,
    tol: float = DEFAULT_TOL,
):
    """Solve the binary SVM dual for a precomputed kernel matrix.

    `y` holds both labels, +1 and -1. Returns (alphas, bias, converged):
    `converged` is True once the maximal violating pair's gap m - M is
    below `tol`, and False if the iteration cap stops the loop first. A
    `K` that is not finite (an overflowed kernel) raises ValueError.
    """
    K = np.asarray(K, dtype=np.float64)
    if not np.isfinite(K).all():
        raise ValueError("the svm kernel matrix is not finite: the kernel overflows float64")
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    # signed multipliers v = alpha * y live in [lo, hi]; a step moves
    # v_i up and v_j down by the same amount, which keeps sum(v) at 0
    hi = np.where(y > 0, C, 0.0)
    lo = hi - C
    v = np.zeros(n)
    r = y.copy()  # y - K @ v, i.e. -y * (gradient of the dual)
    diag = K.diagonal()
    max_iter = max(MAX_ITER, MAX_ITER_PER_ROW * n)
    for it in range(max_iter + 1):
        i = int(np.argmax(np.where(v < hi, r, -np.inf)))
        low = v > lo
        m, M = r[i], np.min(np.where(low, r, np.inf))
        converged = m - M < tol
        if converged or it == max_iter:
            break
        # second-order choice of j: the largest decrease of the dual
        gap = m - r
        curvature = np.maximum(diag[i] + diag - 2.0 * K[i], 1e-12)
        gain = np.where(low & (gap > 0), gap * gap / curvature, -np.inf)
        j = int(np.argmax(gain))
        room_i, room_j = hi[i] - v[i], v[j] - lo[j]
        step = min(gap[j] / curvature[j], room_i, room_j)
        # a step stopped by a bound lands on it exactly
        v[i] = hi[i] if step == room_i else v[i] + step
        v[j] = lo[j] if step == room_j else v[j] - step
        r -= step * (K[i] - K[j])
    free = (v > lo) & (v < hi)
    bias = float(np.mean(r[free])) if free.any() else float(m + M) / 2.0
    return v * y, bias, bool(converged)


def dual_objective(K, y, alpha) -> float:
    v = alpha * y
    return float(alpha.sum() - 0.5 * v @ K @ v)


@dataclass
class SvmModel:
    """One-vs-rest polynomial-kernel SVM. As in LIBSVM, the four machines
    share one matrix of the rows that support any of them, and column c of
    `coefficients` holds machine c's alpha_i * y_i, exactly 0 off its support."""

    support_vectors: Float64s  # (m, d)
    coefficients: Float64s  # (m, NUM_CLASSES)
    biases: Float64s  # (NUM_CLASSES,)
    converged: list[bool]
    gamma: float
    coef0: float = DEFAULT_COEF0
    degree: int = DEFAULT_DEGREE

    def __post_init__(self):
        sv = self.support_vectors
        if sv.ndim != 2 or self.coefficients.shape != (sv.shape[0], NUM_CLASSES):
            raise ValueError(f"an svm needs an (m, d) support-vector matrix and "
                             f"(m, {NUM_CLASSES}) coefficients")
        if self.biases.shape != (NUM_CLASSES,) or len(self.converged) != NUM_CLASSES:
            raise ValueError(f"an svm needs {NUM_CLASSES} biases and converged flags")
        for converged in self.converged:
            FLAG.check("svm model converged", converged)
        # a fitted gamma is a number: None is train_svm's "pick a default"
        POSITIVE.check("svm model gamma", self.gamma)
        # coef0 and degree are train_svm's arguments, in its domains
        check_params("svm model", train_svm, vars(self))

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        K = poly_kernel(X, self.support_vectors, self.gamma, self.coef0, self.degree)
        return K @ self.coefficients + self.biases

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.decision_values(X))


@checked
def train_svm(
    X: np.ndarray,
    y: np.ndarray,
    *,
    C: Positive = DEFAULT_C,
    degree: Count = DEFAULT_DEGREE,
    coef0: Real = DEFAULT_COEF0,
    gamma: PositiveOrNone = None,
    tol: Positive = DEFAULT_TOL,
) -> SvmModel:
    if gamma is None:
        gamma = default_gamma(X)
    K = poly_kernel(X, X, gamma, coef0, degree)
    coefficients = np.zeros((X.shape[0], NUM_CLASSES))
    biases = np.empty(NUM_CLASSES)
    converged = [True] * NUM_CLASSES
    for c in range(NUM_CLASSES):
        yb = np.where(y == c, 1.0, -1.0)
        if np.all(yb == yb[0]):
            # class absent (or alone): constant decision at the shared sign
            biases[c] = yb[0]
            continue
        alpha, biases[c], converged[c] = smo_solve(K, yb, C=C, tol=tol)
        coefficients[:, c] = np.where(alpha > 1e-12, alpha * yb, 0.0)
    support = coefficients.any(axis=1)
    return SvmModel(
        support_vectors=X[support],
        coefficients=coefficients[support],
        biases=biases,
        gamma=gamma,
        coef0=coef0,
        degree=degree,
        converged=converged,
    )
