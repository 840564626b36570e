"""Kernel SVM trained by sequential minimal optimization, one-vs-rest.

The binary dual is solved by SMO with the classic two-multiplier analytic
update; the partner multiplier is chosen by the maximum |E_i - E_j|
heuristic, which keeps the solver deterministic. Multiclass prediction is
a softmax over the four one-vs-rest decision values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import NUM_BEAMS, NUM_CLASSES

DEFAULT_C = 1.0
DEFAULT_DEGREE = 3
DEFAULT_COEF0 = 0.0
DEFAULT_TOL = 1e-3
DEFAULT_SWEEP_LIMIT = 2000


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
    X = np.asarray(X, dtype=np.float64)
    var = float(X.var())
    if var <= 0:
        var = 1.0
    return 1.0 / (X.shape[1] * var)


def smo_solve(
    K: np.ndarray,
    y: np.ndarray,
    C: float = DEFAULT_C,
    tol: float = DEFAULT_TOL,
    sweep_limit: int = DEFAULT_SWEEP_LIMIT,
):
    """Solve the binary SVM dual for a precomputed kernel matrix.

    Returns (alphas, bias, converged). Sweeps over all points, updating
    KKT-violating pairs analytically, until a full sweep makes no progress
    or the sweep limit is hit.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    state = {
        "alpha": np.zeros(n),
        "b": 0.0,
        "f": np.zeros(n),  # decision values minus bias, kept incrementally
    }

    def try_pair(i: int, j: int) -> bool:
        alpha, b, f = state["alpha"], state["b"], state["f"]
        if i == j:
            return False
        Ei = f[i] + b - y[i]
        Ej = f[j] + b - y[j]
        ai_old, aj_old = alpha[i], alpha[j]
        if y[i] != y[j]:
            L = max(0.0, aj_old - ai_old)
            H = min(C, C + aj_old - ai_old)
        else:
            L = max(0.0, ai_old + aj_old - C)
            H = min(C, ai_old + aj_old)
        if H - L < 1e-12:
            return False
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta <= 1e-12:
            return False
        aj = aj_old + y[j] * (Ei - Ej) / eta
        aj = min(max(aj, L), H)
        if abs(aj - aj_old) < 1e-10:
            return False
        ai = ai_old + y[i] * y[j] * (aj_old - aj)
        alpha[i], alpha[j] = ai, aj
        di = y[i] * (ai - ai_old)
        dj = y[j] * (aj - aj_old)
        state["f"] = f + di * K[i] + dj * K[j]
        b1 = b - Ei - di * K[i, i] - dj * K[i, j]
        b2 = b - Ej - di * K[i, j] - dj * K[j, j]
        if 0.0 < ai < C:
            state["b"] = b1
        elif 0.0 < aj < C:
            state["b"] = b2
        else:
            state["b"] = (b1 + b2) / 2.0
        return True

    converged = False
    for _ in range(sweep_limit):
        changed = 0
        for i in range(n):
            alpha, b, f = state["alpha"], state["b"], state["f"]
            Ei = f[i] + b - y[i]
            r = y[i] * Ei
            if not ((r < -tol and alpha[i] < C) or (r > tol and alpha[i] > 0)):
                continue
            E = f + b - y
            # preferred partner: largest |E_i - E_j|; fall back to scanning
            order = np.argsort(-np.abs(E - Ei), kind="stable")
            for j in order:
                if try_pair(i, int(j)):
                    changed += 1
                    break
        if changed == 0:
            converged = _kkt_satisfied(
                state["alpha"], y, state["f"] + state["b"], C, tol
            )
            break
    return state["alpha"], state["b"], converged


def _kkt_satisfied(alpha, y, decision, C, tol):
    margin = y * decision
    at_zero = alpha <= 1e-9
    at_cap = alpha >= C - 1e-9
    free = ~at_zero & ~at_cap
    ok = np.ones_like(alpha, dtype=bool)
    ok &= np.where(at_zero, margin >= 1.0 - tol, True)
    ok &= np.where(free, np.abs(margin - 1.0) <= tol, True)
    ok &= np.where(at_cap, margin <= 1.0 + tol, True)
    return bool(np.all(ok))


def dual_objective(K, y, alpha) -> float:
    v = alpha * y
    return float(alpha.sum() - 0.5 * v @ K @ v)


@dataclass
class SvmModel:
    """One-vs-rest polynomial-kernel SVM."""

    support_vectors: list[np.ndarray]  # per class: (m, d) matrix
    coefficients: list[np.ndarray]  # per class: alpha_i * y_i
    biases: list[float]
    gamma: float
    coef0: float = DEFAULT_COEF0
    degree: int = DEFAULT_DEGREE
    converged: list[bool] = field(default_factory=list)

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.empty((X.shape[0], NUM_CLASSES))
        for c in range(NUM_CLASSES):
            sv = self.support_vectors[c]
            if sv.shape[0] == 0:
                out[:, c] = self.biases[c]
                continue
            Kx = poly_kernel(X, sv, self.gamma, self.coef0, self.degree)
            out[:, c] = Kx @ self.coefficients[c] + self.biases[c]
        return out

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        s = self.decision_values(X)
        s = s - s.max(axis=1, keepdims=True)
        e = np.exp(s)
        return e / e.sum(axis=1, keepdims=True)

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "coef0": self.coef0,
            "degree": self.degree,
            "converged": list(self.converged),
            "machines": [
                {
                    "support_vectors": self.support_vectors[c].tolist(),
                    "coefficients": self.coefficients[c].tolist(),
                    "bias": self.biases[c],
                }
                for c in range(NUM_CLASSES)
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SvmModel":
        machines = payload["machines"]
        return cls(
            support_vectors=[
                # a machine without support vectors is written as []
                np.asarray(m["support_vectors"] or np.empty((0, NUM_BEAMS)), np.float64)
                for m in machines
            ],
            coefficients=[
                np.asarray(m["coefficients"], dtype=np.float64) for m in machines
            ],
            biases=[float(m["bias"]) for m in machines],
            gamma=float(payload["gamma"]),
            coef0=float(payload["coef0"]),
            degree=int(payload["degree"]),
            converged=[bool(v) for v in payload["converged"]],
        )


def train_svm(
    X: np.ndarray,
    y: np.ndarray,
    *,
    C: float = DEFAULT_C,
    degree: int = DEFAULT_DEGREE,
    coef0: float = DEFAULT_COEF0,
    gamma: float | None = None,
    tol: float = DEFAULT_TOL,
) -> SvmModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if gamma is None:
        gamma = default_gamma(X)
    K = poly_kernel(X, X, gamma, coef0, degree)
    support_vectors, coefficients, biases, converged = [], [], [], []
    for c in range(NUM_CLASSES):
        yb = np.where(y == c, 1.0, -1.0)
        if np.all(yb == yb[0]):
            # class absent (or alone): constant decision at the shared sign
            support_vectors.append(np.empty((0, X.shape[1])))
            coefficients.append(np.empty(0))
            biases.append(float(yb[0]))
            converged.append(True)
            continue
        alpha, b, conv = smo_solve(K, yb, C=C, tol=tol)
        sv_mask = alpha > 1e-12
        support_vectors.append(X[sv_mask])
        coefficients.append(alpha[sv_mask] * yb[sv_mask])
        biases.append(b)
        converged.append(conv)
    return SvmModel(
        support_vectors=support_vectors,
        coefficients=coefficients,
        biases=biases,
        gamma=gamma,
        coef0=coef0,
        degree=degree,
        converged=converged,
    )
