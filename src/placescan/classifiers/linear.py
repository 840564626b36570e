"""Multinomial softmax regression trained by full-batch gradient descent.

Zero initialization, L2 penalty on the weight matrix (not the intercept),
backtracking line search on each step, stopping at a small gradient
infinity-norm or the iteration cap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import NUM_CLASSES


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def logreg_loss_grad(W, b, X, Y, l2):
    """Mean cross-entropy plus (l2/2)||W||^2 and its exact gradient."""
    n = X.shape[0]
    P = softmax(X @ W + b)
    eps = 1e-300
    loss = -np.sum(Y * np.log(np.maximum(P, eps))) / n + 0.5 * l2 * np.sum(W * W)
    D = (P - Y) / n
    gW = X.T @ D + l2 * W
    gb = D.sum(axis=0)
    return float(loss), gW, gb


@dataclass
class LogRegModel:
    W: np.ndarray
    b: np.ndarray
    converged: bool = True

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return softmax(X @ self.W + self.b)

    def to_dict(self) -> dict:
        return {
            "W": self.W.tolist(),
            "b": self.b.tolist(),
            "converged": self.converged,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LogRegModel":
        return cls(
            W=np.asarray(payload["W"], dtype=np.float64),
            b=np.asarray(payload["b"], dtype=np.float64),
            converged=bool(payload["converged"]),
        )


def train_logreg(
    X: np.ndarray,
    y: np.ndarray,
    *,
    l2: float = 1e-4,
    max_iter: int = 2000,
    grad_tol: float = 1e-6,
) -> LogRegModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    Y = np.eye(NUM_CLASSES)[y]
    W = np.zeros((d, NUM_CLASSES))
    b = np.zeros(NUM_CLASSES)

    loss, gW, gb = logreg_loss_grad(W, b, X, Y, l2)
    converged = False
    step = 1.0
    for _ in range(max_iter):
        gnorm = max(np.abs(gW).max(), np.abs(gb).max())
        if gnorm < grad_tol:
            converged = True
            break
        g2 = float(np.sum(gW * gW) + np.sum(gb * gb))
        # Armijo backtracking, warm-started from the previous accepted step
        step = min(step * 2.0, 1e4)
        while step > 1e-12:
            W_new = W - step * gW
            b_new = b - step * gb
            loss_new, gW_new, gb_new = logreg_loss_grad(W_new, b_new, X, Y, l2)
            if loss_new <= loss - 1e-4 * step * g2:
                break
            step *= 0.5
        W, b, loss, gW, gb = W_new, b_new, loss_new, gW_new, gb_new
    return LogRegModel(W=W, b=b, converged=converged)
