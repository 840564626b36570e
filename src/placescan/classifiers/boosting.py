"""Multiclass AdaBoost over depth-1 CART stumps (SAMME weighting).

Round weight is ln((1-err)/err) + ln(K-1). Rounds whose weighted error
reaches the multiclass chance bound 1 - 1/K are rejected and training
halts with the model built so far; a zero-error round gets a capped weight
and also halts training.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import NUM_CLASSES
from .trees import TreeNode, fit_tree, predict_tree_proba

ALPHA_CAP = np.log(1e10)
_ZERO_ERR = 1e-12


def adaboost_round(X: np.ndarray, y: np.ndarray, weights: np.ndarray):
    """One boosting round: weighted stump, its weight, updated sample weights.

    Returns (stump, alpha, new_weights, status) with status one of
    'ok', 'perfect' (err = 0, keep stump, stop) or 'rejected' (err at or
    above chance, discard stump, stop).
    """
    stump = fit_tree(X, y, sample_weight=weights, max_depth=1)
    pred = np.array(
        [int(np.argmax(predict_tree_proba(stump, x))) for x in X], dtype=np.int64
    )
    miss = pred != y
    err = float(weights[miss].sum())
    if err < _ZERO_ERR:
        return stump, float(ALPHA_CAP), weights, "perfect"
    if err >= 1.0 - 1.0 / NUM_CLASSES:
        return stump, 0.0, weights, "rejected"
    alpha = float(np.log((1.0 - err) / err) + np.log(NUM_CLASSES - 1.0))
    new_weights = weights * np.exp(alpha * miss)
    new_weights = new_weights / new_weights.sum()
    return stump, alpha, new_weights, "ok"


@dataclass
class AdaBoostModel:
    stumps: list[TreeNode]
    alphas: list[float]

    def scores(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        s = np.zeros((X.shape[0], NUM_CLASSES))
        for stump, alpha in zip(self.stumps, self.alphas):
            for i in range(X.shape[0]):
                k = int(np.argmax(predict_tree_proba(stump, X[i])))
                s[i, k] += alpha
        return s

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        s = self.scores(X)
        s = s - s.max(axis=1, keepdims=True)
        e = np.exp(s)
        return e / e.sum(axis=1, keepdims=True)

    def to_dict(self) -> dict:
        return {
            "alphas": list(self.alphas),
            "stumps": [s.to_dict() for s in self.stumps],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AdaBoostModel":
        return cls(
            stumps=[TreeNode.from_dict(s) for s in payload["stumps"]],
            alphas=[float(a) for a in payload["alphas"]],
        )


def train_adaboost(
    X: np.ndarray,
    y: np.ndarray,
    *,
    rounds: int = 200,
) -> AdaBoostModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    weights = np.full(X.shape[0], 1.0 / X.shape[0])
    stumps: list[TreeNode] = []
    alphas: list[float] = []
    for _ in range(rounds):
        stump, alpha, weights, status = adaboost_round(X, y, weights)
        if status == "rejected":
            break
        stumps.append(stump)
        alphas.append(alpha)
        if status == "perfect":
            break
    return AdaBoostModel(stumps=stumps, alphas=alphas)
