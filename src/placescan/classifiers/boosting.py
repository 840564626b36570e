"""Multiclass AdaBoost over depth-1 CART stumps (SAMME weighting).

Round weight is ln((1-err)/err) + ln(K-1). Rounds whose weighted error
reaches the multiclass chance bound 1 - 1/K are rejected and training
halts with the model built so far; a zero-error round gets a capped weight
and also halts training.

Every round fits its stump to the same rows under new weights, so the
feature columns are sorted once per fit (`trees._sort_columns`) and each
round's root split reuses that sort, gathering only the weights into it.

The stumps are one `trees.TreeArrays` ensemble (depth-1 trees: a root and
its two leaves, or a lone leaf). A stump votes its leaf's argmax class, and
a class's score is the sum of the alphas of the stumps voting for it, added
in stump order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import NUM_CLASSES, Float64s
from ..hyperparams import Count, checked
from .linear import softmax
from .trees import TreeArrays, _sort_columns, fit_tree

ALPHA_CAP = np.log(1e10)
_ZERO_ERR = 1e-12


def adaboost_round(X: np.ndarray, y: np.ndarray, weights: np.ndarray, presorted=None):
    """One boosting round: weighted stump, its weight, updated sample weights.

    Returns (stump, alpha, new_weights, status) with status one of
    'ok', 'perfect' (err = 0, keep stump, stop) or 'rejected' (err at or
    above chance, discard stump, stop). `presorted` is `fit_tree`'s.
    """
    stump = fit_tree(X, y, sample_weight=weights, max_depth=1, presorted=presorted)
    miss = stump.leaf_classes(X)[:, 0] != y
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
    stumps: TreeArrays
    alphas: Float64s

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=np.float64)
        if self.alphas.shape != (len(self.stumps),):
            raise ValueError("AdaBoost needs one alpha per stump")

    def scores(self, X: np.ndarray) -> np.ndarray:
        classes = self.stumps.leaf_classes(X)
        rows = classes.shape[0]
        # bincount adds each (row, class) key's alphas one at a time from
        # +0.0, in stump order as boosting made them; no stumps scores zeros
        keys = np.arange(0, rows * NUM_CLASSES, NUM_CLASSES)[:, None] + classes
        votes = np.bincount(keys.ravel(), np.tile(self.alphas, rows), rows * NUM_CLASSES)
        return votes.reshape(rows, NUM_CLASSES)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.scores(X))


@checked
def train_adaboost(
    X: np.ndarray,
    y: np.ndarray,
    *,
    rounds: Count = 200,
) -> AdaBoostModel:
    weights = np.full(X.shape[0], 1.0 / X.shape[0])
    presorted = _sort_columns(X, y)
    stumps: list[TreeArrays] = []
    alphas: list[float] = []
    for _ in range(rounds):
        stump, alpha, weights, status = adaboost_round(X, y, weights, presorted)
        if status == "rejected":
            break
        stumps.append(stump)
        alphas.append(alpha)
        if status == "perfect":
            break
    return AdaBoostModel(stumps=TreeArrays.concatenate(stumps), alphas=alphas)
