"""CART decision trees and a bootstrap-aggregated forest.

Splits minimize weighted Gini impurity over candidate thresholds at the
midpoints of sorted unique feature values. Ties are broken toward the
lowest feature index, then the lowest threshold, so training is fully
deterministic given the rng passed in.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import NUM_CLASSES

_GAIN_EPS = 1e-12


def gini_impurity(counts) -> float:
    """1 - sum p_k^2 over class proportions; requires a positive total."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts < 0):
        raise ValueError("class counts must be non-negative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("class counts must have a positive total")
    p = counts / total
    return float(1.0 - np.sum(p * p))


@dataclass
class TreeNode:
    distribution: np.ndarray
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"dist": self.distribution.tolist()}
        return {
            "dist": self.distribution.tolist(),
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TreeNode":
        node = cls(distribution=np.asarray(payload["dist"], dtype=np.float64))
        if "feature" in payload:
            node.feature = int(payload["feature"])
            node.threshold = float(payload["threshold"])
            node.left = cls.from_dict(payload["left"])
            node.right = cls.from_dict(payload["right"])
        return node


def _class_weight_sums(y, w):
    sums = np.zeros(NUM_CLASSES)
    np.add.at(sums, y, w)
    return sums


def _best_split(X, y, w, feature_indices):
    """Best (gain, feature, threshold) over the candidate features.

    Candidate thresholds are midpoints of consecutive distinct sorted
    values; gain is the weighted Gini decrease. Returns None when no split
    strictly improves impurity.
    """
    total_w = w.sum()
    parent_counts = _class_weight_sums(y, w)
    parent_gini = gini_impurity(parent_counts)
    onehot = np.eye(NUM_CLASSES)[y]

    best = None  # (gain, feature, threshold)
    for f in feature_indices:
        xs = X[:, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        wy = w[order, None] * onehot[order]
        left = np.cumsum(wy, axis=0)[:-1]
        distinct = np.diff(xs_sorted) > 0
        if not np.any(distinct):
            continue
        right = parent_counts[None, :] - left
        lw = left.sum(axis=1)
        rw = total_w - lw
        with np.errstate(divide="ignore", invalid="ignore"):
            gl = 1.0 - np.sum((left / lw[:, None]) ** 2, axis=1)
            gr = 1.0 - np.sum((right / rw[:, None]) ** 2, axis=1)
            child = (lw * gl + rw * gr) / total_w
        usable = distinct & (lw > 0) & (rw > 0)
        gain = np.where(usable, parent_gini - child, -np.inf)
        i = int(np.argmax(gain))
        if gain[i] > _GAIN_EPS and (best is None or gain[i] > best[0] + _GAIN_EPS):
            best = (float(gain[i]), int(f), float((xs_sorted[i] + xs_sorted[i + 1]) / 2.0))
    return best


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: Optional[np.ndarray] = None,
    max_depth: Optional[int] = None,
    features_per_split: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> TreeNode:
    """Grow a CART tree; `features_per_split=None` evaluates all features.

    Stops at max_depth, pure nodes, or nodes with fewer than 2 samples.
    When no single-feature split has positive Gini gain but the node is
    impure and splittable, the first splittable feature is forced at its
    median midpoint so conflict-free data can always be separated.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        raise ValueError("cannot fit a tree on zero rows")
    if sample_weight is None:
        sample_weight = np.full(X.shape[0], 1.0 / X.shape[0])
    else:
        sample_weight = np.asarray(sample_weight, dtype=np.float64)
    n_features = X.shape[1]

    def build(idx: np.ndarray, depth: int) -> TreeNode:
        yi = y[idx]
        wi = sample_weight[idx]
        counts = _class_weight_sums(yi, np.maximum(wi, 0.0))
        if counts.sum() <= 0:
            counts = np.bincount(yi, minlength=NUM_CLASSES).astype(np.float64)
        dist = counts / counts.sum()
        node = TreeNode(distribution=dist)
        if (
            idx.shape[0] < 2
            or (max_depth is not None and depth >= max_depth)
            or np.unique(yi).shape[0] == 1
        ):
            return node
        if features_per_split is None or features_per_split >= n_features:
            feats = np.arange(n_features)
        else:
            feats = np.sort(rng.choice(n_features, features_per_split, replace=False))
        split = _best_split(X[idx], yi, wi, feats)
        if split is None:
            split = _forced_split(X[idx], feats)
            if split is None:
                return node
        _, feature, threshold = split
        mask = X[idx, feature] <= threshold
        left_idx = idx[mask]
        right_idx = idx[~mask]
        if left_idx.shape[0] == 0 or right_idx.shape[0] == 0:
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = build(left_idx, depth + 1)
        node.right = build(right_idx, depth + 1)
        return node

    return build(np.arange(X.shape[0]), 0)


def _forced_split(Xn, feats):
    for f in feats:
        vals = np.unique(Xn[:, f])
        if vals.shape[0] >= 2:
            mid = (vals.shape[0] - 1) // 2
            return (0.0, int(f), float((vals[mid] + vals[mid + 1]) / 2.0))
    return None


def predict_tree_proba(node: TreeNode, x: np.ndarray) -> np.ndarray:
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.distribution


@dataclass
class RandomForest:
    trees: list[TreeNode]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Tree-vote fractions: each tree votes its leaf argmax class."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        votes = np.zeros((X.shape[0], NUM_CLASSES))
        for tree in self.trees:
            for i in range(X.shape[0]):
                leaf = predict_tree_proba(tree, X[i])
                votes[i, int(np.argmax(leaf))] += 1.0
        return votes / len(self.trees)

    def to_dict(self) -> dict:
        return {"trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def from_dict(cls, payload: dict) -> "RandomForest":
        return cls(trees=[TreeNode.from_dict(t) for t in payload["trees"]])


def train_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    *,
    trees: int = 100,
    max_depth: int = 100,
    features_per_split: Optional[int] = 16,
    bootstrap: bool = True,
    seed: int = 42,
) -> RandomForest:
    """Bagged CART forest; each tree owns a substream keyed by (seed, index).

    The default `features_per_split` is floor(sqrt(271)) for 271-beam scans;
    None applies the same square-root rule to any feature count.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    if features_per_split is None:
        features_per_split = max(1, int(np.sqrt(X.shape[1])))
    forest = []
    for t in range(trees):
        rng = np.random.default_rng([seed, t])
        if bootstrap:
            idx = rng.integers(0, n, size=n)
        else:
            idx = np.arange(n)
        tree = fit_tree(
            X[idx],
            y[idx],
            max_depth=max_depth,
            features_per_split=(
                None if features_per_split >= X.shape[1] else features_per_split
            ),
            rng=rng,
        )
        forest.append(tree)
    return RandomForest(trees=forest)
