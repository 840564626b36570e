"""CART decision trees and a bootstrap-aggregated forest.

Splits minimize weighted Gini impurity over candidate thresholds at the
midpoints of sorted unique feature values. The search is split in two,
as SLIQ splits presorted attribute lists from the scan over them:
`_sort_columns` sorts a node's candidate columns together, and
`_best_split` scans every cut of every column in one numpy pass, holding
the weighted class sums left of the cuts class-major, as one `(n - 1, F)`
plane per class. A tree node sorts its own rows; boosting, whose every
round searches the same rows, sorts them once per fit and hands the sort to
each round's root (`fit_tree(presorted=...)`). A later feature wins only
when its gain beats the best so far by more than `_GAIN_EPS`, and within a
feature the lowest of equally good thresholds wins, so training is fully
deterministic given the rng passed in.

Trees are stored flat, as in scikit-learn's `Tree`: parallel `feature`,
`threshold`, `left`, `right` and `(nodes, 4)` `value` arrays, with
`feature == -1` marking a leaf (`TreeArrays`). A forest is one such set of
arrays plus each tree's root index. Nodes are in preorder, so every child
index is greater than its parent's, and a leaf is its own child; that is
what ends the traversal, which walks all rows through all trees one level
per step. Model files hold the same arrays, packed by `core.pack`.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from ..core import NUM_BEAMS, NUM_CLASSES, Float64s, Int64s, declared, training_rows
from ..hyperparams import COUNT, Count, CountOrNone, Flag, Seed, checked

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


@dataclass(frozen=True)
class TreeArrays:
    """One or more CART trees as parallel node arrays (layout: module doc).

    A row at node i goes to `left[i]` if `x[feature[i]] <= threshold[i]`,
    else to `right[i]`; tree t starts at node `roots[t]`. The constructor
    checks the layout, so a malformed model file cannot load.
    """

    roots: Int64s
    feature: Int64s
    threshold: Float64s
    left: Int64s
    right: Int64s
    value: Float64s

    def __post_init__(self):
        for name, dtype in declared(TreeArrays).items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = self.feature.size
        per_node = (self.feature, self.threshold, self.left, self.right)
        if any(a.shape != (n,) for a in per_node):
            raise ValueError("tree node arrays must be 1-D and of equal length")
        if self.value.shape != (n, NUM_CLASSES):
            raise ValueError(f"tree values must be shaped (nodes, {NUM_CLASSES})")
        if self.roots.ndim != 1 or np.any((self.roots < 0) | (self.roots >= n)):
            raise ValueError("tree roots must index the node arrays")
        if np.any((self.feature < -1) | (self.feature >= NUM_BEAMS)):
            raise ValueError(f"tree split features must lie in [0, {NUM_BEAMS})")
        node = np.arange(n)
        internal = self.feature >= 0
        for child in (self.left, self.right):
            inside = np.where(internal, (child > node) & (child < n), child == node)
            if not np.all(inside):
                raise ValueError(
                    "tree child indices must point forward inside the node "
                    "arrays (a leaf's to itself)"
                )

    def __len__(self) -> int:
        return self.roots.shape[0]

    def leaf_classes(self, X: np.ndarray) -> np.ndarray:
        """(rows, trees) argmax class of the leaf each row reaches in each tree.

        All rows walk all trees together, one level per step.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        rows = np.arange(X.shape[0])[:, None]
        node = np.broadcast_to(self.roots, (X.shape[0], len(self)))
        while np.any(self.feature[node] >= 0):
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return np.argmax(self.value[node], axis=-1)

    @classmethod
    def concatenate(cls, parts: list["TreeArrays"]) -> "TreeArrays":
        """One ensemble holding the trees of `parts` in order."""
        offsets = np.cumsum([0] + [p.feature.shape[0] for p in parts])
        shifted = [
            (p.roots + o, p.feature, p.threshold, p.left + o, p.right + o, p.value)
            for p, o in zip(parts, offsets)
        ]
        empty = ([], [], [], [], [], np.empty((0, NUM_CLASSES)))
        return cls(*(np.concatenate(column) for column in zip(*shifted, empty)))


class _SortedColumns(NamedTuple):
    """A node's candidate columns in sorted row order (`_sort_columns`)."""

    order: np.ndarray  # (n, F) stable argsort of each column
    values: np.ndarray  # (n, F) the sorted values
    distinct: np.ndarray  # (n - 1, F) a cut between two different values
    class_rows: np.ndarray  # (NUM_CLASSES, n, F) the sorted rows of class k


def _sort_columns(Xf: np.ndarray, y: np.ndarray) -> _SortedColumns:
    """Sort every column of `Xf` once, for any number of `_best_split` calls."""
    order = np.argsort(Xf, axis=0, kind="stable")
    values = Xf[order, np.arange(Xf.shape[1])]
    class_rows = y[order] == np.arange(NUM_CLASSES)[:, None, None]
    return _SortedColumns(order, values, values[1:] > values[:-1], class_rows)


def _plane_sum(planes):
    """((p0 + p1) + p2) + ... over an iterable of class planes, in that order."""
    planes = iter(planes)
    total = next(planes).copy()
    for plane in planes:
        total += plane
    return total


def _best_split(columns, y, w, feature_indices):
    """Best (gain, feature, threshold) over the candidate features.

    Candidate thresholds are midpoints of consecutive distinct sorted
    values; gain is the weighted Gini decrease. Returns None when no split
    strictly improves impurity.

    All candidate columns are searched in one pass. `columns` is the
    `_sort_columns(X[:, feature_indices], y)` of the node's rows, so the
    sort is the caller's: a tree node sorts its own rows, and boosting,
    which searches the same rows under new weights every round, sorts them
    once per fit and passes the same sort each time. The weighted class sums
    left of every cut are class-major, one contiguous `(n - 1, F)` plane
    per class: the sorted weights masked to the class's rows, cumsummed
    along rows. Every per-cut sum over classes (the left weight and the two
    Gini sums of squares) is then plane adds in class order. A column's
    best cut is its first maximum. Over the column maxima, in feature
    order, the first gain above `_GAIN_EPS` leads, and a later column takes
    the lead only by beating the leader by more than `_GAIN_EPS`.

    This is bit-identical to searching one column at a time with a class
    axis, `(n - 1, K)`: a cumsum along rows adds each column's weights in
    the order a one-column cumsum does, and numpy's `sum(axis=-1)` over a
    last axis of K = 4 adds strictly left to right, ((p0 + p1) + p2) + p3,
    which is the order of `_plane_sum`. Classes with no weight at the node
    get no plane: their sums are exact zeros, and adding them changes no
    usable cut's bits.
    """
    total_w = w.sum()
    parent_counts = np.bincount(y, weights=w, minlength=NUM_CLASSES)
    parent_gini = gini_impurity(parent_counts)
    classes = np.flatnonzero(parent_counts > 0)
    left = columns.class_rows[classes] * w[columns.order]  # a row's weight or +0.0
    np.cumsum(left, axis=1, out=left)
    left = left[:, :-1]
    lw = _plane_sum(left)
    rw = total_w - lw
    q = np.empty_like(lw)  # the plane each Gini term is computed in
    with np.errstate(divide="ignore", invalid="ignore"):
        gl = 1.0 - _plane_sum(np.square(np.divide(p, lw, out=q), out=q) for p in left)
        right = (np.subtract(parent_counts[k], p, out=q) for k, p in zip(classes, left))
        gr = 1.0 - _plane_sum(np.square(np.divide(r, rw, out=q), out=q) for r in right)
        child = (lw * gl + rw * gr) / total_w
    usable = columns.distinct & (lw > 0) & (rw > 0)
    gain = np.where(usable, parent_gini - child, -np.inf)
    cut = np.argmax(gain, axis=0)
    column_gain = gain[cut, np.arange(gain.shape[1])]

    above = np.flatnonzero(column_gain > _GAIN_EPS)
    if above.size == 0:
        return None
    lead = above[0]
    while True:  # one step per change of leader, not per feature
        beats = np.flatnonzero(column_gain[lead + 1 :] > column_gain[lead] + _GAIN_EPS)
        if beats.size == 0:
            break
        lead += 1 + beats[0]
    i = cut[lead]
    xs = columns.values
    threshold = (xs[i, lead] + xs[i + 1, lead]) / 2.0
    return float(column_gain[lead]), int(feature_indices[lead]), float(threshold)


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: Optional[np.ndarray] = None,
    max_depth: Optional[int] = None,
    features_per_split: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    presorted: Optional[_SortedColumns] = None,
) -> TreeArrays:
    """Grow one CART tree; `features_per_split=None` evaluates all features.

    Stops at max_depth, pure nodes, nodes with fewer than 2 samples and
    nodes whose weights sum to zero (their leaf holds unweighted class
    fractions). When no single-feature split has positive Gini gain but the
    node is impure and splittable, the first splittable feature is forced
    at its median midpoint so conflict-free data can always be separated.
    `sample_weight` must be 1-D of one weight per row, finite and
    non-negative, with a positive sum. `X` and `y` must pass
    `core.training_rows`, and a `features_per_split` below the feature
    count draws from `rng`. `presorted`, the `_sort_columns(X, y)` of these
    rows, spares a root that searches all features its sort: boosting fits
    every round's tree on the same rows.
    """
    X, y = training_rows("fit_tree", X, y)
    n, n_features = X.shape
    COUNT.or_none().check("features_per_split", features_per_split)
    all_features = features_per_split is None or features_per_split >= n_features
    if not all_features and rng is None:
        raise ValueError("rng is required when features_per_split is below the feature count")
    if presorted is not None and presorted.order.shape != X.shape:
        raise ValueError("presorted must be the _sort_columns of X")
    if sample_weight is None:
        sample_weight = np.full(n, 1.0 / n)
    else:
        sample_weight = np.asarray(sample_weight, dtype=np.float64)
        if sample_weight.shape != (n,):
            raise ValueError(
                f"sample_weight must be 1-D of length {n}, got shape {sample_weight.shape}"
            )
        if not (np.all(np.isfinite(sample_weight)) and np.all(sample_weight >= 0)):
            raise ValueError("sample_weight must be finite and non-negative")
        if sample_weight.sum() <= 0:
            raise ValueError("sample_weight must have a positive sum")

    nodes = {f.name: [] for f in fields(TreeArrays) if f.name != "roots"}

    def build(idx: np.ndarray, depth: int) -> int:
        """Append the subtree grown on rows `idx` in preorder; return its root."""
        yi = y[idx]
        wi = sample_weight[idx]
        counts = np.bincount(yi, wi, minlength=NUM_CLASSES)
        weightless = counts.sum() <= 0
        if weightless:
            counts = np.bincount(yi, minlength=NUM_CLASSES).astype(np.float64)
        node = len(nodes["value"])
        # a leaf until a split is found: no feature, itself as both children
        for name, leaf in zip(nodes, (-1, 0.0, node, node, counts / counts.sum())):
            nodes[name].append(leaf)
        if (
            weightless
            or idx.shape[0] < 2
            or (max_depth is not None and depth >= max_depth)
            or yi.min() == yi.max()
        ):
            return node
        if all_features:
            feats = np.arange(n_features)
        else:
            feats = np.sort(rng.choice(n_features, features_per_split, replace=False))
        if depth == 0 and all_features and presorted is not None:
            columns = presorted
        else:
            columns = _sort_columns(X[np.ix_(idx, feats)], yi)
        split = _best_split(columns, yi, wi, feats)
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
        nodes["feature"][node] = feature
        nodes["threshold"][node] = threshold
        nodes["left"][node] = build(left_idx, depth + 1)
        nodes["right"][node] = build(right_idx, depth + 1)
        return node

    build(np.arange(X.shape[0]), 0)
    return TreeArrays(roots=[0], **nodes)


def _forced_split(Xn, feats):
    for f in feats:
        vals = np.unique(Xn[:, f])
        if vals.shape[0] >= 2:
            mid = (vals.shape[0] - 1) // 2
            return (0.0, int(f), float((vals[mid] + vals[mid + 1]) / 2.0))
    return None


@dataclass
class RandomForest:
    trees: TreeArrays

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Tree-vote fractions: each tree votes its leaf argmax class."""
        classes = self.trees.leaf_classes(X)
        votes = np.sum(classes[:, :, None] == np.arange(NUM_CLASSES), axis=1)
        return votes / len(self.trees)


@checked
def train_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    *,
    trees: Count = 100,
    max_depth: Count = 100,
    features_per_split: CountOrNone = 16,
    bootstrap: Flag = True,
    seed: Seed = 42,
) -> RandomForest:
    """Bagged CART forest; each tree owns a substream keyed by (seed, index).

    The default `features_per_split` is floor(sqrt(271)) for 271-beam scans;
    None applies the same square-root rule to any feature count.
    """
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
            features_per_split=features_per_split,
            rng=rng,
        )
        forest.append(tree)
    return RandomForest(trees=TreeArrays.concatenate(forest))
