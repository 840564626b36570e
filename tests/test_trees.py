import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placescan.classifiers.boosting import train_adaboost
from placescan.classifiers.trees import (
    _GAIN_EPS,
    RandomForest,
    _best_split,
    _sort_columns,
    fit_tree,
    gini_impurity,
    train_random_forest,
)
from placescan.core import NUM_CLASSES, pack, restore, stored
from placescan.errors import UnknownLabelError


def walk(trees, root, x):
    """Scalar reference traversal: the leaf one row reaches from `root`."""
    node = root
    while trees.feature[node] >= 0:
        go_left = x[trees.feature[node]] <= trees.threshold[node]
        node = trees.left[node] if go_left else trees.right[node]
    return node


def walk_classes(trees, X):
    """(rows, trees) leaf argmax classes, one row and one tree at a time."""
    return np.array(
        [[np.argmax(trees.value[walk(trees, r, x)]) for r in trees.roots] for x in X],
        dtype=np.int64,
    )


def per_feature_best_split(X, y, w, feature_indices):
    """Reference split search: one argsort, cumsum and Gini pass per feature."""
    total_w = w.sum()
    parent_counts = np.bincount(y, weights=w, minlength=NUM_CLASSES)
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


@st.composite
def _split_nodes(draw):
    """One node's rows: tied and constant columns, weights with exact zeros, a feature subset."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 60))
    n_features = draw(st.integers(1, 12))
    levels = draw(st.integers(1, 8))
    X = rng.integers(0, levels, size=(n, n_features)) / draw(st.sampled_from([1.0, 3.0]))
    constant = rng.random(n_features) < draw(st.sampled_from([0.0, 0.3]))
    X[:, constant] = rng.normal()
    y = rng.integers(0, draw(st.integers(1, NUM_CLASSES)), size=n)
    if draw(st.booleans()):
        y[: min(n, NUM_CLASSES)] = np.arange(min(n, NUM_CLASSES))  # every class present
    if draw(st.booleans()):
        w = rng.uniform(1e-3, 1.0, size=n)
    else:
        w = np.full(n, 1.0 / n)  # equal weights give exactly equal gains
    # zero-weight rows leave cuts with no weight on one side, and classes
    # present at the node with no weight
    w[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
    if w.sum() == 0.0:
        w[rng.integers(n)] = 1.0
    feats = draw(
        st.lists(st.integers(0, n_features - 1), min_size=1, max_size=n_features, unique=True)
    )
    return X, y, w, np.array(sorted(feats))


def best_split(X, y, w, feats):
    """`_best_split` on the node's own sort of its candidate columns."""
    return _best_split(_sort_columns(X[:, feats], y), y, w, feats)


class TestBestSplit:
    @settings(max_examples=300, deadline=None)
    @given(_split_nodes())
    def test_matches_per_feature_search(self, node):
        X, y, w, feats = node
        assert best_split(X, y, w, feats) == per_feature_best_split(X, y, w, feats)

    def test_gain_within_eps_keeps_the_earlier_feature(self):
        # feature 1 separates the classes perfectly; feature 0 does too but
        # for a row of weight 1e-14, so its gain is lower by less than eps
        tiny = 1e-14
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [0.5, 2.5]])
        y = np.array([0, 0, 1, 1, 1])
        w = np.array([1.0, 1.0, 1.0, 1.0, tiny]) / (4.0 + tiny)
        g0 = per_feature_best_split(X, y, w, [0])[0]
        g1 = per_feature_best_split(X, y, w, [1])[0]
        assert 0.0 < g1 - g0 < _GAIN_EPS
        split = best_split(X, y, w, np.array([0, 1]))
        assert split == per_feature_best_split(X, y, w, [0, 1])
        assert split[1] == 0
        # beaten by more than eps, the earlier feature gives way
        w[4] = 1e-6
        assert best_split(X, y, w, np.array([0, 1]))[1] == 1


class TestGini:
    def test_pure_node(self):
        assert gini_impurity([4, 0, 0, 0]) == pytest.approx(0.0)

    def test_two_even_classes(self):
        assert gini_impurity([2, 2, 0, 0]) == pytest.approx(0.5)

    def test_uniform_four_classes(self):
        assert gini_impurity([1, 1, 1, 1]) == pytest.approx(0.75)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            gini_impurity([0, 0, 0, 0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini_impurity([-1, 2, 0, 0])


class TestFitTree:
    def test_single_row_leaf(self):
        tree = fit_tree(np.array([[1.0, 2.0]]), np.array([2]))
        assert tree.feature.tolist() == [-1]
        assert int(np.argmax(tree.value[0])) == 2

    def test_separable_1d(self):
        X = np.array([[-3.0], [-1.0], [2.0], [5.0]])
        y = np.array([0, 0, 1, 1])
        tree = fit_tree(X, y)
        # preorder: the root, then its left leaf, then its right leaf
        assert tree.roots.tolist() == [0]
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.left.tolist() == [1, 1, 2]
        assert tree.right.tolist() == [2, 1, 2]
        assert -1.0 < tree.threshold[0] < 2.0

    def test_perfect_fit_without_conflicts(self):
        # unlimited depth fits any dataset whose duplicate feature rows agree
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 30))
            X = rng.normal(size=(n, 3))
            y = rng.integers(0, 4, size=n)
            # continuous features: duplicates have probability zero
            tree = fit_tree(X, y)
            assert np.all(walk_classes(tree, X)[:, 0] == y)

    def test_max_depth_respected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 4, size=50)
        stump = fit_tree(X, y, max_depth=1)
        assert len(stump.feature) <= 3
        assert np.all(stump.feature[1:] == -1)

    def test_weighted_fit_ignores_zero_weight_rows(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 0])
        w = np.array([0.4, 0.3, 0.0, 0.3])
        tree = fit_tree(X, y, sample_weight=w, max_depth=1)
        assert np.all(walk_classes(tree, X) == 0)

    def test_zero_weight_node_becomes_a_leaf(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0, 1])
        tree = fit_tree(X, y, sample_weight=np.array([0.0, 0.0, 1.0, 1.0]))
        assert walk_classes(tree, X[2:])[:, 0].tolist() == [0, 1]
        # rows 0 and 1 end in one leaf holding their unweighted class fractions
        leaf = walk(tree, 0, X[0])
        assert walk(tree, 0, X[1]) == leaf
        assert tree.value[leaf].tolist() == [0.5, 0.5, 0.0, 0.0]

    @pytest.mark.parametrize(
        "w",
        [
            [np.nan, 1.0, 1.0, 1.0],
            [np.inf, 1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0],
            [[1.0, 1.0, 1.0, 1.0]],
            [-0.5, 1.0, 1.0, 1.0],
            [0.0, 0.0, 0.0, 0.0],
        ],
        ids=["nan", "inf", "short", "2d", "negative", "zero-sum"],
    )
    def test_invalid_sample_weight_rejected(self, w):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError, match="sample_weight"):
            fit_tree(X, y, sample_weight=np.array(w))


    @pytest.mark.parametrize(
        "labels, error, message",
        [
            ([0, 1, 0, 4], UnknownLabelError, "class indices"),
            ([0, -1, 0, 1], UnknownLabelError, "class indices"),
            ([0, 1, 0], ValueError, "^fit_tree needs one label per row"),
            ([0, 1, 0, 1, 1], ValueError, "^fit_tree needs one label per row"),
        ],
        ids=["high", "negative", "short", "long"],
    )
    def test_label_outside_the_classes_rejected(self, labels, error, message):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(error, match=message):
            fit_tree(X, np.array(labels))

    def test_zero_features_per_split_rejected(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
        with pytest.raises(ValueError, match="features_per_split"):
            fit_tree(X, np.array([0, 1, 0, 1]), features_per_split=0, rng=np.random.default_rng(0))

    def test_feature_subset_without_rng_rejected(self):
        X = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 1.0, 0.0], [3.0, 0.0, 1.0]])
        y = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError, match="rng"):
            fit_tree(X, y, features_per_split=2)
        # a subset as large as the feature set draws nothing
        assert np.array_equal(fit_tree(X, y, features_per_split=3).feature, fit_tree(X, y).feature)


class TestRandomForest:
    def test_single_tree_matches_fit_tree(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 5))
        y = rng.integers(0, 4, size=60)
        forest = train_random_forest(
            X, y, trees=1, bootstrap=False, features_per_split=5, seed=9
        )
        reference = fit_tree(X, y, max_depth=100)
        probe = rng.normal(size=(40, 5))
        forest_pred = forest.predict_proba(probe).argmax(axis=1)
        assert np.all(forest_pred == walk_classes(reference, probe)[:, 0])

    def test_perfectly_separated_class_gets_probability_one(self):
        rng = np.random.default_rng(4)
        n_per = 20
        X = rng.normal(size=(4 * n_per, 6))
        y = np.repeat(np.arange(4), n_per)
        X[y == 0, 0] = rng.uniform(50.0, 60.0, n_per)  # far from all others
        X[y != 0, 0] = rng.uniform(-1.0, 1.0, 3 * n_per)
        forest = train_random_forest(X, y, trees=25, seed=0, features_per_split=6)
        proba = forest.predict_proba(X[y == 0])
        assert np.all(proba[:, 0] == 1.0)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 4))
        y = rng.integers(0, 4, size=40)
        a = train_random_forest(X, y, trees=5, seed=11, features_per_split=None)
        b = train_random_forest(X, y, trees=5, seed=11, features_per_split=None)
        probe = rng.normal(size=(10, 4))
        assert np.array_equal(a.predict_proba(probe), b.predict_proba(probe))

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 4, size=30)
        forest = train_random_forest(X, y, trees=3, seed=2, features_per_split=None)
        back = restore(RandomForest, json.loads(json.dumps(stored(forest), default=pack)))
        for name in ("roots", "feature", "threshold", "left", "right", "value"):
            a, b = getattr(forest.trees, name), getattr(back.trees, name)
            assert (b.dtype, b.shape) == (a.dtype, a.shape) and np.array_equal(b, a), name
        probe = rng.normal(size=(10, 4))
        assert np.array_equal(forest.predict_proba(probe), back.predict_proba(probe))


@st.composite
def _ensembles(draw):
    """A random training set and rf/adaboost settings, plus probe rows."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 40))
    n_features = draw(st.integers(1, 6))
    # a coarse grid makes tied values and thresholds that probes hit exactly
    X = rng.integers(-3, 4, size=(n, n_features)) / draw(st.sampled_from([1.0, 4.0]))
    y = rng.integers(0, draw(st.integers(2, 4)), size=n)
    extra = rng.integers(-4, 5, size=(draw(st.integers(1, 12)), n_features)) / 2.0
    params = {
        "trees": draw(st.integers(1, 8)),
        "max_depth": draw(st.integers(1, 6)),
        "features_per_split": draw(st.integers(1, n_features)),
        "bootstrap": draw(st.booleans()),
        "seed": seed,
    }
    return X, y, np.vstack([X, extra]), params, draw(st.integers(1, 12))


class TestVectorisedTraversal:
    @settings(max_examples=60, deadline=None)
    @given(_ensembles())
    def test_matches_scalar_walk_and_row_by_row(self, case):
        X, y, probe, params, rounds = case
        forest = train_random_forest(X, y, **params)
        classes = walk_classes(forest.trees, probe)
        votes = np.stack([np.bincount(c, minlength=4) for c in classes])
        proba = forest.predict_proba(probe)
        assert np.array_equal(proba, votes / len(forest.trees))
        assert np.array_equal(forest.trees.leaf_classes(probe), classes)

        boost = train_adaboost(X, y, rounds=rounds)
        scores = np.zeros((len(probe), 4))
        for row, stump_classes in zip(scores, walk_classes(boost.stumps, probe)):
            for k, alpha in zip(stump_classes, boost.alphas):
                row[k] += alpha
        assert np.array_equal(boost.scores(probe), scores)

        for model, batch in ((forest, proba), (boost, boost.predict_proba(probe))):
            rows = np.vstack([model.predict_proba(x) for x in probe])
            assert np.array_equal(batch, rows)

