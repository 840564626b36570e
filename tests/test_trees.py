import numpy as np
import pytest

from placescan.classifiers.trees import (
    RandomForest,
    fit_tree,
    gini_impurity,
    predict_tree_proba,
    train_random_forest,
)


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
        assert tree.is_leaf
        assert int(np.argmax(tree.distribution)) == 2

    def test_separable_1d(self):
        X = np.array([[-3.0], [-1.0], [2.0], [5.0]])
        y = np.array([0, 0, 1, 1])
        tree = fit_tree(X, y)
        assert not tree.is_leaf
        assert tree.left.is_leaf and tree.right.is_leaf
        assert -1.0 < tree.threshold < 2.0

    def test_perfect_fit_without_conflicts(self):
        # unlimited depth fits any dataset whose duplicate feature rows agree
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 30))
            X = rng.normal(size=(n, 3))
            y = rng.integers(0, 4, size=n)
            # continuous features: duplicates have probability zero
            tree = fit_tree(X, y)
            pred = np.array([np.argmax(predict_tree_proba(tree, x)) for x in X])
            assert np.all(pred == y)

    def test_max_depth_respected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 4, size=50)
        stump = fit_tree(X, y, max_depth=1)
        for child in (stump.left, stump.right):
            assert child is None or child.is_leaf

    def test_weighted_fit_ignores_zero_weight_rows(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 0])
        w = np.array([0.4, 0.3, 0.0, 0.3])
        tree = fit_tree(X, y, sample_weight=w, max_depth=1)
        pred = np.array([np.argmax(predict_tree_proba(tree, x)) for x in X])
        assert np.all(pred == 0)


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
        tree_pred = np.array(
            [np.argmax(predict_tree_proba(reference, x)) for x in probe]
        )
        assert np.all(forest_pred == tree_pred)

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
        back = RandomForest.from_dict(forest.to_dict())
        probe = rng.normal(size=(10, 4))
        assert np.array_equal(forest.predict_proba(probe), back.predict_proba(probe))
