import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placescan.classifiers.boosting import (
    _ZERO_ERR,
    ALPHA_CAP,
    AdaBoostModel,
    adaboost_round,
    train_adaboost,
)
from placescan.classifiers.trees import TreeArrays, fit_tree
from placescan.core import NUM_CLASSES, pack, restore, stored

NODE_ARRAYS = ("roots", "feature", "threshold", "left", "right", "value")


def reference_adaboost(X, y, rounds):
    """SAMME with a stump fitted from scratch every round: no shared sort."""
    w = np.full(len(y), 1.0 / len(y))
    stumps, alphas = [], []
    for _ in range(rounds):
        stump = fit_tree(X, y, sample_weight=w, max_depth=1)
        miss = stump.leaf_classes(X)[:, 0] != y
        err = float(w[miss].sum())
        if err >= 1.0 - 1.0 / NUM_CLASSES:
            break
        stumps.append(stump)
        if err < _ZERO_ERR:
            alphas.append(float(ALPHA_CAP))
            break
        alphas.append(float(np.log((1.0 - err) / err) + np.log(NUM_CLASSES - 1.0)))
        w = w * np.exp(alphas[-1] * miss)
        w = w / w.sum()
    return TreeArrays.concatenate(stumps), alphas


@st.composite
def _boosting_sets(draw):
    """Rows with tied and constant columns, 2-4 classes, and a round budget."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 50))
    n_features = draw(st.integers(1, 10))
    levels = draw(st.integers(1, 6))
    X = rng.integers(0, levels, size=(n, n_features)) / draw(st.sampled_from([1.0, 3.0]))
    constant = rng.random(n_features) < draw(st.sampled_from([0.0, 0.3]))
    X[:, constant] = rng.normal()
    y = rng.integers(0, draw(st.integers(2, NUM_CLASSES)), size=n)
    return X, y, draw(st.integers(1, 60))


class TestPresortedRounds:
    @settings(max_examples=120, deadline=None)
    @given(_boosting_sets())
    def test_matches_a_fresh_sort_every_round(self, case):
        X, y, rounds = case
        model = train_adaboost(X, y, rounds=rounds)
        stumps, alphas = reference_adaboost(X, y, rounds)
        assert len(model.stumps) == len(stumps)  # the same stop point
        assert model.alphas.tolist() == alphas
        for name in NODE_ARRAYS:
            a, b = getattr(model.stumps, name), getattr(stumps, name)
            assert a.shape == b.shape and np.all(a == b), name


class TestAdaboostRound:
    def test_separable_first_round_perfect(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        w = np.full(4, 0.25)
        stump, alpha, _, status = adaboost_round(X, y, w)
        assert status == "perfect"
        assert alpha == pytest.approx(math.log(1e10))
        model = train_adaboost(X, y)
        assert len(model.stumps) == 1

    def test_alpha_formula_at_quarter_error(self):
        # best stump errs on exactly one of four uniform-weight rows
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1, 0, 1, 1])
        w = np.full(4, 0.25)
        _, alpha, _, status = adaboost_round(X, y, w)
        assert status == "ok"
        assert alpha == pytest.approx(math.log(3.0) + math.log(3.0), abs=1e-12)

    def test_rejected_round_at_chance(self):
        # constant feature: the stump cannot split and errs at 1 - 1/K
        X = np.ones((8, 1))
        y = np.array([0, 1, 2, 3] * 2)
        w = np.full(8, 0.125)
        _, _, _, status = adaboost_round(X, y, w)
        assert status == "rejected"
        model = train_adaboost(X, y)
        assert len(model.stumps) == 0
        assert np.allclose(model.predict_proba(X[:1]), 0.25)

    def test_weight_conservation_200_rounds(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 4, size=40)  # noisy labels keep err > 0
        w = np.full(40, 1.0 / 40)
        for _ in range(200):
            _, _, w, status = adaboost_round(X, y, w)
            if status != "ok":
                break
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(w > 0)


class TestAdaboostModel:
    def test_scores_accumulate_alphas(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 4, size=30)
        model = train_adaboost(X, y, rounds=10)
        proba = model.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(proba >= 0)

    @pytest.mark.parametrize("rounds", [0, 1, 25])
    def test_scores_equal_a_running_sum_of_ballots(self, rounds):
        rng = np.random.default_rng(rounds)
        X = rng.normal(size=(60, 4))
        if rounds:
            stumps = train_adaboost(X, rng.integers(0, 4, size=60), rounds=rounds).stumps
        else:
            stumps = TreeArrays.concatenate([])
        # alphas spread over magnitudes, so that the order of addition shows
        alphas = rng.uniform(0.0, 1.0, len(stumps)) * 10.0 ** rng.integers(-8, 8, len(stumps))
        model = AdaBoostModel(stumps=stumps, alphas=alphas)
        for rows in (X, X[:1]):
            classes = stumps.leaf_classes(rows)
            ballots = np.zeros((len(rows), len(stumps) + 1, NUM_CLASSES))
            ballots[:, 1:] = np.where(
                classes[:, :, None] == np.arange(NUM_CLASSES), alphas[:, None], 0.0
            )
            assert np.array_equal(model.scores(rows), np.cumsum(ballots, axis=1)[:, -1])

    def test_boosting_drives_down_two_class_training_error(self):
        # a single stump tops out well below 0.9 here; boosting must combine
        rng = np.random.default_rng(2)
        n = 80
        X = rng.normal(size=(n, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        one = train_adaboost(X, y, rounds=1)
        many = train_adaboost(X, y, rounds=100)
        acc_one = float(np.mean(one.predict_proba(X).argmax(axis=1) == y))
        acc_many = float(np.mean(many.predict_proba(X).argmax(axis=1) == y))
        assert acc_many >= 0.9
        assert acc_many > acc_one

    def test_four_class_training_beats_chance(self):
        rng = np.random.default_rng(12)
        n = 80
        X = rng.normal(size=(n, 4))
        y = np.digitize(X[:, 0], [-0.6, 0.0, 0.6])
        model = train_adaboost(X, y, rounds=50)
        acc = float(np.mean(model.predict_proba(X).argmax(axis=1) == y))
        assert acc > 0.25

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 4, size=30)
        model = train_adaboost(X, y, rounds=8)
        back = restore(AdaBoostModel, json.loads(json.dumps(stored(model), default=pack)))
        pairs = [(model.alphas, back.alphas)] + [
            (getattr(model.stumps, name), getattr(back.stumps, name)) for name in NODE_ARRAYS
        ]
        for a, b in pairs:
            assert (b.dtype, b.shape) == (a.dtype, a.shape) and np.array_equal(b, a)
        assert np.array_equal(model.predict_proba(X), back.predict_proba(X))
