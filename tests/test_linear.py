import json

import numpy as np
import pytest

from placescan.classifiers.linear import (
    LogRegModel,
    logreg_loss_grad,
    softmax,
    train_logreg,
)
from placescan.core import pack, restore, stored


def numeric_grad(W, b, X, Y, l2, h=1e-6):
    gW = np.zeros_like(W)
    gb = np.zeros_like(b)
    for idx in np.ndindex(W.shape):
        Wp, Wm = W.copy(), W.copy()
        Wp[idx] += h
        Wm[idx] -= h
        lp = logreg_loss_grad(Wp, b, X, Y, l2)[0]
        lm = logreg_loss_grad(Wm, b, X, Y, l2)[0]
        gW[idx] = (lp - lm) / (2 * h)
    for k in range(b.size):
        bp, bm = b.copy(), b.copy()
        bp[k] += h
        bm[k] -= h
        lp = logreg_loss_grad(W, bp, X, Y, l2)[0]
        lm = logreg_loss_grad(W, bm, X, Y, l2)[0]
        gb[k] = (lp - lm) / (2 * h)
    return gW, gb


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        assert np.allclose(softmax(np.zeros((3, 4))), 0.25)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(6, 4))
        assert np.allclose(softmax(z), softmax(z + 100.0))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        p = softmax(rng.normal(size=(20, 4)) * 50)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0)


class TestLossGrad:
    def test_zero_weights_loss_is_log_k(self):
        X = np.random.default_rng(2).normal(size=(10, 5))
        Y = np.eye(4)[np.random.default_rng(3).integers(0, 4, size=10)]
        loss, _, _ = logreg_loss_grad(np.zeros((5, 4)), np.zeros(4), X, Y, 0.0)
        assert loss == pytest.approx(np.log(4.0), abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(12, 6))
        Y = np.eye(4)[rng.integers(0, 4, size=12)]
        W = rng.normal(size=(6, 4)) * 0.5
        b = rng.normal(size=4) * 0.5
        _, gW, gb = logreg_loss_grad(W, b, X, Y, l2=1e-4)
        nW, nb = numeric_grad(W, b, X, Y, l2=1e-4)
        scale = max(np.abs(nW).max(), np.abs(nb).max(), 1.0)
        assert np.abs(gW - nW).max() / scale <= 1e-6
        assert np.abs(gb - nb).max() / scale <= 1e-6


class TestTrainLogreg:
    def test_zero_iterations_are_rejected(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(8, 3))
        y = rng.integers(0, 4, size=8)
        with pytest.raises(ValueError, match=r"^train_logreg max_iter must be an integer >= 1"):
            train_logreg(X, y, max_iter=0)
        # the smallest budget takes one step away from the uniform start
        model = train_logreg(X, y, max_iter=1)
        assert not model.converged
        assert not np.allclose(model.predict_proba(X), 0.25)

    def test_fits_separable_clusters(self):
        rng = np.random.default_rng(6)
        centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
        X = np.vstack([c + 0.2 * rng.normal(size=(12, 2)) for c in centers])
        y = np.repeat(np.arange(4), 12)
        model = train_logreg(X, y)
        assert np.mean(model.predict_proba(X).argmax(axis=1) == y) == 1.0

    def test_gradient_norm_small_at_convergence(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 4, size=30)
        model = train_logreg(X, y)
        Y = np.eye(4)[y]
        _, gW, gb = logreg_loss_grad(model.W, model.b, X, Y, l2=1e-4)
        if model.converged:
            assert max(np.abs(gW).max(), np.abs(gb).max()) <= 1e-6

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 4, size=20)
        model = train_logreg(X, y, max_iter=50)
        back = restore(LogRegModel, json.loads(json.dumps(stored(model), default=pack)))
        for a, b in ((model.W, back.W), (model.b, back.b)):
            assert (b.dtype, b.shape) == (a.dtype, a.shape) and np.array_equal(b, a)
        probe = rng.normal(size=(7, 3))
        assert np.array_equal(model.predict_proba(probe), back.predict_proba(probe))
