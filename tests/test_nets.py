import json

import numpy as np
import pytest

from placescan.classifiers import ModelSpec, train
from placescan.classifiers.nets import (
    Adam,
    Dropout,
    MaxPool1D,
    Network,
    build_cnn,
    build_mlp,
    softmax_cross_entropy,
    train_network,
)
from placescan.core import pack
from placescan.simulate import SimConfig, generate_dataset


def check_gradients(net, x, onehot, h=1e-6, tol=1e-5):
    """Central differences over every entry of `theta` (dropout off)."""
    _, grads = net.loss_and_grads(x, onehot, train=False)
    analytic = net.grad.copy()
    assert np.array_equal(np.concatenate([g.ravel() for g in grads]), analytic)
    numeric = np.zeros_like(net.theta)
    for i in range(net.theta.size):
        original = net.theta[i]
        net.theta[i] = original + h
        up = softmax_cross_entropy(net.forward(x, train=False), onehot)[0]
        net.theta[i] = original - h
        down = softmax_cross_entropy(net.forward(x, train=False), onehot)[0]
        net.theta[i] = original
        numeric[i] = (up - down) / (2 * h)
    scale = max(float(np.abs(numeric).max()), 1.0)
    assert float(np.abs(analytic - numeric).max()) / scale <= tol


def adam_reference(theta, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Kingma & Ba (2015), Algorithm 1, written out with fresh arrays."""
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta, m, v


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        p = np.array([1.0, -2.0])
        Adam(p, lr=0.01).step(p, np.zeros(2))
        assert np.allclose(p, [1.0, -2.0])

    def test_first_step_magnitude_is_learning_rate(self):
        p = np.zeros(3)
        g = np.array([5.0, -0.01, 123.0])
        Adam(p, lr=0.01).step(p, g)
        # bias correction makes the first update lr * sign(g) (up to eps)
        assert np.allclose(p, -0.01 * np.sign(g), atol=1e-6)

    def test_steps_match_algorithm_1_exactly(self):
        rng = np.random.default_rng(12)
        start = rng.normal(size=50) * 10.0 ** rng.integers(-8, 1, size=50)
        grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=50) for _ in range(7)]
        grads[3][:10] = 0.0
        p = start.copy()
        opt = Adam(p, lr=0.003)
        for g in grads:
            opt.step(p, g)
        theta, m, v = adam_reference(start, grads, lr=0.003)
        assert np.array_equal(p, theta)
        assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)

    def test_optimizer_descends_quadratic(self):
        p = np.array([10.0])
        opt = Adam(p, lr=0.1)
        for _ in range(500):
            opt.step(p, 2.0 * p)
        assert abs(p[0]) < 1e-2


class TestLayers:
    def test_maxpool_takes_first_index_on_ties(self):
        pool = MaxPool1D(2)
        x = np.full((1, 1, 4), 3.0)
        out = pool.forward(x, train=False, rng=None)
        dx = pool.backward(np.ones_like(out))
        assert np.array_equal(dx[0, 0], [1.0, 0.0, 1.0, 0.0])

    def test_conv_zero_sum_kernel_ignores_constant_shift(self):
        rng = np.random.default_rng(0)
        conv = build_cnn(rng, length=9, filters=(1, 1), kernel=3, pool=1,
                         dense_widths=(4,)).layers[0]
        conv.W[...] = np.array([[[1.0, -2.0, 1.0]]])
        conv.b[...] = 0.0
        x = rng.normal(size=(2, 1, 9))
        a = conv.forward(x, train=False, rng=None)
        b = conv.forward(x + 7.5, train=False, rng=None)
        assert np.allclose(a, b)

    def test_dropout_off_is_identity(self):
        drop = Dropout(0.5)
        x = np.random.default_rng(1).normal(size=(4, 6))
        assert np.array_equal(drop.forward(x, train=False, rng=None), x)

    def test_dropout_on_scales_kept_units(self):
        drop = Dropout(0.5)
        rng = np.random.default_rng(2)
        x = np.ones((200, 50))
        out = drop.forward(x, train=True, rng=rng)
        kept = out[out != 0]
        assert np.allclose(kept, 2.0)
        assert abs(np.mean(out != 0) - 0.5) < 0.02


class TestGradients:
    def test_small_mlp_matches_finite_differences(self):
        rng = np.random.default_rng([5, 1])
        net = build_mlp(rng, n_in=7, widths=(8, 4), dropout_after=())
        x = rng.normal(size=(5, 7))
        onehot = np.eye(4)[rng.integers(0, 4, size=5)]
        check_gradients(net, x, onehot)

    def test_tiny_cnn_matches_finite_differences(self):
        rng = np.random.default_rng([5, 2])
        net = build_cnn(rng, length=12, filters=(2, 3), kernel=3, pool=2,
                        dense_widths=(6, 4))
        x = rng.normal(size=(3, 1, 12))
        onehot = np.eye(4)[rng.integers(0, 4, size=3)]
        check_gradients(net, x, onehot)
        # a one-channel net also takes (batch, length) rows, with the same loss
        check_gradients(net, x[:, 0, :], onehot)
        loss, _ = net.loss_and_grads(x, onehot, train=False)
        loss_2d, _ = net.loss_and_grads(x[:, 0, :], onehot, train=False)
        assert loss_2d == loss
        assert net.layers[0].backward(np.ones((3, 2, 10))).shape == (3, 12)


class TestNetworkBehaviour:
    def test_inference_is_deterministic(self):
        rng = np.random.default_rng(6)
        net = build_mlp(np.random.default_rng([6, 1]), n_in=10, widths=(16, 4))
        x = rng.normal(size=(4, 10))
        assert np.array_equal(net.predict_proba(x), net.predict_proba(x))

    def test_duplicate_rows_get_identical_outputs(self):
        net = build_mlp(np.random.default_rng([7, 1]), n_in=6, widths=(12, 4))
        row = np.random.default_rng(7).normal(size=6)
        proba = net.predict_proba(np.vstack([row, row, row]))
        assert np.allclose(proba[0], proba[1])
        assert np.allclose(proba[0], proba[2])

    def test_zero_input_through_fresh_dense_head_is_uniform(self):
        # He-uniform leaves biases at zero, so a zero input yields equal logits
        net = build_mlp(np.random.default_rng([8, 1]), n_in=9, widths=(5, 4))
        proba = net.predict_proba(np.zeros((2, 9)))
        assert np.allclose(proba, 0.25)

    def test_training_loss_mostly_decreases_on_separable_data(self):
        rng = np.random.default_rng(9)
        centers = np.array([[0, 0], [6, 0], [0, 6], [6, 6]], dtype=float)
        X = np.vstack([c + 0.3 * rng.normal(size=(20, 2)) for c in centers])
        y = np.repeat(np.arange(4), 20)
        net = build_mlp(np.random.default_rng([9, 1]), n_in=2,
                        widths=(16, 8, 4), dropout_after=())
        history = train_network(net, X, y, epochs=30, batch_size=16,
                                lr=0.01, seed=9)
        drops = sum(b < a for a, b in zip(history, history[1:]))
        assert drops >= 0.8 * (len(history) - 1)
        assert np.mean(net.predict_proba(X).argmax(axis=1) == y) >= 0.95

    def test_training_is_seed_deterministic(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(24, 5))
        y = rng.integers(0, 4, size=24)
        histories = []
        for _ in range(2):
            net = build_mlp(np.random.default_rng([10, 1]), n_in=5, widths=(8, 4))
            histories.append(train_network(net, X, y, epochs=3, seed=10))
        assert histories[0] == histories[1]


class TestTrainingArguments:
    @pytest.fixture(scope="class")
    def data(self):
        return generate_dataset(SimConfig.uniform(2, seed=1))

    @pytest.mark.parametrize("variant", ["mlp", "cnn"])
    @pytest.mark.parametrize("name, value", [
        ("lr", float("nan")), ("lr", float("inf")), ("lr", -0.5), ("lr", 0.0),
        ("lr", "0.01"), ("epochs", -3), ("epochs", 0), ("epochs", 1.5),
        ("batch_size", -4), ("batch_size", 0),
    ])
    def test_bad_training_argument_is_named(self, data, variant, name, value):
        with pytest.raises(ValueError, match=name):
            train(ModelSpec(variant, params={name: value}), data)


class TestFlatLayout:
    def test_params_are_views_of_theta_in_layer_order(self):
        net = build_cnn(np.random.default_rng([13, 1]), length=16, filters=(2, 3),
                        kernel=3, pool=2, dense_widths=(5, 4))
        params = net.params()
        assert [p.shape for p in params] == [
            (2, 1, 3), (2,), (3, 2, 3), (3,), (18, 5), (5,), (5, 4), (4,)
        ]
        assert np.array_equal(np.concatenate([p.ravel() for p in params]), net.theta)
        assert all(np.shares_memory(p, net.theta) for p in params)
        net.theta[:] = np.arange(net.theta.size)
        assert params[0][1, 0, 2] == 5.0 and params[1][0] == 6.0

    @pytest.mark.parametrize("build, args, name", [
        (build_mlp, {"dropout_rate": 1.0}, "dropout_rate"),
        (build_mlp, {"dropout_rate": -0.1}, "dropout_rate"),
        (build_mlp, {"widths": (8, 0, 4)}, "widths"),
        (build_mlp, {"widths": (8.5, 4)}, "widths"),
        (build_mlp, {"widths": (8, 3)}, "widths"),
        (build_mlp, {"n_in": 0}, "n_in"),
        (build_cnn, {"kernel": 0}, "kernel"),
        (build_cnn, {"pool": 0}, "pool"),
        (build_cnn, {"filters": (16, -1)}, "filters"),
        (build_cnn, {"filters": (16,)}, "filters"),
        (build_cnn, {"dense_widths": (125, 2.0, 4)}, "dense_widths"),
        (build_cnn, {"length": 9, "kernel": 5}, "pool"),
        (build_cnn, {"dropout_rate": 7}, "dropout_rate"),
    ])
    def test_bad_builder_argument_is_named(self, build, args, name):
        with pytest.raises(ValueError, match=name):
            build(np.random.default_rng(0), **args)


class TestSerialization:
    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_round_trip(self, kind):
        rng = np.random.default_rng([11, 1])
        if kind == "mlp":
            net = build_mlp(rng, n_in=10, widths=(6, 4))
            probe = np.random.default_rng(11).normal(size=(3, 10))
        else:
            net = build_cnn(rng, length=16, filters=(2, 2), kernel=3, pool=2,
                            dense_widths=(5, 4))
            probe = np.random.default_rng(11).normal(size=(3, 1, 16))
        back = Network.from_dict(json.loads(json.dumps(net.to_dict(), default=pack)))
        assert (back.theta.dtype, back.theta.shape) == (net.theta.dtype, net.theta.shape)
        assert np.array_equal(back.theta, net.theta)
        assert np.array_equal(net.predict_proba(probe), back.predict_proba(probe))
