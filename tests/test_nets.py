import numpy as np
import pytest

from placescan.classifiers.nets import (
    Adam,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    MaxPool1D,
    Network,
    ReLU,
    adam_step,
    build_cnn,
    build_mlp,
    softmax_cross_entropy,
    train_network,
)


def flat_loss(net, x, onehot, flat, shapes):
    """Loss at a flattened parameter vector (dropout off)."""
    values = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape))
        values.append(flat[offset : offset + size].reshape(shape))
        offset += size
    net.set_params(values)
    logits = net.forward(x, train=False)
    return softmax_cross_entropy(logits, onehot)[0]


def check_gradients(net, x, onehot, h=1e-6, tol=1e-5):
    params = net.params()
    shapes = [p.shape for p in params]
    flat = np.concatenate([p.ravel() for p in params])
    _, grads = net.loss_and_grads(x, onehot, train=False)
    analytic = np.concatenate([g.ravel() for g in grads])
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += h
        down[i] -= h
        numeric[i] = (
            flat_loss(net, x, onehot, up, shapes)
            - flat_loss(net, x, onehot, down, shapes)
        ) / (2 * h)
    scale = max(float(np.abs(numeric).max()), 1.0)
    assert float(np.abs(analytic - numeric).max()) / scale <= tol


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        p = np.array([1.0, -2.0])
        new_p, m, v = adam_step(p, np.zeros(2), np.zeros(2), np.zeros(2), 1, lr=0.01)
        assert np.allclose(new_p, p)

    def test_first_step_magnitude_is_learning_rate(self):
        p = np.zeros(3)
        g = np.array([5.0, -0.01, 123.0])
        new_p, _, _ = adam_step(p, g, np.zeros(3), np.zeros(3), 1, lr=0.01)
        # bias correction makes the first update lr * sign(g) (up to eps)
        assert np.allclose(new_p, -0.01 * np.sign(g), atol=1e-6)

    def test_optimizer_descends_quadratic(self):
        p = [np.array([10.0])]
        opt = Adam(p, lr=0.1)
        for _ in range(500):
            opt.step(p, [2.0 * p[0]])
        assert abs(p[0][0]) < 1e-2


class TestLayers:
    def test_maxpool_takes_first_index_on_ties(self):
        pool = MaxPool1D(2)
        x = np.full((1, 1, 4), 3.0)
        out = pool.forward(x, train=False, rng=None)
        dx = pool.backward(np.ones_like(out))
        assert np.array_equal(dx[0, 0], [1.0, 0.0, 1.0, 0.0])

    def test_conv_zero_sum_kernel_ignores_constant_shift(self):
        rng = np.random.default_rng(0)
        conv = Conv1D(1, 1, 3, rng)
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
        back = Network.from_dict(net.to_dict())
        assert np.allclose(net.predict_proba(probe), back.predict_proba(probe))
