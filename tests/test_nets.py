import json
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from placescan.blas import one_thread
from placescan.classifiers import ModelSpec, model_from_json, model_to_json, train
from placescan.classifiers.linear import softmax
from placescan.classifiers.nets import (
    Adam,
    Conv1D,
    Dropout,
    Flatten,
    MaxPool1D,
    Network,
    build_cnn,
    build_mlp,
    softmax_cross_entropy,
    train_network,
)
from placescan.core import pack, restore, stored
from placescan.errors import DimensionError
from placescan.simulate import SimConfig, generate_dataset


class Im2colConv1D:
    """Oracle: valid cross-correlation over (batch, channels, length) signals
    by im2col (Chellapilla, Puri & Simard 2006), the layer that `Conv1D`
    replaced. A one-channel layer also takes (batch, length) rows."""

    def __init__(self, W, b):
        self.W, self.b = W, b
        self.gW, self.gb = np.zeros_like(W), np.zeros_like(b)
        self.kernel = W.shape[2]

    def forward(self, x, train, rng):
        self._flat = x.ndim == 2 and self.W.shape[1] == 1
        if self._flat:
            x = x[:, None, :]
        B, C, L = x.shape
        k = self.kernel
        L_out = L - k + 1
        xw = np.lib.stride_tricks.sliding_window_view(x, k, axis=2)
        self._cols = xw.transpose(0, 2, 1, 3).reshape(B * L_out, C * k)
        self._dims = (B, C, L, L_out)
        O = self.W.shape[0]
        out = self._cols @ self.W.reshape(O, C * k).T + self.b
        return out.reshape(B, L_out, O).transpose(0, 2, 1), self.backward

    def backward(self, dy):
        B, C, L, L_out = self._dims
        k = self.kernel
        O = self.W.shape[0]
        dym = dy.transpose(0, 2, 1).reshape(B * L_out, O)
        self.gW[...] = (dym.T @ self._cols).reshape(O, C, k)
        self.gb[...] = dy.sum(axis=(0, 2))
        dy_pad = np.pad(dy, ((0, 0), (0, 0), (k - 1, k - 1)))
        dyw = np.lib.stride_tricks.sliding_window_view(dy_pad, k, axis=2)
        cols = dyw.transpose(0, 2, 1, 3).reshape(B * L, O * k)
        w_flip = self.W[:, :, ::-1].transpose(0, 2, 1).reshape(O * k, C)
        dx = (cols @ w_flip).reshape(B, L, C).transpose(0, 2, 1)
        return dx[:, 0, :] if self._flat else dx


class ArgmaxMaxPool1D:
    """Oracle: non-overlapping max pooling over (batch, channels, length)
    signals by argmax, which routes ties to the first index."""

    def __init__(self, size):
        self.size = size

    def forward(self, x, train, rng):
        B, C, L = x.shape
        Lp = L // self.size
        self._in_shape = x.shape
        windows = x[:, :, : Lp * self.size].reshape(B, C, Lp, self.size)
        self._argmax = windows.argmax(axis=3)
        return windows.max(axis=3), self.backward

    def backward(self, dy):
        B, C, L = self._in_shape
        Lp = dy.shape[2]
        dx = np.zeros((B, C, Lp, self.size))
        idx = np.indices((B, C, Lp))
        dx[idx[0], idx[1], idx[2], self._argmax] = dy
        out = np.zeros(self._in_shape)
        out[:, :, : Lp * self.size] = dx.reshape(B, C, Lp * self.size)
        return out


class ChannelsFirstFlatten:
    def forward(self, x, train, rng):
        return x.reshape(x.shape[0], -1), None


def oracle_stack(net):
    """The layers of a cnn `net` with the conv, pool and flatten layers
    swapped for the channels-first oracles, on the same `W` and `b`."""
    stack = []
    for layer in net.layers:
        if isinstance(layer, Conv1D):
            layer = Im2colConv1D(layer.W, layer.b)
        elif isinstance(layer, MaxPool1D):
            layer = ArgmaxMaxPool1D(layer.size)
        elif isinstance(layer, Flatten):
            layer = ChannelsFirstFlatten()
        stack.append(layer)
    return stack


def assert_close(got, want, rel=1e-12):
    """Every entry within `rel` of the largest magnitude in `want`."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def channels_last(a):
    return np.ascontiguousarray(a.transpose(0, 2, 1))


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
        x = np.full((1, 4, 2), 3.0)  # (batch, length, channels)
        out, backward = pool.forward(x, train=False, rng=None)
        dx = backward(np.ones_like(out))
        assert np.array_equal(dx[0], [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])

    def test_conv_zero_sum_kernel_ignores_constant_shift(self):
        rng = np.random.default_rng(0)
        conv = build_cnn(rng, length=9, filters=(1, 1), kernel=3, pool=1,
                         dense_widths=(4,)).layers[0]
        conv.W[...] = np.array([[[1.0, -2.0, 1.0]]])
        conv.b[...] = 0.0
        x = rng.normal(size=(2, 1, 9))
        a, _ = conv.forward(x, train=False, rng=None)
        b, _ = conv.forward(x + 7.5, train=False, rng=None)
        assert a.shape == (2, 7, 1)  # (batch, length, channels)
        assert np.allclose(a, b)
        assert np.array_equal(conv.forward(x[:, 0, :], train=False, rng=None)[0], a)

    def test_channels_last_conv_zero_sum_kernel_ignores_per_channel_shift(self):
        rng = np.random.default_rng(0)
        conv = build_cnn(rng, length=9, filters=(2, 3), kernel=3, pool=1,
                         dense_widths=(4,)).layers[2]
        conv.W[...] = np.array([1.0, -2.0, 1.0])  # every (out, in) pair sums to 0
        conv.b[...] = 0.0
        x = rng.normal(size=(2, 7, 2))
        a, _ = conv.forward(x, train=False, rng=None)
        b, _ = conv.forward(x + [[[7.5, -3.0]]], train=False, rng=None)
        assert a.shape == (2, 5, 3)
        assert np.allclose(a, b)

    def test_conv_refuses_channels_first_input_and_short_rows(self):
        net = build_cnn(np.random.default_rng(0), length=9, filters=(2, 3), kernel=3,
                        pool=1, dense_widths=(4,))
        with pytest.raises(DimensionError):
            net.layers[2].forward(np.ones((2, 2, 7)), train=False, rng=None)
        with pytest.raises(DimensionError):
            net.layers[0].forward(np.ones((2, 2)), train=False, rng=None)

    def test_cnn_refuses_rows_not_of_its_length(self):
        # 270's conv output of 262 samples pools to the 131 of 271's 263, so
        # nothing but the length check tells those rows apart
        net = build_cnn(np.random.default_rng(0), length=270, filters=(2, 2),
                        dense_widths=(4,))
        assert net.predict_proba(np.ones((2, 270))).shape == (2, 4)
        for rows in (np.ones((2, 271)), np.ones((0, 271)), np.ones((2, 1, 271))):
            with pytest.raises(DimensionError, match="length 270, got 271"):
                net.predict_proba(rows)
        with pytest.raises(DimensionError, match="length 270, got 271"):
            net.loss_and_grads(np.ones((2, 271)), np.eye(4)[:2])

    def test_dropout_off_is_identity(self):
        drop = Dropout(0.5)
        x = np.random.default_rng(1).normal(size=(4, 6))
        assert np.array_equal(drop.forward(x, train=False, rng=None)[0], x)

    def test_dropout_on_scales_kept_units(self):
        drop = Dropout(0.5)
        rng = np.random.default_rng(2)
        x = np.ones((200, 50))
        out, _ = drop.forward(x, train=True, rng=rng)
        kept = out[out != 0]
        assert np.allclose(kept, 2.0)
        assert abs(np.mean(out != 0) - 0.5) < 0.02


_conv_cases = st.builds(
    lambda batch, c_in, c_out, length, kernel_frac, seed, layout: (
        batch, c_in, c_out, length, 1 + int(kernel_frac * (length - 1)), seed, layout),
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 12),
    st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.sampled_from(["last", "first", "flat"]),
)


class TestAgainstIm2colOracle:
    """The channels-last layers against the channels-first layers they replaced,
    on the same `W` and `b`: outputs, dx, gW and gb within 1e-12 relative."""

    @settings(max_examples=200, deadline=None)
    @given(_conv_cases)
    @example((1, 1, 3, 7, 7, 0, "flat"))  # kernel as long as the rows
    @example((3, 4, 2, 9, 1, 1, "last"))  # kernel 1
    @example((2, 1, 2, 6, 3, 2, "first"))
    @example((3, 2, 3, 400, 5, 3, "last"))  # more rows than one block of shifted GEMMs
    def test_conv(self, case):
        B, C, O, L, k, seed, layout = case
        rng = np.random.default_rng(seed)
        W, b = rng.normal(size=(O, C, k)), rng.normal(size=O)
        x, dy = rng.normal(size=(B, C, L)), rng.normal(size=(B, O, L - k + 1))
        oracle = Im2colConv1D(W, b)
        conv = Conv1D(C, O, k)
        conv.W, conv.b, conv.gW, conv.gb = W, b, np.zeros_like(W), np.zeros_like(b)
        if C == 1 and layout == "flat":
            x_new = x_old = x[:, 0, :]
        elif C == 1 and layout == "first":
            x_new = x_old = x
        else:
            x_new, x_old = channels_last(x), x
        out, backward = conv.forward(x_new, train=True, rng=None)
        out_old, backward_old = oracle.forward(x_old, train=True, rng=None)
        assert_close(out, channels_last(out_old))
        dx = backward(channels_last(dy))
        dx_old = backward_old(dy)
        assert_close(dx, dx_old if x_new is x_old else channels_last(dx_old))
        assert_close(conv.gW, oracle.gW)
        assert_close(conv.gb, oracle.gb)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 9),
           st.integers(0, 2**32 - 1))
    @example(1, 1, 2, 1, 0)  # L = 3: a pool of 2 drops the tail
    @example(2, 3, 3, 2, 1)  # L = 5
    def test_maxpool_routes_ties_to_the_first_index(self, B, C, size, extra, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 3, size=(B, C, size + extra)).astype(float)  # ties are common
        dy = rng.normal(size=(B, C, (size + extra) // size))
        oracle, pool = ArgmaxMaxPool1D(size), MaxPool1D(size)
        out, backward = pool.forward(channels_last(x), train=True, rng=None)
        out_old, backward_old = oracle.forward(x, train=True, rng=None)
        assert np.array_equal(out, channels_last(out_old))
        dx = backward(channels_last(dy))
        assert np.array_equal(dx, channels_last(backward_old(dy)))

    @pytest.mark.parametrize("pool", [2, 3])
    @pytest.mark.parametrize("flat", [True, False])
    def test_format_4_cnn_theta_means_the_same(self, pool, flat):
        """A cnn `theta`, as model files hold it, predicts through the new
        stack as through the im2col stack that wrote those files."""
        rng = np.random.default_rng([15, pool])
        built = build_cnn(rng, pool=pool)
        theta = built.theta + rng.normal(scale=0.05, size=built.theta.size)  # biases too
        net = Network("cnn", built.args, theta)
        x = rng.normal(size=(5, 271) if flat else (5, 1, 271))
        logits = x
        for layer in oracle_stack(net):
            logits, _ = layer.forward(logits, train=False, rng=None)
        assert_close(net.predict_proba(x), softmax(logits))


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
        # the first layer's input gradient is skipped, but on request it comes
        # back in the shape of the rows fed forward
        _, backward = net.layers[0].forward(x[:, 0, :], train=False, rng=None)
        assert backward(np.ones((3, 10, 2)), input_grad=False) is None
        assert backward(np.ones((3, 10, 2))).shape == (3, 12)
        _, backward = net.layers[0].forward(x, train=False, rng=None)
        assert backward(np.ones((3, 10, 2))).shape == (3, 1, 12)


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


# float32 gradients against float64 ones: 256 float32 units of roundoff
# (2**-15) relative to each gradient block's largest entry
_F32_REL = 256 * float(np.finfo(np.float32).eps)


class TestFloat32Training:
    @pytest.mark.parametrize("build", [build_mlp, build_cnn])
    def test_float32_backward_matches_float64(self, build):
        """One training step's gradients (dropout on, masks from the same
        stream) at float32 and at float64, on the same float32-exact theta
        and batch."""
        net = build(np.random.default_rng([20, 1]))
        net._bind(net.theta.astype(np.float32).astype(np.float64))
        rng = np.random.default_rng(20)
        x, onehot = rng.normal(size=(32, 271)), np.eye(4)[rng.integers(0, 4, size=32)]
        loss64, grads = net.loss_and_grads(x, onehot, rng=np.random.default_rng(21))
        grads64 = [g.copy() for g in grads]
        net._bind(net.theta.astype(np.float32))
        loss32, grads32 = net.loss_and_grads(x.astype(np.float32), onehot.astype(np.float32),
                                             rng=np.random.default_rng(21))
        assert abs(loss32 - loss64) <= _F32_REL * loss64
        for got, want in zip(grads32, grads64):
            assert got.dtype == np.float32
            assert_close(got, want, rel=_F32_REL)

    @pytest.mark.parametrize("build", [build_mlp, build_cnn])
    def test_no_float64_slips_into_training(self, build, monkeypatch):
        """Every layer's output and input gradient, `theta`, `grad` and Adam's
        moments are float32 throughout `train_network`: a float64 anywhere
        (a dropout mask, say) widens every later GEMM and fails nothing else."""
        net = build(np.random.default_rng([20, 2]))
        seen = set()

        def recording(layer):
            forward, name = layer.forward, type(layer).__name__

            def recorded_forward(x, train, rng):
                out, backward = forward(x, train, rng)
                seen.add((name, "output", out.dtype))

                def recorded_backward(dy, *args, **kwargs):
                    dx = backward(dy, *args, **kwargs)
                    if dx is not None:
                        seen.add((name, "input gradient", dx.dtype))
                    return dx

                return out, recorded_backward

            return recorded_forward

        for layer in net.layers:
            layer.forward = recording(layer)
        step = Adam.step

        def recorded_step(self, theta, grad):
            seen.update({("Adam", "theta", theta.dtype), ("Adam", "grad", grad.dtype),
                         ("Adam", "m", self.m.dtype), ("Adam", "v", self.v.dtype)})
            step(self, theta, grad)

        monkeypatch.setattr(Adam, "step", recorded_step)
        rng = np.random.default_rng(20)
        train_network(net, rng.normal(size=(40, 271)), rng.integers(0, 4, size=40), epochs=1,
                      batch_size=16)
        assert {"Dropout", "Dense", "Adam"} <= {name for name, _, _ in seen}
        assert [entry for entry in seen if entry[2] != np.float32] == []
        assert net.theta.dtype == net.grad.dtype == np.float64

    @pytest.mark.parametrize("variant", ["mlp", "cnn"])
    def test_trained_theta_is_exact_float64_and_round_trips(self, variant):
        data = generate_dataset(SimConfig.uniform(2, seed=1))
        model = train(ModelSpec(variant, params={"epochs": 2}), data)
        theta = model.payload.theta
        assert theta.dtype == np.float64
        assert np.array_equal(theta, theta.astype(np.float32))
        back = model_from_json(model_to_json(model))
        assert np.array_equal(back.predict_proba_matrix(data.X), model.predict_proba_matrix(data.X))


class TestStatelessLayers:
    def test_a_400_row_cnn_prediction_keeps_nothing(self):
        net = build_cnn(np.random.default_rng([19, 1]))
        x = np.random.default_rng(19).normal(size=(400, 271))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            proba = net.predict_proba(x)
            kept = tracemalloc.get_traced_memory()[0] - before - proba.nbytes
        finally:
            tracemalloc.stop()
        assert kept < 1e6

    def test_threads_share_one_model_for_inference(self):
        net = build_cnn(np.random.default_rng([19, 2]))
        rng = np.random.default_rng(19)
        batches = {size: rng.normal(size=(size, 271)) for size in (64, 3)}
        with one_thread():  # BLAS rounding then matches whichever thread calls
            serial = {size: net.predict_proba(x) for size, x in batches.items()}
            with ThreadPoolExecutor(2) as pool:
                runs = pool.map(lambda size: [net.predict_proba(batches[size])
                                              for _ in range(20)], batches)
                threaded = dict(zip(batches, runs))
        for size, outputs in threaded.items():
            assert all(np.array_equal(out, serial[size]) for out in outputs)

    def test_only_a_training_step_writes_and_only_its_closure_list(self):
        net = build_cnn(np.random.default_rng([19, 3]), length=16, filters=(2, 3),
                        kernel=3, pool=2, dense_widths=(5, 4))
        rng = np.random.default_rng(19)
        x, onehot = rng.normal(size=(6, 16)), np.eye(4)[rng.integers(0, 4, size=6)]

        def state():
            return ([{k: id(v) for k, v in vars(obj).items()} for obj in [net, *net.layers]],
                    [id(step) for step in net._backward])

        attributes, _ = state()
        net.loss_and_grads(x, onehot, train=True, rng=rng)
        stepped = state()
        assert stepped[0] == attributes
        net.predict_proba(x)
        assert state() == stepped


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
        back = restore(Network, json.loads(json.dumps(stored(net), default=pack)))
        assert (back.theta.dtype, back.theta.shape) == (net.theta.dtype, net.theta.shape)
        assert np.array_equal(back.theta, net.theta)
        assert np.array_equal(net.predict_proba(probe), back.predict_proba(probe))
