"""Feed-forward and 1-D convolutional networks with exact backpropagation.

Training is single precision, everything else double. `train_network`
casts the rows and one-hot targets to float32 once and rebinds the network
to a float32 copy of `theta` for the whole loop, so its GEMMs, Adam's
moments and the layers' buffers and dropout masks (each layer allocates in
its input's dtype) are float32. When training ends it rebinds to that
`theta` widened to float64, which is exact; so inference, the model file's
`<f8` `theta` and the gradient oracles, which call the builders and
`loss_and_grads` directly, all run in float64.

A `Network` keeps its parameters in one flat vector `theta`: each weighted
layer's `W` (C order), then its `b`, in layer order. `W` and `b` are views
of `theta`, and `gW` and `gb` the matching views of `grad`, which backward
passes write in place (`self.gW[...] = ...`); so one `Adam.step(theta,
grad)` updates every layer. Layers keep no state: `forward(x, train, rng)`
returns the output and a closure `backward(dy)` that returns the input
gradient; `loss_and_grads` skips the first layer's, which nothing uses, and
inference drops them all, so one model may serve several threads. Conv
activations are channels-last, (batch, length, channels), but `theta` keeps
conv `W` as (out, in, kernel) and the dense rows behind `Flatten` in
(channels, length) order. Dropout is inverted (masks scaled by 1/(1-rate))
and drawn from the rng passed to the forward call, so training is fully
seeded. A model file holds the builder name, its arguments and `theta`.
"""
from __future__ import annotations

import inspect
import math

import numpy as np

from ..core import NUM_CLASSES, Float64s
from ..errors import DimensionError
from ..hyperparams import COUNT, RATE, Count, Positive, Rate, Seed, checked
from .linear import softmax


class Dense:
    def __init__(self, n_in: int, n_out: int):
        self.shapes = ((n_in, n_out), (n_out,))
        self.fan_in = n_in

    def forward(self, x, train, rng):
        if x.shape[1] != self.W.shape[0]:
            raise DimensionError(f"dense layer expects width {self.W.shape[0]}, got {x.shape[1]}")

        def backward(dy, input_grad=True):
            self.gW[...] = x.T @ dy
            self.gb[...] = dy.sum(axis=0)
            return dy @ self.W.T if input_grad else None

        return x @ self.W + self.b, backward


class ReLU:
    def forward(self, x, train, rng):
        mask = x > 0
        return x * mask, lambda dy: dy * mask


class Dropout:
    def __init__(self, rate: float):
        self.rate = rate

    def forward(self, x, train, rng):
        if not train or self.rate == 0.0:
            return x, lambda dy: dy
        keep = 1.0 - self.rate
        mask = ((rng.random(x.shape) < keep) / keep).astype(x.dtype)
        return x * mask, lambda dy: dy * mask


_BLOCK = 1024  # output rows per block of shifted GEMMs; its partial sums stay in cache


def _correlate(signal, taps, out):
    """out[r] = sum_j signal[r + j] @ taps[j] over the rows r of `out`."""
    for r in range(0, len(out), _BLOCK):
        block = out[r : r + _BLOCK]
        n = len(block)
        np.matmul(signal[r : r + n], taps[0], out=block)
        for j in range(1, len(taps)):
            block += signal[r + j : r + j + n] @ taps[j]
    return out


class Conv1D:
    """Valid cross-correlation over (batch, length, channels) signals as k
    shifted GEMMs (kn2row; Vasudevan, Anderson & Gregg 2017): with the batch
    one contiguous (B*L, C) signal x and N = B*L - k + 1, out[:N] =
    sum_j x[j:j+N] @ W[:, :, j].T + b on row slices, and the B*(k-1) rows
    that straddle two samples dropped. One channel also comes as (B, L) or
    (B, 1, L) rows, whose sliding windows are a view: one GEMM. dx, in the
    input's shape, is the same correlation with the taps reversed over dy
    zero-padded by k-1 rows; the closure's `input_grad=False` skips it. A
    given `length` is the only signal length the layer takes."""

    def __init__(self, c_in: int, c_out: int, kernel: int, length: int | None = None):
        self.shapes = ((c_out, c_in, kernel), (c_out,))
        self.fan_in = c_in * kernel
        self.length = length

    def forward(self, x, train, rng):
        O, C, k = self.W.shape
        in_shape = x.shape
        if C == 1 and (x.ndim == 2 or x.ndim == 3 and x.shape[1] == 1):
            x = x.reshape(len(x), x.shape[-1], 1)
        if x.ndim != 3 or x.shape[2] != C or x.shape[1] < k:
            raise DimensionError(f"conv layer expects (batch, length >= {k}, {C}) input")
        if self.length not in (None, x.shape[1]):
            raise DimensionError(f"conv layer expects signals of length {self.length}, "
                                 f"got {x.shape[1]}")
        B, L, _ = x.shape
        x = x.reshape(B * L, C)
        out = np.empty((B * L, O), x.dtype)
        if C == 1 and B:  # an empty batch has no windows to view
            windows = np.lib.stride_tricks.sliding_window_view(x[:, 0], k)
            np.matmul(windows, self.W[:, 0].T, out=out[: len(windows)])
        else:
            _correlate(x, np.ascontiguousarray(self.W.transpose(2, 1, 0)), out[: B * L - k + 1])
        out[: B * L - k + 1] += self.b

        def backward(dy, input_grad=True):
            padded = np.zeros((k - 1 + len(x), O), x.dtype)
            padded[k - 1 :].reshape(B, L, O)[:, : L - k + 1] = dy
            d = padded[k - 1 : len(padded) - k + 1]
            for j in range(k):
                self.gW[:, :, j] = d.T @ x[j : j + len(d)]
            self.gb[...] = dy.sum(axis=(0, 1))
            if input_grad:
                taps = np.ascontiguousarray(self.W.transpose(2, 0, 1)[::-1])
                return _correlate(padded, taps, np.empty(x.shape, x.dtype)).reshape(in_shape)

        return out.reshape(B, L, O)[:, : L - k + 1], backward


class MaxPool1D:
    """Non-overlapping max pooling over (batch, length, channels) signals, the
    max of `size` strided slices; ties route the gradient to the first index."""

    def __init__(self, size: int = 2):
        self.size = size

    def forward(self, x, train, rng):
        p = self.size
        end = x.shape[1] // p * p
        out = x[:, 0:end:p]
        for i in range(1, p):
            out = np.maximum(out, x[:, i:end:p])

        def backward(dy):
            dx = np.zeros(x.shape, x.dtype)
            unrouted = np.ones(out.shape, dtype=bool)
            for i in range(p):
                hit = unrouted & (x[:, i:end:p] == out)
                np.copyto(dx[:, i:end:p], dy, where=hit)
                unrouted &= ~hit
            return dx

        return out, backward


class Flatten:
    """(batch, length, channels) to channel-major rows: the (channels,
    length) order of the next dense layer's rows in `theta`."""

    def forward(self, x, train, rng):
        B, L, C = x.shape
        return (x.transpose(0, 2, 1).reshape(B, C * L),
                lambda dy: dy.reshape(B, C, L).transpose(0, 2, 1))


def softmax_cross_entropy(logits: np.ndarray, onehot: np.ndarray):
    """(mean cross-entropy over the batch, its gradient wrt the logits)."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = -np.sum(onehot * (z - np.log(e.sum(axis=1, keepdims=True)))) / n
    return float(loss), (p - onehot) / n


def _dense_stack(n_in: int, name: str, widths, dropout_after, dropout_rate) -> list:
    """Dense layers from n_in through `widths`, which must end with the class
    outputs; ReLU behind each hidden layer, then dropout behind the hidden
    layers (0-based) that `dropout_after` indexes."""
    dims = [n_in, *(COUNT.check(name, width) for width in widths)]
    if len(dims) < 2 or dims[-1] != NUM_CLASSES:
        raise ValueError(f"{name} must end with {NUM_CLASSES} outputs, got {widths!r}")
    layers: list = []
    for i, (fan_in, width) in enumerate(zip(dims, dims[1:])):
        layers.append(Dense(fan_in, width))
        if i < len(dims) - 2:
            layers.append(ReLU())
            if i in dropout_after:
                layers.append(Dropout(dropout_rate))
    return layers


def _mlp_layers(n_in, widths, dropout_after, dropout_rate) -> list:
    RATE.check("mlp dropout_rate", dropout_rate)
    return _dense_stack(COUNT.check("mlp n_in", n_in), "mlp widths", widths, dropout_after,
                        dropout_rate)


def _cnn_layers(length, filters, kernel, pool, dense_widths, dropout_rate) -> list:
    RATE.check("cnn dropout_rate", dropout_rate)
    if len(filters) != 2:
        raise ValueError(f"cnn filters must hold two filter counts, got {filters!r}")
    c1, c2 = (COUNT.check("cnn filters", f) for f in filters)
    conv_len = COUNT.check("cnn length", length) - 2 * (COUNT.check("cnn kernel", kernel) - 1)
    if conv_len < COUNT.check("cnn pool", pool):
        raise ValueError(f"the conv output ({conv_len} samples) is shorter than cnn pool {pool}")
    return [Conv1D(1, c1, kernel, length), ReLU(), Conv1D(c1, c2, kernel), ReLU(), MaxPool1D(pool),
            Flatten(), Dropout(dropout_rate),
            *_dense_stack(c2 * (conv_len // pool), "cnn dense_widths", dense_widths, (), 0.0)]


# builder name -> checked layer list from its keyword arguments; no arrays yet
_LAYERS = {"mlp": _mlp_layers, "cnn": _cnn_layers}


class Network:
    """A layer stack whose parameters are views of one flat vector `theta`."""

    def __init__(self, builder: str, args: dict, theta: Float64s | None = None):
        """The `builder` architecture with exactly its keyword `args`. A given
        `theta` must be of the architecture's length, checked before anything
        is allocated; None starts every parameter at zero."""
        if builder not in _LAYERS:
            raise ValueError(f"unknown network builder {builder!r}; use {sorted(_LAYERS)}")
        expected = set(inspect.signature(_LAYERS[builder]).parameters)
        if not isinstance(args, dict) or set(args) != expected:
            raise ValueError(f"{builder} network args must be exactly {sorted(expected)}")
        self.builder, self.args = builder, args
        self.layers = _LAYERS[builder](**args)
        self._weighted = [layer for layer in self.layers if hasattr(layer, "shapes")]
        size = sum(math.prod(s) for layer in self._weighted for s in layer.shapes)
        if theta is None:
            theta = np.zeros(size)
        elif theta.shape != (size,):
            raise ValueError(f"network theta holds {theta.size} values; "
                             f"the {builder} architecture has {size} parameters")
        # loss_and_grads' closures, replaced slot by slot (freeing a step at once re-faults it)
        self._backward: list = [None] * len(self.layers)
        self._bind(theta)

    def _bind(self, theta: np.ndarray) -> None:
        """Make `theta`, and a zeroed `grad` of its dtype, the vectors whose
        views every weighted layer's `W`, `b`, `gW` and `gb` are."""
        self.theta, self.grad = theta, np.zeros_like(theta)
        offset = 0
        for layer in self._weighted:
            for name, shape in zip(("W", "b"), layer.shapes):
                end = offset + math.prod(shape)
                setattr(layer, name, self.theta[offset:end].reshape(shape))
                setattr(layer, "g" + name, self.grad[offset:end].reshape(shape))
                offset = end

    def forward(self, x, train=False, rng=None):
        for layer in self.layers:
            x = layer.forward(x, train, rng)[0]
        return x

    def predict_proba(self, x):
        return softmax(self.forward(x, train=False))

    def loss_and_grads(self, x, onehot, train=True, rng=None):
        """Batch loss, and the gradient views `[gW, gb, ...]` of `grad`."""
        for i, layer in enumerate(self.layers):
            x, self._backward[i] = layer.forward(x, train, rng)
        loss, grad = softmax_cross_entropy(x, onehot)
        for backward in self._backward[:0:-1]:
            grad = backward(grad)
        self._backward[0](grad, input_grad=False)
        return loss, [g for layer in self._weighted for g in (layer.gW, layer.gb)]

    def params(self):
        """The parameter views `[W, b, ...]` of `theta`, in layer order."""
        return [p for layer in self._weighted for p in (layer.W, layer.b)]


# Adam's moment decays and denominator guard, Kingma & Ba's defaults
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Kingma & Ba (2015), Algorithm 1, on one flat parameter vector: `step`
    works in place, in the order and so with the rounding of
    m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    theta = theta - lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps)."""

    def __init__(self, theta, lr=0.01):
        self.lr, self.t = lr, 0
        self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)
        self._step, self._denom = np.empty_like(theta), np.empty_like(theta)

    def step(self, theta, grad):
        self.t += 1
        m, v, step, denom = self.m, self.v, self._step, self._denom
        m *= BETA1
        m += np.multiply(grad, 1.0 - BETA1, out=step)
        v *= BETA2
        np.multiply(grad, 1.0 - BETA2, out=step)
        v += np.multiply(step, grad, out=step)
        np.sqrt(np.divide(v, 1.0 - BETA2**self.t, out=denom), out=denom)
        denom += EPS
        np.multiply(np.divide(m, 1.0 - BETA1**self.t, out=step), self.lr, out=step)
        theta -= np.divide(step, denom, out=step)


def _he_uniform(net: Network, rng: np.random.Generator) -> Network:
    """Draw every W uniform in +-sqrt(6 / fan_in), layer by layer; b stays 0."""
    for layer in net._weighted:
        limit = np.sqrt(6.0 / layer.fan_in)
        layer.W[...] = rng.uniform(-limit, limit, size=layer.W.shape)
    return net


def build_mlp(rng: np.random.Generator, n_in: int = 271, widths=(481, 364, 256, 125, 50, 4),
              dropout_after=(1, 3), dropout_rate: float = 0.5) -> Network:
    """Dense stack with ReLU hidden activations and softmax output.

    `dropout_after` indexes the hidden layers (0-based) that get a dropout
    layer behind their activation.
    """
    args = {"n_in": n_in, "widths": list(widths), "dropout_after": list(dropout_after),
            "dropout_rate": dropout_rate}
    return _he_uniform(Network("mlp", args), rng)


def build_cnn(rng: np.random.Generator, length: int = 271, filters=(16, 32), kernel: int = 5,
              pool: int = 2, dense_widths=(125, 50, 4), dropout_rate: float = 0.25) -> Network:
    """Two conv layers, one max-pool, flatten, dropout, three dense layers."""
    args = {"length": length, "filters": list(filters), "kernel": kernel, "pool": pool,
            "dense_widths": list(dense_widths), "dropout_rate": dropout_rate}
    return _he_uniform(Network("cnn", args), rng)


@checked
def train_network(net: Network, X: np.ndarray, y: np.ndarray, *, epochs: Count = 30,
                  batch_size: Count = 32, lr: Positive = 0.01, seed: Seed = 42) -> list[float]:
    """Seeded mini-batch Adam training in float32; returns per-epoch mean
    losses. `net` ends with its float64 `theta` rebound to the trained
    values, widened exactly, even if training raises."""
    n = X.shape[0]
    X, Y = X.astype(np.float32), np.eye(NUM_CLASSES, dtype=np.float32)[y]
    rng = np.random.default_rng([seed, 910])
    net._bind(net.theta.astype(np.float32))
    try:
        optimizer = Adam(net.theta, lr=lr)
        history = []
        for _ in range(epochs):
            perm = rng.permutation(n)
            losses = []
            for start in range(0, n, batch_size):
                idx = perm[start : start + batch_size]
                loss, _ = net.loss_and_grads(X[idx], Y[idx], train=True, rng=rng)
                optimizer.step(net.theta, net.grad)
                losses.append(loss)
            history.append(float(np.mean(losses)))
    finally:
        net._bind(net.theta.astype(np.float64))
    return history


@checked
def train_mlp(X, y, *, epochs: Count = 30, batch_size: Count = 32, lr: Positive = 0.001,
              dropout: Rate = 0.5, seed: Seed = 42) -> Network:
    """The dense variant: build_mlp weights drawn from (seed, 11), then Adam."""
    net = build_mlp(np.random.default_rng([seed, 11]), X.shape[1], dropout_rate=dropout)
    train_network(net, X, y, epochs=epochs, batch_size=batch_size, lr=lr, seed=seed)
    return net


@checked
def train_cnn(X, y, *, epochs: Count = 30, batch_size: Count = 32, lr: Positive = 0.01,
              dropout: Rate = 0.25, seed: Seed = 42) -> Network:
    """The convolutional variant: build_cnn weights drawn from (seed, 12),
    then Adam on the (batch, length) rows."""
    net = build_cnn(np.random.default_rng([seed, 12]), X.shape[1], dropout_rate=dropout)
    train_network(net, X, y, epochs=epochs, batch_size=batch_size, lr=lr, seed=seed)
    return net
