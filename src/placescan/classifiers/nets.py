"""Feed-forward and 1-D convolutional networks with exact backpropagation.

Everything is double precision numpy. Layers cache what they need during
forward and return input gradients during backward; the Adam update is a
pure function so the optimizer state is explicit and testable. Dropout is
inverted (masks scaled by 1/(1-rate)) and drawn from the rng passed to the
forward call, so training is fully seeded.
"""
from __future__ import annotations

import numpy as np

from ..core import NUM_CLASSES
from ..errors import DimensionError


def he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


class Dense:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.W = he_uniform(rng, (n_in, n_out), n_in)
        self.b = np.zeros(n_out)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)

    def forward(self, x, train, rng):
        if x.shape[1] != self.W.shape[0]:
            raise DimensionError(
                f"dense layer expects width {self.W.shape[0]}, got {x.shape[1]}"
            )
        self._x = x
        return x @ self.W + self.b

    def backward(self, dy):
        self.gW = self._x.T @ dy
        self.gb = dy.sum(axis=0)
        return dy @ self.W.T

    def params(self):
        return [self.W, self.b]

    def grads(self):
        return [self.gW, self.gb]


class ReLU:
    def forward(self, x, train, rng):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dy):
        return dy * self._mask

    def params(self):
        return []

    def grads(self):
        return []


class Dropout:
    def __init__(self, rate: float):
        self.rate = rate

    def forward(self, x, train, rng):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, dy):
        return dy if self._mask is None else dy * self._mask

    def params(self):
        return []

    def grads(self):
        return []


class Conv1D:
    """Valid cross-correlation over (batch, channels, length) signals.

    A one-channel layer also takes (batch, length) signals and returns input
    gradients in that same shape.
    """

    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator):
        self.W = he_uniform(rng, (c_out, c_in, kernel), c_in * kernel)
        self.b = np.zeros(c_out)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)
        self.kernel = kernel

    def forward(self, x, train, rng):
        self._flat = x.ndim == 2 and self.W.shape[1] == 1
        if self._flat:
            x = x[:, None, :]
        if x.ndim != 3 or x.shape[1] != self.W.shape[1]:
            raise DimensionError(
                f"conv layer expects (batch, {self.W.shape[1]}, length) input"
            )
        if x.shape[2] < self.kernel:
            raise DimensionError("input shorter than the convolution kernel")
        B, C, L = x.shape
        k = self.kernel
        L_out = L - k + 1
        xw = np.lib.stride_tricks.sliding_window_view(x, k, axis=2)
        # im2col: (B*L_out, C*k) rows against a (C*k, O) weight matrix
        self._cols = xw.transpose(0, 2, 1, 3).reshape(B * L_out, C * k)
        self._dims = (B, C, L, L_out)
        O = self.W.shape[0]
        out = self._cols @ self.W.reshape(O, C * k).T + self.b
        return out.reshape(B, L_out, O).transpose(0, 2, 1)

    def backward(self, dy):
        B, C, L, L_out = self._dims
        k = self.kernel
        O = self.W.shape[0]
        dym = dy.transpose(0, 2, 1).reshape(B * L_out, O)
        self.gW = (dym.T @ self._cols).reshape(O, C, k)
        self.gb = dy.sum(axis=(0, 2))
        dy_pad = np.pad(dy, ((0, 0), (0, 0), (k - 1, k - 1)))
        dyw = np.lib.stride_tricks.sliding_window_view(dy_pad, k, axis=2)
        cols = dyw.transpose(0, 2, 1, 3).reshape(B * L, O * k)
        w_flip = self.W[:, :, ::-1].transpose(0, 2, 1).reshape(O * k, C)
        dx = (cols @ w_flip).reshape(B, L, C).transpose(0, 2, 1)
        return dx[:, 0, :] if self._flat else dx

    def params(self):
        return [self.W, self.b]

    def grads(self):
        return [self.gW, self.gb]


class MaxPool1D:
    """Non-overlapping max pooling; ties route the gradient to the first index."""

    def __init__(self, size: int = 2):
        self.size = size

    def forward(self, x, train, rng):
        B, C, L = x.shape
        Lp = L // self.size
        self._in_shape = x.shape
        windows = x[:, :, : Lp * self.size].reshape(B, C, Lp, self.size)
        self._argmax = windows.argmax(axis=3)
        return windows.max(axis=3)

    def backward(self, dy):
        B, C, L = self._in_shape
        Lp = dy.shape[2]
        dx = np.zeros((B, C, Lp, self.size))
        idx = np.indices((B, C, Lp))
        dx[idx[0], idx[1], idx[2], self._argmax] = dy
        out = np.zeros(self._in_shape)
        out[:, :, : Lp * self.size] = dx.reshape(B, C, Lp * self.size)
        return out

    def params(self):
        return []

    def grads(self):
        return []


class Flatten:
    def forward(self, x, train, rng):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        return dy.reshape(self._shape)

    def params(self):
        return []

    def grads(self):
        return []


def softmax_cross_entropy(logits: np.ndarray, onehot: np.ndarray):
    """Mean cross-entropy over the batch and the gradient wrt logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = -np.sum(onehot * (z - np.log(e.sum(axis=1, keepdims=True)))) / n
    return float(loss), (p - onehot) / n, p


class Network:
    def __init__(self, layers: list):
        self.layers = layers

    def forward(self, x, train=False, rng=None):
        for layer in self.layers:
            x = layer.forward(x, train, rng)
        return x

    def predict_proba(self, x):
        logits = self.forward(x, train=False)
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def loss_and_grads(self, x, onehot, train=True, rng=None):
        logits = self.forward(x, train=train, rng=rng)
        loss, dlogits, _ = softmax_cross_entropy(logits, onehot)
        grad = dlogits
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return loss, self.grads()

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def grads(self):
        return [g for layer in self.layers for g in layer.grads()]

    def set_params(self, values):
        own = self.params()
        if len(own) != len(values):
            raise DimensionError("parameter list length mismatch")
        for p, v in zip(own, values):
            p[...] = np.asarray(v, dtype=np.float64).reshape(p.shape)

    def to_dict(self) -> dict:
        return {"layers": [_layer_to_dict(layer) for layer in self.layers]}

    @classmethod
    def from_dict(cls, payload: dict) -> "Network":
        return cls([_layer_from_dict(entry) for entry in payload["layers"]])


def adam_step(param, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update; returns (param, m, v) as new arrays."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class Adam:
    def __init__(self, params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        self.t += 1
        for i, (p, g) in enumerate(zip(params, grads)):
            new_p, self.m[i], self.v[i] = adam_step(
                p, g, self.m[i], self.v[i], self.t, self.lr,
                self.beta1, self.beta2, self.eps,
            )
            p[...] = new_p


def build_mlp(rng: np.random.Generator, n_in: int = 271, widths=(481, 364, 256, 125, 50, 4),
              dropout_after=(1, 3), dropout_rate: float = 0.5) -> Network:
    """Dense stack with ReLU hidden activations and softmax output.

    `dropout_after` indexes the hidden layers (0-based) that get a dropout
    layer behind their activation.
    """
    layers: list = []
    prev = n_in
    for i, width in enumerate(widths):
        layers.append(Dense(prev, width, rng))
        if i < len(widths) - 1:
            layers.append(ReLU())
            if i in dropout_after:
                layers.append(Dropout(dropout_rate))
        prev = width
    return Network(layers)


def build_cnn(rng: np.random.Generator, length: int = 271,
              filters=(16, 32), kernel: int = 5, pool: int = 2,
              dense_widths=(125, 50, 4), dropout_rate: float = 0.25) -> Network:
    """Two conv layers, one max-pool, flatten, dropout, three dense layers."""
    layers: list = [
        Conv1D(1, filters[0], kernel, rng),
        ReLU(),
        Conv1D(filters[0], filters[1], kernel, rng),
        ReLU(),
        MaxPool1D(pool),
        Flatten(),
        Dropout(dropout_rate),
    ]
    conv_len = length - 2 * (kernel - 1)
    flat = filters[1] * (conv_len // pool)
    prev = flat
    for i, width in enumerate(dense_widths):
        layers.append(Dense(prev, width, rng))
        if i < len(dense_widths) - 1:
            layers.append(ReLU())
        prev = width
    return Network(layers)


def train_network(
    net: Network,
    X: np.ndarray,
    y: np.ndarray,
    epochs: int = 30,
    batch_size: int = 32,
    lr: float = 0.01,
    seed: int = 42,
) -> list[float]:
    """Seeded mini-batch Adam training; returns per-epoch mean losses."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    Y = np.eye(NUM_CLASSES)[y]
    rng = np.random.default_rng([seed, 910])
    optimizer = Adam(net.params(), lr=lr)
    history = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            loss, grads = net.loss_and_grads(X[idx], Y[idx], train=True, rng=rng)
            optimizer.step(net.params(), grads)
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return history


def train_mlp(X, y, *, epochs: int = 30, batch_size: int = 32, lr: float = 0.01,
              dropout: float = 0.5, seed: int = 42) -> Network:
    """The dense variant: build_mlp weights drawn from (seed, 11), then Adam."""
    net = build_mlp(np.random.default_rng([seed, 11]), X.shape[1], dropout_rate=dropout)
    train_network(net, X, y, epochs=epochs, batch_size=batch_size, lr=lr, seed=seed)
    return net


def train_cnn(X, y, *, epochs: int = 30, batch_size: int = 32, lr: float = 0.01,
              dropout: float = 0.25, seed: int = 42) -> Network:
    """The convolutional variant: build_cnn weights drawn from (seed, 12),
    then Adam on the (batch, length) rows."""
    net = build_cnn(np.random.default_rng([seed, 12]), X.shape[1], dropout_rate=dropout)
    train_network(net, X, y, epochs=epochs, batch_size=batch_size, lr=lr, seed=seed)
    return net


# --- serialization -----------------------------------------------------------

_LAYER_TAGS = {
    Dense: "dense",
    ReLU: "relu",
    Dropout: "dropout",
    Conv1D: "conv1d",
    MaxPool1D: "maxpool1d",
    Flatten: "flatten",
}


def _layer_to_dict(layer) -> dict:
    entry: dict = {"type": _LAYER_TAGS[type(layer)]}
    if isinstance(layer, (Dense, Conv1D)):
        entry["W"] = layer.W.tolist()
        entry["b"] = layer.b.tolist()
    if isinstance(layer, Conv1D):
        entry["kernel"] = layer.kernel
    elif isinstance(layer, Dropout):
        entry["rate"] = layer.rate
    elif isinstance(layer, MaxPool1D):
        entry["size"] = layer.size
    return entry


def _layer_from_dict(entry: dict):
    tag = entry["type"]
    if tag in ("dense", "conv1d"):
        W = np.asarray(entry["W"], dtype=np.float64)
        rng = np.random.default_rng(0)  # weights are overwritten below
        if tag == "dense":
            layer = Dense(W.shape[0], W.shape[1], rng)
        else:
            layer = Conv1D(W.shape[1], W.shape[0], int(entry["kernel"]), rng)
        layer.W = W
        layer.b = np.asarray(entry["b"], dtype=np.float64)
        return layer
    if tag == "relu":
        return ReLU()
    if tag == "dropout":
        return Dropout(float(entry["rate"]))
    if tag == "maxpool1d":
        return MaxPool1D(int(entry["size"]))
    if tag == "flatten":
        return Flatten()
    raise ValueError(f"unknown layer tag {tag!r}")
