"""Q-networks over (feature, asset, interval) state tensors.

Two architectures are registered:

``eam-1d``
    one 1-D convolution along the interval axis (kernel 3, 16 channels),
    ReLU, dense head with 3 outputs (buy / sell / hold signals).

``sam-4layer``
    conv(3, 8 ch) -> conv(3, 16 ch) -> dense(64) -> dense(2), ReLU after
    every layer but the output (cash-vs-asset allocation values).

Convolutions slide along the interval axis only (kernel 3x1: three
intervals, one asset row), valid padding, stride 1.  All math is float64
numpy with explicit backward passes, so gradients can be checked against
finite differences and parameter vectors serialize bit-exactly.

A network is its affine layers, ``QNetwork.layers``: its ``Conv1D`` and
``Dense`` layers in order.  ``forward`` applies ReLU in place to every
output but the head's; ``backward`` builds each ReLU mask from the
activated output it passes a gradient through, so a forward that never
backpropagates builds none.  A network owns one parameter vector,
``QNetwork.params``, and one gradient vector of the same shape,
``QNetwork.grads``; each layer's ``w``, ``b``, ``dw`` and ``db`` are
reshaped views into them, laid out as ``param_shapes`` lists them.  A
training step zeroes, clips and updates one vector each, and copying a
network copies one vector.

The first dense layer flattens the conv output as a view and keeps its
weight columns in that output's memory order (asset row, interval,
channel), so flattening copies nothing.  ``.cm`` files store ``params``
as it lies in memory.

Results are bit-identical across runs of one version (with the same numpy
and BLAS), not across versions: reordering float sums, as the shift-and-
matmul conv did to the einsum it replaced, moves trained parameters in
their last bits, so module bytes for the same inputs and seed may change.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, DataError


class _Affine:
    """A weight and a bias and their gradients, as views into a network's
    parameter and gradient vectors."""

    def __init__(self, w: np.ndarray, b: np.ndarray, dw: np.ndarray, db: np.ndarray):
        self.w, self.b, self.dw, self.db = w, b, dw, db
        self._x = None


class Conv1D(_Affine):
    """Convolution along the last (interval) axis, per asset row; ``w`` is
    (c_out, c_in, kernel).

    Shift-and-matmul over channel-last rows, one row r per (batch,
    asset, interval): tap j adds ``x[r + j] @ w[:, :, j].T`` to output row r.
    The last k - 1 rows of each asset row, whose taps run into the next
    one, are cut from the output and are zero in the backward pass.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, c_in, m, n = x.shape
        k = self.w.shape[2]
        rows = batch * m * n
        xs = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(rows, c_in)
        self._x, self._x_shape = xs, x.shape
        y = xs @ self.w[:, :, 0].T
        for j in range(1, k):
            y[: rows - j] += xs[j:] @ self.w[:, :, j].T
        y += self.b
        # (B, C_out, m, L) view of compact channel-last memory, so the next conv's rows need no copy
        return np.ascontiguousarray(y.reshape(batch, m, n, -1)[:, :, : n - k + 1]).transpose(0, 3, 1, 2)

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate dw and db; return dx, or None without ``input_grad``
        (a network's first layer, whose input is the state)."""
        batch, c_in, m, n = self._x_shape
        k = self.w.shape[2]
        rows = batch * m * n
        xs = self._x
        g = np.zeros((batch, m, n, dy.shape[1]))
        g[:, :, : n - k + 1] = dy.transpose(0, 2, 3, 1)
        g = g.reshape(rows, -1)
        self.db += dy.sum(axis=(0, 2, 3))
        for j in range(k):
            self.dw[:, :, j] += g[: rows - j].T @ xs[j:]
        if not input_grad:
            return None
        dx = g @ self.w[:, :, 0]
        for j in range(1, k):
            dx[j:] += g[: rows - j] @ self.w[:, :, j]
        return dx.reshape(batch, m, n, c_in).transpose(0, 3, 1, 2)


class Dense(_Affine):
    """Affine layer.  A conv output (B, C, m, L) is flattened as a view of
    its channel-last memory, so the weight columns run in (m, L, C) order,
    and its gradient comes back in the same layout."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        x = self._x = x.transpose(0, 2, 3, 1).reshape(len(x), -1) if x.ndim == 4 else x
        return x @ self.w.T + self.b

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.db += dy.sum(axis=0)
        self.dw += dy.T @ self._x
        dx = dy @ self.w
        if len(self._shape) == 2:
            return dx
        batch, c, m, length = self._shape
        return dx.reshape(batch, m, length, c).transpose(0, 3, 1, 2)


class QNetwork:
    """A fresh, seeded network of a registered architecture, mapping a
    state tensor to action values."""

    def __init__(self, arch: str, input_shape: tuple[int, int, int], seed: int):
        shapes = param_shapes(arch, input_shape)  # validates
        self.arch = arch
        self.input_shape = tuple(input_shape)
        self.seed = seed
        self.n_actions = ACTION_COUNTS[arch]
        ends = np.cumsum([math.prod(s) for s in shapes])
        self.params, self.grads = np.empty(ends[-1]), np.zeros(ends[-1])
        p, g = ([a.reshape(s) for a, s in zip(np.split(v, ends[:-1]), shapes)] for v in (self.params, self.grads))
        n_conv = 2 * len(LAYOUTS[arch][0])  # conv weights and biases come first
        self.layers = [(Conv1D if j < n_conv else Dense)(p[j], p[j + 1], g[j], g[j + 1])
                       for j in range(0, len(shapes), 2)]
        rng = np.random.default_rng(seed)
        for a, s in zip(p, shapes):  # He-normal weights and zero biases, drawn in parameter-vector order
            a[...] = rng.normal(0.0, np.sqrt(2.0 / math.prod(s[1:])), size=s) if len(s) > 1 else 0.0

    # -- inference / training ------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise DataError(f"batch shape {x.shape} incompatible with input {self.input_shape}")
        self._acts = []  # each hidden layer's activated output
        for layer in self.layers[:-1]:
            x = layer.forward(x)
            np.maximum(x, 0.0, out=x)  # ReLU in place keeps x's memory layout
            self._acts.append(x)
        return self.layers[-1].forward(x)

    def backward(self, d_out: np.ndarray) -> None:
        """Accumulate parameter gradients.  The gradient reaching a hidden
        layer's output passes ReLU where that output, activated, is
        positive; the gradient with respect to the state itself is never
        used, so the first layer skips it."""
        for layer, act in zip(self.layers[:0:-1], self._acts[::-1]):
            d_out = layer.backward(d_out)
            d_out *= act > 0
        self.layers[0].backward(d_out, input_grad=False)

    def zero_grads(self) -> None:
        self.grads.fill(0.0)

    # -- parameters ------------------------------------------------------------

    @property
    def n_params(self) -> int:
        return self.params.size

    def clone(self) -> "QNetwork":
        twin = QNetwork(self.arch, self.input_shape, self.seed)
        np.copyto(twin.params, self.params)
        return twin


ACTION_COUNTS = {"eam-1d": 3, "sam-4layer": 2}
#: conv output channels, then hidden dense widths, of each architecture
LAYOUTS = {"eam-1d": ((16,), ()), "sam-4layer": ((8, 16), (64,))}
CONV_KERNEL = 3


def param_shapes(arch: str, input_shape: tuple[int, int, int]) -> list[tuple[int, ...]]:
    """The shape of each parameter array of a network, checked and computed
    without building it (as a ``.cm`` loader does before allocating)."""
    if arch not in ACTION_COUNTS:
        raise ConfigError(f"unknown architecture {arch!r}; expected one of {sorted(ACTION_COUNTS)}")
    f, m, n = input_shape
    if f <= 0 or m <= 0 or n <= 0:
        raise ConfigError(f"bad input shape {input_shape}")
    convs, hidden = LAYOUTS[arch]
    k = CONV_KERNEL
    if n < len(convs) * (k - 1) + 1:
        raise ConfigError(f"need n >= {len(convs) * (k - 1) + 1} intervals for {arch}, got {n}")
    shapes, c = [], f
    for c_out in convs:
        shapes += [(c_out, c, k), (c_out,)]
        c = c_out
    d = c * m * (n - len(convs) * (k - 1))
    for d_out in (*hidden, ACTION_COUNTS[arch]):
        shapes += [(d_out, d), (d_out,)]
        d = d_out
    return shapes
