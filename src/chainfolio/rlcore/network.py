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

Results are bit-identical across runs of one version (with the same numpy
and BLAS), not across versions: reordering float sums, as the shift-and-
matmul conv did to the einsum it replaced, moves trained parameters in
their last bits, so module bytes for the same inputs and seed may change.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DataError


class Conv1D:
    """Convolution along the last (interval) axis, per asset row.

    Shift-and-matmul over channel-last rows, one row r per (batch,
    asset, interval): tap j adds ``x[r + j] @ w[:, :, j].T`` to output row r.
    The last k - 1 rows of each asset row, whose taps run into the next
    one, are cut from the output and are zero in the backward pass.
    """

    kind = "conv1d"

    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator):
        scale = np.sqrt(2.0 / (c_in * kernel))
        self.w = rng.normal(0.0, scale, size=(c_out, c_in, kernel))
        self.b = np.zeros(c_out)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x, self._x_shape = None, None

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

    @property
    def params(self) -> list[np.ndarray]:
        return [self.w, self.b]

    @property
    def grads(self) -> list[np.ndarray]:
        return [self.dw, self.db]


class ReLU:
    kind = "relu"

    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.maximum(x, 0.0)  # keeps x's memory layout

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._mask

    params: list[np.ndarray] = []
    grads: list[np.ndarray] = []


class Flatten:
    kind = "flatten"

    def __init__(self):
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy.reshape(self._shape)

    params: list[np.ndarray] = []
    grads: list[np.ndarray] = []


class Dense:
    kind = "dense"

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.w = rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_out, d_in))
        self.b = np.zeros(d_out)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.w.T + self.b

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.dw += dy.T @ self._x
        self.db += dy.sum(axis=0)
        return dy @ self.w

    @property
    def params(self) -> list[np.ndarray]:
        return [self.w, self.b]

    @property
    def grads(self) -> list[np.ndarray]:
        return [self.dw, self.db]


class QNetwork:
    """A stack of layers mapping a state tensor to action values."""

    def __init__(self, arch: str, input_shape: tuple[int, int, int], layers: list, seed: int):
        self.arch = arch
        self.input_shape = tuple(input_shape)
        self.layers = layers
        self.seed = seed
        self.n_actions = ACTION_COUNTS[arch]

    # -- inference / training ------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise DataError(f"batch shape {x.shape} incompatible with input {self.input_shape}")
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, d_out: np.ndarray) -> None:
        """Accumulate parameter gradients; the gradient with respect to the
        state itself is never used, so the first layer skips it."""
        for layer in self.layers[:0:-1]:
            d_out = layer.backward(d_out)
        self.layers[0].backward(d_out, input_grad=False)

    def zero_grads(self) -> None:
        for layer in self.layers:
            for g in layer.grads:
                g[...] = 0.0

    # -- parameter plumbing ----------------------------------------------------

    def param_arrays(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    def grad_arrays(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.param_arrays())

    def params_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.param_arrays()])

    def set_params_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.n_params:
            raise DataError(f"expected {self.n_params} parameters, got {flat.size}")
        offset = 0
        for p in self.param_arrays():
            p[...] = flat[offset : offset + p.size].reshape(p.shape)
            offset += p.size

    def grads_flat(self) -> np.ndarray:
        return np.concatenate([g.ravel() for g in self.grad_arrays()])

    def layer_shapes(self) -> list[list[int]]:
        return [list(p.shape) for p in self.param_arrays()]

    def clone(self) -> "QNetwork":
        twin = build_qnetwork(self.arch, self.input_shape, self.seed)
        twin.set_params_flat(self.params_flat())
        return twin


ACTION_COUNTS = {"eam-1d": 3, "sam-4layer": 2}
CONV_KERNEL = 3


def build_qnetwork(arch: str, input_shape: tuple[int, int, int], seed: int) -> QNetwork:
    """Construct a fresh, seeded network for one of the registered archs."""
    if arch not in ACTION_COUNTS:
        raise ConfigError(f"unknown architecture {arch!r}; expected one of {sorted(ACTION_COUNTS)}")
    f, m, n = input_shape
    if f <= 0 or m <= 0 or n <= 0:
        raise ConfigError(f"bad input shape {input_shape}")
    rng = np.random.default_rng(seed)
    k = CONV_KERNEL
    if arch == "eam-1d":
        if n < k:
            raise ConfigError(f"need n >= {k} intervals for eam-1d, got {n}")
        length = n - k + 1
        layers = [
            Conv1D(f, 16, k, rng),
            ReLU(),
            Flatten(),
            Dense(16 * m * length, 3, rng),
        ]
    else:  # sam-4layer
        if n < 2 * k - 1:
            raise ConfigError(f"need n >= {2 * k - 1} intervals for sam-4layer, got {n}")
        length = n - 2 * (k - 1)
        layers = [
            Conv1D(f, 8, k, rng),
            ReLU(),
            Conv1D(8, 16, k, rng),
            ReLU(),
            Flatten(),
            Dense(16 * m * length, 64, rng),
            ReLU(),
            Dense(64, ACTION_COUNTS[arch], rng),
        ]
    return QNetwork(arch, input_shape, layers, seed)

