"""Epsilon-greedy policy and the TD(0) training step against a table of
target-network values."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ChainfolioError, ConfigError, DataError
from .network import QNetwork
from .replay import Batch


class DivergenceError(ChainfolioError):
    """Training produced a non-finite loss; abort and report."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one DQN training run."""

    gamma: float = 0.99
    lr: float = 1e-3
    batch: int = 32
    target_sync: int = 200
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 5000
    max_steps: int = 20000
    seed: int = 0
    grad_clip: float = 10.0

    def __post_init__(self):  # each check fails for NaN
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must be in [0, 1)")
        if not all(v > 0 for v in (self.lr, self.batch, self.target_sync, self.eps_decay_steps, self.max_steps)):
            raise ConfigError("lr, batch, target_sync, eps_decay_steps, max_steps must be positive")
        if not 0.0 <= self.eps_end <= self.eps_start <= 1.0:
            raise ConfigError("need 0 <= eps_end <= eps_start <= 1")
        if not self.grad_clip > 0:
            raise ConfigError("grad_clip must be positive")


def epsilon_at(cfg: TrainConfig, step: int) -> float:
    """Linear decay from eps_start to eps_end over eps_decay_steps."""
    if step >= cfg.eps_decay_steps:
        return cfg.eps_end
    frac = step / cfg.eps_decay_steps
    return cfg.eps_start + (cfg.eps_end - cfg.eps_start) * frac


def epsilon_greedy(q_of: Callable[[], np.ndarray], n_actions: int, eps: float, rng: np.random.Generator) -> int:
    """With probability eps a uniform action of ``n_actions``, else the argmax
    (ties -> lowest) of the action values ``q_of()``, called only then."""
    if n_actions <= 0:
        raise DataError("empty action set")
    if eps > 0.0 and rng.random() < eps:
        return int(rng.integers(n_actions))
    return int(np.argmax(q_of()))


class TargetTable:
    """max_a Q_target(s, a) for each state s of one episode array.

    The target network is a copy of the online one, frozen at the last
    :meth:`sync` (Mnih et al. 2015).  Its values change only there, and
    replay draws every next state from the same array, so the whole table
    is computed once per sync, at the first :meth:`max_q` after it: one
    forward per ``block`` consecutive states (the last block padded with
    the last state).  A forward's bits for a row depend on the batch
    size, so ``block`` is the training batch.  Where they do not also
    depend on the row's place in the batch (measured with OpenBLAS: sizes
    up to 4 and multiples of 4, such as the default 32), the values are
    bit-identical to forwarding each sampled batch of next states.
    """

    def __init__(self, net: QNetwork, states: np.ndarray, block: int):
        self.net = net.clone()  # fills never read the online parameters
        self.states = states
        self.block = block
        self._max_q = np.empty(-(-len(states) // block) * block)
        self._stale = True

    def sync(self, net: QNetwork) -> None:
        """Freeze a bit-exact copy of ``net``'s parameters; forget every value."""
        if (net.arch, net.input_shape) != (self.net.arch, self.net.input_shape):
            raise DataError(f"cannot sync a {self.net.arch} {self.net.input_shape} table from {net.arch} {net.input_shape}")
        np.copyto(self.net.params, net.params)
        self._stale = True

    def max_q(self, indices: np.ndarray) -> np.ndarray:
        """The target value of each state index, filling the table first after a sync."""
        if self._stale:
            for lo in range(0, len(self._max_q), self.block):
                rows = np.minimum(np.arange(lo, lo + self.block), len(self.states) - 1)
                self._max_q[lo : lo + self.block] = self.net.forward(self.states[rows]).max(axis=1)
            self._stale = False
        return self._max_q[indices]


def train_step(net: QNetwork, table: TargetTable, batch: Batch, cfg: TrainConfig) -> float:
    """One SGD step on the mean squared TD error; returns the pre-step loss.

    Targets are r + gamma * max_a Q_target(s', a), read from ``table``,
    with the bootstrap term dropped on terminal transitions.
    """
    size = len(batch.actions)
    if size == 0:
        raise DataError("empty batch")
    live = 1.0 - np.asarray(batch.terminals, dtype=np.float64)
    rows = np.arange(size)

    targets = batch.rewards + cfg.gamma * table.max_q(batch.next_indices) * live

    q_all = net.forward(batch.states)
    q_sa = q_all[rows, batch.actions]
    err = q_sa - targets
    loss = float(np.mean(err * err))
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite TD loss {loss}")

    d_q = np.zeros_like(q_all)
    d_q[rows, batch.actions] = 2.0 * err / size
    net.zero_grads()
    net.backward(d_q)

    norm = float(np.linalg.norm(net.grads))
    scale = cfg.grad_clip / norm if norm > cfg.grad_clip else 1.0
    net.params -= cfg.lr * scale * net.grads
    return loss
