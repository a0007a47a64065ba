"""Epsilon-greedy policy and the TD(0) training step with a target network."""

from __future__ import annotations

from dataclasses import dataclass

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

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must be in [0, 1)")
        if min(self.lr, self.batch, self.target_sync, self.eps_decay_steps, self.max_steps) <= 0:
            raise ConfigError("lr, batch, target_sync, eps_decay_steps, max_steps must be positive")
        if not 0.0 <= self.eps_end <= self.eps_start <= 1.0:
            raise ConfigError("need 0 <= eps_end <= eps_start <= 1")
        if self.grad_clip <= 0:
            raise ConfigError("grad_clip must be positive")


def epsilon_at(cfg: TrainConfig, step: int) -> float:
    """Linear decay from eps_start to eps_end over eps_decay_steps."""
    if step >= cfg.eps_decay_steps:
        return cfg.eps_end
    frac = step / cfg.eps_decay_steps
    return cfg.eps_start + (cfg.eps_end - cfg.eps_start) * frac


def epsilon_greedy(q: np.ndarray, eps: float, rng: np.random.Generator) -> int:
    """With probability eps a uniform action, else argmax (ties -> lowest)."""
    q = np.asarray(q)
    if q.size == 0:
        raise DataError("empty action-value vector")
    if eps > 0.0 and rng.random() < eps:
        return int(rng.integers(q.size))
    return int(np.argmax(q))


def train_step(net: QNetwork, target_net: QNetwork, batch: Batch, cfg: TrainConfig) -> float:
    """One SGD step on the mean squared TD error; returns the pre-step loss.

    Targets are r + gamma * max_a Q_target(s', a), with the bootstrap term
    dropped on terminal transitions.
    """
    size = len(batch.actions)
    if size == 0:
        raise DataError("empty batch")
    live = 1.0 - np.asarray(batch.terminals, dtype=np.float64)
    rows = np.arange(size)

    next_q = target_net.forward(batch.next_states)
    targets = batch.rewards + cfg.gamma * next_q.max(axis=1) * live

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

    grads = net.grad_arrays()
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    scale = cfg.grad_clip / norm if norm > cfg.grad_clip else 1.0
    for p, g in zip(net.param_arrays(), grads):
        p -= cfg.lr * scale * g
    return loss


def sync_target(net: QNetwork, target_net: QNetwork) -> None:
    """Copy online parameters into the target network (bit-exact)."""
    if net.arch != target_net.arch or net.input_shape != target_net.input_shape:
        raise DataError(
            f"architecture mismatch: {net.arch}{net.input_shape} vs "
            f"{target_net.arch}{target_net.input_shape}"
        )
    target_net.set_params_flat(net.params_flat().copy())
