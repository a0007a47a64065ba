"""FIFO experience replay over one precomputed episode of states."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import ConfigError, DataError


class Batch(NamedTuple):
    """A training batch: ``states`` are (B, f, m, n) float64; ``next_indices``
    index each next state in the buffer's state array, where a
    :class:`~chainfolio.rlcore.training.TargetTable` looks up its value."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_indices: np.ndarray
    terminals: np.ndarray


class ReplayBuffer:
    """Ring buffer with FIFO eviction and seeded uniform sampling.

    A transition is stored as the index ``i`` of its state in ``states``;
    its next state is ``states[i + 1]``.  Batches gather their states by
    fancy indexing and carry only the indices of their next states, so no
    per-transition arrays are kept.
    """

    def __init__(self, states: np.ndarray, capacity: int, seed: int):
        if capacity <= 0:
            raise ConfigError("capacity must be positive")
        self.states = states
        self.capacity = capacity
        self._index = np.zeros(capacity, dtype=np.intp)
        self._action = np.zeros(capacity, dtype=np.intp)
        self._reward = np.zeros(capacity)
        self._terminal = np.zeros(capacity, dtype=bool)
        self._pushed = 0
        self._rng = np.random.default_rng(seed)

    def push(self, state_index: int, action: int, reward: float, terminal: bool) -> None:
        slot = self._pushed % self.capacity
        self._index[slot] = state_index
        self._action[slot] = action
        self._reward[slot] = reward
        self._terminal[slot] = terminal
        self._pushed += 1

    def __len__(self) -> int:
        return min(self._pushed, self.capacity)

    def sample(self, batch_size: int) -> Batch:
        """Uniform sample without replacement (with, if the buffer is small).

        Draw ``i`` selects the i-th oldest live transition.
        """
        size = len(self)
        if size == 0:
            raise DataError("cannot sample from an empty buffer")
        replace = batch_size > size
        idx = self._rng.choice(size, size=batch_size, replace=replace)
        slots = (idx + self._pushed - size) % self.capacity
        at = self._index[slots]
        return Batch(self.states[at], self._action[slots], self._reward[slots], at + 1, self._terminal[slots])
