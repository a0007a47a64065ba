"""Self-contained deep Q-learning machinery (numpy, float64, seeded).

Small convolutional Q-networks with hand-written backprop, a FIFO replay
buffer, epsilon-greedy action selection, and the TD(0) training step
against a per-sync table of target-network values.  Everything is
deterministic under a fixed seed.
"""

from .network import QNetwork
from .replay import Batch, ReplayBuffer
from .training import (
    DivergenceError,
    TargetTable,
    TrainConfig,
    epsilon_at,
    epsilon_greedy,
    train_step,
)
from .container import (
    ChecksumMismatchError,
    ContainerFormatError,
    UnsupportedVersionError,
    read_container,
    write_container,
)

__all__ = [
    "QNetwork",
    "Batch",
    "ReplayBuffer",
    "TrainConfig",
    "TargetTable",
    "DivergenceError",
    "epsilon_at",
    "epsilon_greedy",
    "train_step",
    "read_container",
    "write_container",
    "ContainerFormatError",
    "ChecksumMismatchError",
    "UnsupportedVersionError",
]
