"""Self-contained deep Q-learning machinery (numpy, float64, seeded).

Small convolutional Q-networks with hand-written backprop (``network``), a
FIFO replay buffer (``replay``), epsilon-greedy action selection and the
TD(0) training step against a per-sync table of target-network values
(``training``).  The package imports nothing of chainfolio but ``errors``;
import each name from its own module.
"""

from .training import DivergenceError

__all__ = ["DivergenceError"]
