"""Per-asset trading modules: a signal agent plus an allocation agent.

A trained module bundles two seeded Q-networks with the feature-pipeline
state needed to rebuild its observations from raw bars and metrics alone:

* the optional signal agent (``eam-1d`` net) emits buy/sell/hold signals
  from windowed OHLCV plus refined metric features;
* the allocation agent (``sam-4layer`` net) picks the binary cash-vs-
  crypto split for its asset from a (features x crypto x window) tensor,
  optionally extended with the frozen signal channel.

Observation layout: feature channels are open, high, low, close, volume,
then the padded principal components, then (if enabled) the encoded
signal.  Prices are expressed as ratios to the window's last close, volume
as a ratio to the window's mean volume.  A state holds the crypto's asset
row only, (f, 1, n), and so does each net's input: a cash row would be
the same constant in every state, which the first dense layer's bias
already represents.

``build_sam_state`` and ``build_eam_state`` are the only state builders:
each takes an array of frame rows and returns the (B, f, 1, n) states of
the windows ending there, with one warm-up and finiteness check per call.
Training episodes and ``CryptoModule.prepare`` both call them on batches
of ``_DECISION_BATCH`` rows, so a row's state is the same bits in both.
Both refine only the bars their rows read: ``prepare`` the observation
windows of the rows it decides, training those of its validation episode
and of the training rows its step budget reaches.

A ``.cm`` file (see ``container``) holds a header of the module's
asset, selected metrics, settings, ranges, bar interval and ``use_eam``,
then a body of the allocation net's ``params`` and the signal net's, as
float64 little-endian, as they lie in memory.  Each net's architecture,
input shape and seed follow from the header (``net_specs``), so the
file stores none of them, and a loader allocates nothing for a body of
another length.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .container import ContainerFormatError, decode_container, encode_container
from .datastore import AlignedFrame, AssetId, CsvStore, atomic_write
from .errors import ConfigError, DataError
from .refinery import (
    HorizonConfig,
    RefinedFeatureFrame,
    full_windows,
    refine_features,
    select_valid_metrics,
    window_rows,
)
from .rlcore.network import QNetwork, param_shapes
from .rlcore.replay import ReplayBuffer
from .rlcore.training import TargetTable, TrainConfig, epsilon_at, epsilon_greedy, train_step
from .serial import from_doc, to_doc

log = logging.getLogger(__name__)

#: Signal-agent actions in index order; epsilon-greedy ties resolve to "buy".
SIGNAL_ACTIONS = ("buy", "sell", "hold")

#: Allocation-agent actions in index order: 0 is all cash, 1 all crypto, so
#: argmax ties go to cash.
ALLOCATION_ACTIONS = ("cash", "crypto")

#: Signal channel encoding used in allocation-agent observations.
SIGNAL_VALUES = {"buy": 1.0, "hold": 0.0, "sell": -1.0}

_VOLUME_EPS = 1e-8

#: rows per batch when building states and taking greedy actions; bounds temporaries
_DECISION_BATCH = 32


class WarmupError(DataError):
    """A decision index that still falls inside a rolling warm-up."""


@dataclass(frozen=True)
class RewardConfig:
    fee_rate: float = 0.001
    eam_hold_reward: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.fee_rate < 0.1:
            raise ConfigError("fee_rate must be in [0, 0.1)")


@dataclass(frozen=True)
class DataRanges:
    """Inclusive [start, end] timestamp bounds for training and validation."""

    train: tuple[int, int]
    validation: tuple[int, int]

    def __post_init__(self):
        if not (self.train[0] < self.train[1] < self.validation[0] < self.validation[1]):
            raise ConfigError(f"ranges must be ordered: train {self.train}, validation {self.validation}")


@dataclass(frozen=True)
class CmSettings:
    """Everything needed to refit features and train both agents."""

    horizon: HorizonConfig = HorizonConfig()
    norm_window: int = 50
    pca_window: int = 200
    variance_target: float = 0.80
    epsilon: float = 1e-8
    window: int = 32
    buffer_capacity: int = 10_000
    eval_interval: int = 500
    train: TrainConfig = field(default_factory=TrainConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)

    def __post_init__(self):
        if self.window < 5:
            raise ConfigError("observation window must be >= 5 intervals")
        if self.norm_window < 2 or self.pca_window < 2:
            raise ConfigError("rolling windows must be >= 2 bars")
        if self.eval_interval <= 0 or self.buffer_capacity <= 0:
            raise ConfigError("eval_interval and buffer_capacity must be positive")
        if self.buffer_capacity < self.train.batch:  # training starts once the buffer holds a batch
            raise ConfigError(f"cm.buffer_capacity ({self.buffer_capacity}) must be at least "
                              f"train.batch ({self.train.batch}), or training never takes a step")


# ---------------------------------------------------------------------------
# Observations


def _windows(frame: AlignedFrame, refined: RefinedFeatureFrame, rows: np.ndarray, n: int):
    """Frame rows (B, n) of the n-bar windows ending at each of ``rows``, and
    their OHLCV features (B, n, 5) and padded components (B, n, c_max).
    Raises for the first row past the frame or still warming up.  Each
    window's arithmetic is the same as for that window alone, so results
    do not depend on B."""
    rows = np.asarray(rows, dtype=np.intp)
    beyond = rows >= len(frame)
    if beyond.any():
        raise DataError(f"index {rows[beyond][0]} beyond frame of length {len(frame)}")
    early = rows < n - 1
    if early.any():
        raise WarmupError(f"index {rows[early][0]} inside the {n}-bar observation window warm-up")
    idx = rows[:, None] + np.arange(1 - n, 1)
    invalid = ~refined.valid[idx].all(axis=1)
    if invalid.any():
        raise WarmupError(f"refined features not yet valid over window ending at index {rows[invalid][0]}")
    bars = frame.ohlcv[idx]
    features = np.empty(bars.shape)
    features[..., :4] = bars[..., :4] / bars[:, -1:, 3:4]
    volume = bars[..., 4]
    features[..., 4] = volume / (volume.mean(axis=1, keepdims=True) + _VOLUME_EPS)
    return idx, [features, refined.components[idx]]


def _states(channels: list[np.ndarray]) -> np.ndarray:
    """(B, f, 1, n) states of (B, n, ·) channel blocks; raises on a non-finite entry."""
    states = np.concatenate(channels, axis=2).transpose(0, 2, 1)[:, :, None, :]
    if not np.isfinite(states).all():
        raise DataError("observation contains non-finite entries")
    return states


def build_eam_state(frame: AlignedFrame, refined: RefinedFeatureFrame, rows: np.ndarray, n: int) -> np.ndarray:
    """Signal-agent states (B, 5 + c_max, 1, n) of the windows ending at ``rows``."""
    _, channels = _windows(frame, refined, rows, n)
    return _states(channels)


def build_sam_state(
    frame: AlignedFrame,
    refined: RefinedFeatureFrame,
    rows: np.ndarray,
    n: int,
    signals: np.ndarray | None,
) -> np.ndarray:
    """Allocation-agent states (B, f, 1, n) of the windows ending at ``rows``.

    With ``signals`` (one value per frame row, NaN where there is none; None
    without the signal agent) the states gain one channel encoding buy=1,
    hold=0, sell=-1 over the window, so f = 5 + c_max + 1; otherwise
    f = 5 + c_max.
    """
    idx, channels = _windows(frame, refined, rows, n)
    if signals is not None:
        window_signals = signals[idx]
        missing = np.isnan(window_signals).any(axis=1)
        if missing.any():
            raise WarmupError(f"missing trading signals inside window ending at index {idx[missing][0, -1]}")
        channels.append(window_signals[..., None])
    return _states(channels)


# ---------------------------------------------------------------------------
# The trained module


@dataclass
class CmContext:
    """Per-frame inference context: features (and signals) rebuilt from raw
    data, and the greedy allocation index of every frame row (-1 where the
    observation window is still warming up or no decision was asked for)."""

    refined: RefinedFeatureFrame
    signals: np.ndarray | None
    actions: np.ndarray


@dataclass
class CryptoModule:
    """The reusable, pluggable unit: trained nets plus feature-pipeline state."""

    asset: AssetId
    sam_net: QNetwork
    eam_net: QNetwork | None
    selected_metrics: list[str]
    settings: CmSettings
    ranges: DataRanges
    interval: int

    @property
    def use_eam(self) -> bool:
        """Whether the module has a signal agent."""
        return self.eam_net is not None

    @property
    def warmup_bars(self) -> int:
        """Leading bars consumed before the first valid decision."""
        n = self.settings.window
        warm = (self.settings.norm_window - 1) + (self.settings.pca_window - 1) + (n - 1)
        if self.use_eam:
            warm += n - 1
        return warm

    def prepare(self, frame: AlignedFrame, rows: np.ndarray) -> CmContext:
        """Rebuild observation inputs for a frame (trailing transforms only)
        and take the greedy allocation at each of the frame ``rows`` at once:
        observations do not depend on the portfolio's state.  Only the bars
        their observation windows read are refined: n bars, or 2n - 1 with
        the signal agent, whose signals each read n bars."""
        s = self.settings
        n = s.window
        read = window_rows(rows, 2 * n - 1 if self.use_eam else n, len(frame))
        refined = refine_features(
            frame, self.selected_metrics, s.norm_window, s.pca_window, s.variance_target, s.epsilon, read
        )
        signals = None
        observable = refined.valid
        if self.use_eam:
            signals = _greedy_signal_array(self.eam_net, frame, refined, n)
            observable = observable & ~np.isnan(signals)
        at = full_windows(observable, n)
        at = at[np.isin(at, rows)]
        actions = np.full(len(frame), -1, dtype=np.intp)
        actions[at] = _greedy_actions(self.sam_net, lambda r: build_sam_state(frame, refined, r, n, signals), at)
        return CmContext(refined, signals, actions)

    def allocate(self, ctx: CmContext, t: int) -> int:
        """Greedy allocation at frame index t, an index into ALLOCATION_ACTIONS
        (0 cash, 1 crypto); Q-value ties go to cash."""
        if t >= len(ctx.actions):
            raise DataError(f"index {t} beyond frame of length {len(ctx.actions)}")
        if t < 0 or ctx.actions[t] < 0:
            raise WarmupError(f"index {t} inside the {self.settings.window}-bar observation window warm-up")
        return int(ctx.actions[t])


def _map_batches(fn, rows: np.ndarray) -> np.ndarray:
    """``fn`` of consecutive batches of about _DECISION_BATCH rows, filled
    into one array with a leading axis of len(rows); keeps temporaries at
    batch size.  The batches are equal, so none holds a lone row when
    there are more."""
    bounds = np.linspace(0, len(rows), -(-len(rows) // _DECISION_BATCH) + 1).astype(int)
    out = None
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = fn(rows[lo:hi])
        if out is None:
            out = np.empty((len(rows), *part.shape[1:]), dtype=part.dtype)
        out[lo:hi] = part
    return out


def _greedy_actions(net: QNetwork, states_of, rows: np.ndarray) -> np.ndarray:
    """argmax of the net's Q-values at ``states_of(rows)`` (ties go to action 0)."""
    if len(rows) == 0:
        return np.empty(0, dtype=np.intp)
    return _map_batches(lambda r: np.argmax(net.forward(states_of(r)), axis=1), rows)


def _greedy_signal_array(
    eam_net: QNetwork, frame: AlignedFrame, refined: RefinedFeatureFrame, window: int
) -> np.ndarray:
    """Frozen greedy signals of the trained signal agent, one per valid bar."""
    out = np.full(len(frame), np.nan)
    rows = full_windows(refined.valid, window)
    actions = _greedy_actions(eam_net, lambda r: build_eam_state(frame, refined, r, window), rows)
    out[rows] = np.array([SIGNAL_VALUES[a] for a in SIGNAL_ACTIONS])[actions]
    return out


# ---------------------------------------------------------------------------
# Training


def _positive_ratios(ratios: np.ndarray) -> np.ndarray:
    """``ratios`` as float64; DataError unless each is positive and finite."""
    ratios = np.asarray(ratios, dtype=np.float64)
    bad = ~(np.isfinite(ratios) & (ratios > 0))
    if bad.any():
        raise DataError(f"price ratio must be positive and finite, got {ratios[bad][0]}")
    return ratios


def _sam_rewards(ratios: np.ndarray, cfg: RewardConfig) -> np.ndarray:
    """Allocation rewards ``r[j, prev, a]`` of step j from action prev to a:
    the log wealth growth (1 - fee_rate * |a - prev|) * (w_cash + w_crypto * ratio)
    of action a's weights, net of proportional fees."""
    ratios = _positive_ratios(ratios)
    keep = 1.0 - cfg.fee_rate
    growth = np.empty((len(ratios), 2, 2))
    growth[:, :, 0] = 1.0, keep
    growth[:, :, 1] = ratios[:, None] * [keep, 1.0]  # positive: fee_rate < 0.1
    return np.array([math.log(g) for g in growth.ravel().tolist()]).reshape(growth.shape)


def _eam_rewards(ratios: np.ndarray, cfg: RewardConfig) -> np.ndarray:
    """Signal rewards ``r[j, prev, a]``, the same for every previous action:
    buy earns the log price ratio, sell its negation and hold ``eam_hold_reward``."""
    log_returns = np.array([math.log(r) for r in _positive_ratios(ratios).tolist()])
    # columns in SIGNAL_ACTIONS order: buy, sell, hold
    table = np.column_stack([log_returns, -log_returns, np.full(len(log_returns), cfg.eam_hold_reward)])
    n = len(SIGNAL_ACTIONS)
    return np.broadcast_to(table[:, None, :], (len(table), n, n))


def _greedy_score(net: QNetwork, states: np.ndarray, rewards: np.ndarray) -> float:
    """Validation score: summed rewards of the greedy policy, starting from action 0."""
    actions = _greedy_actions(net, lambda rows: states[rows], np.arange(len(states) - 1))
    prev = np.concatenate(([0], actions[:-1]))
    # cumsum adds left to right, like a running total
    return float(np.cumsum(rewards[np.arange(len(rewards)), prev, actions])[-1])


def _run_dqn(
    net: QNetwork,
    train: tuple[np.ndarray, np.ndarray],
    val: tuple[np.ndarray, np.ndarray],
    settings: CmSettings,
    seeds: Sequence[int],
) -> QNetwork:
    """Train the fresh ``net`` of one agent with the exploration and replay
    ``seeds`` and return it holding the checkpoint with the best validation score.

    ``train`` and ``val`` are :func:`_episode` (states, rewards): step j moves
    from state j to j + 1 and earns ``rewards[j, prev, a]``, where prev is
    the episode's previous action (0 at its start).  The move does not
    depend on the action, so ``max_steps`` steps read training states 0 to
    ``max_steps`` only, the last as a next state.  A training episode cut to
    its first ``max_steps + 2`` states trains the same net: its terminal
    index, the last, stays out of reach, as it does in the whole episode.
    """
    cfg = settings.train
    train_states, train_rewards = train
    action_seed, buffer_seed = seeds
    table = TargetTable(net, train_states, cfg.batch)
    buffer = ReplayBuffer(train_states, settings.buffer_capacity, seed=buffer_seed)
    rng = np.random.default_rng(action_seed)
    last = len(train_rewards) - 1

    best_params: np.ndarray | None = None
    best_score = -np.inf

    def checkpoint():
        nonlocal best_params, best_score
        score = _greedy_score(net, *val)
        if score > best_score:
            best_score = score
            best_params = net.params.copy()

    j = prev = 0
    for step in range(cfg.max_steps):
        # an exploring step draws its action without a forward
        action = epsilon_greedy(lambda: net.forward(train_states[j : j + 1])[0], net.n_actions,
                                epsilon_at(cfg, step), rng)
        buffer.push(j, action, train_rewards[j, prev, action], j == last)
        j, prev = (0, 0) if j == last else (j + 1, action)
        if len(buffer) >= cfg.batch:
            train_step(net, table, buffer.sample(cfg.batch), cfg)
        if (step + 1) % cfg.target_sync == 0:
            table.sync(net)
        if (step + 1) % settings.eval_interval == 0:
            checkpoint()
    if cfg.max_steps % settings.eval_interval:  # the last step's parameters are not scored yet
        checkpoint()
    np.copyto(net.params, best_params)
    log.info("trained %s for %d steps; best validation score %.6f", net.arch, cfg.max_steps, best_score)
    return net


def train_cm_from_frame(
    frame: AlignedFrame,
    ranges: DataRanges,
    settings: CmSettings,
    use_eam: bool,
) -> CryptoModule:
    """Select metrics, refine features, and train the agent pair on one frame.

    Each agent's episodes are the rows ``prepare`` would decide at inside
    each range, but only the validation episode and the training rows the
    step budget reaches (see :func:`_run_dqn`) get states, signals and
    refined features."""
    train_frame = frame.slice(*ranges.train)
    selected = select_valid_metrics(train_frame, settings.horizon)
    nets = [QNetwork(*spec) for spec in net_specs(len(selected.names), settings, use_eam)]
    sam_net, eam_net = nets[0], nets[1] if use_eam else None
    # exploration and replay seeds of the signal agent, then of the allocation agent (roles 0 and 3 seed the nets)
    seeds = [derive_seed(settings.train.seed, role) for role in (1, 2, 4, 5)]
    n = settings.window
    span = 2 * n - 1 if use_eam else n  # bars an allocation decision reads, signals included
    # aligned frames are finite, so a whole-frame refine fits every row past its warm-up
    fitted = np.arange(len(frame)) >= settings.norm_window + settings.pca_window - 2

    def episode_rows(width, who):
        """Training and validation rows: those past a ``width``-bar window of
        fitted rows inside each range; training keeps the reachable ones."""
        rows = full_windows(fitted, width)
        ts = frame.timestamps[rows]
        idx_train, idx_val = (rows[(ts >= lo) & (ts <= hi)] for lo, hi in (ranges.train, ranges.validation))
        _require_steps(idx_train, idx_val, who)
        return [idx_train[: settings.train.max_steps + 2], idx_val]

    eam_rows = episode_rows(n, "signal agent") if use_eam else []
    sam_rows = episode_rows(span, "allocation agent")
    read = window_rows(np.concatenate(eam_rows + sam_rows), span, len(frame))
    refined = refine_features(frame, selected.names, settings.norm_window, settings.pca_window,
                              settings.variance_target, settings.epsilon, read)

    def episodes(rows, states_of, reward_table):
        return [_episode(states_of, idx, frame.close, reward_table, settings.reward) for idx in rows]

    signals = None
    if use_eam:
        _run_dqn(eam_net, *episodes(eam_rows, lambda r: build_eam_state(frame, refined, r, n), _eam_rewards),
                 settings, seeds[:2])
        signals = _greedy_signal_array(eam_net, frame, refined, n)
    _run_dqn(sam_net, *episodes(sam_rows, lambda r: build_sam_state(frame, refined, r, n, signals), _sam_rewards),
             settings, seeds[2:])
    return CryptoModule(
        asset=frame.asset,
        sam_net=sam_net,
        eam_net=eam_net,
        selected_metrics=list(selected.names),
        settings=settings,
        ranges=ranges,
        interval=frame.interval,
    )


def train_cm(
    store: CsvStore,
    asset: AssetId,
    ranges: DataRanges,
    settings: CmSettings,
    use_eam: bool,
    interval: int,
    fill_limit: int,
) -> CryptoModule:
    """Align the training span from the store and train a module for one asset."""
    frame = store.align(asset, ranges.train[0], ranges.validation[1], interval, fill_limit)
    return train_cm_from_frame(frame, ranges, settings, use_eam)


def _episode(states_of, rows: np.ndarray, closes: np.ndarray, reward_table, cfg: RewardConfig):
    """(states, rewards) of one episode over the decision bars ``rows``;
    rewards come from the price relatives between consecutive decision bars."""
    return _map_batches(states_of, rows), reward_table(closes[rows[1:]] / closes[rows[:-1]], cfg)


def _require_steps(idx_train: np.ndarray, idx_val: np.ndarray, who: str) -> None:
    if len(idx_train) < 2:
        raise DataError(f"{who}: training range leaves {len(idx_train)} decision bars after warm-up")
    if len(idx_val) < 2:
        raise DataError(f"{who}: validation range leaves {len(idx_val)} decision bars after warm-up")


# ---------------------------------------------------------------------------
# The nets of a module, and serialization


def net_specs(n_metrics: int, settings: CmSettings, use_eam: bool) -> list[tuple[str, tuple[int, int, int], int]]:
    """(architecture, input shape, seed) of a module's allocation net and,
    with the signal agent, its signal net, in ``.cm`` body order.  A state
    has OHLCV plus one padded component per selected metric, and the
    allocation net's has the signal channel too."""
    f, n, seed = 5 + n_metrics, settings.window, settings.train.seed
    specs = [("sam-4layer", (f + use_eam, 1, n), derive_seed(seed, 3))]
    if use_eam:
        specs.append(("eam-1d", (f, 1, n), derive_seed(seed, 0)))
    return specs


#: the fields of a ``.cm`` header and their types; the nets' shapes and seeds follow from them
_HEADER_FIELDS = {
    "asset": AssetId, "selected_metrics": list[str], "settings": CmSettings, "ranges": DataRanges,
    "interval": int, "use_eam": bool,
}


def save_cm(cm: CryptoModule, path: str | Path) -> None:
    """Write the module as a single checksummed container: the header
    fields, then each net's ``params`` as it lies in memory.  Raises
    ConfigError for a net of another shape than the header implies, so
    every file written loads."""
    nets = [net for net in (cm.sam_net, cm.eam_net) if net is not None]
    for net, (arch, shape, _) in zip(nets, net_specs(len(cm.selected_metrics), cm.settings, cm.use_eam)):
        if (net.arch, net.input_shape) != (arch, shape):
            raise ConfigError(f"module has a {net.arch} net of input {net.input_shape}; "
                              f"its settings give a {arch} net of input {shape}")
    header = {name: to_doc(getattr(cm, name)) for name in _HEADER_FIELDS}
    atomic_write(path, [encode_container(header, b"".join(net.params.astype("<f8").tobytes() for net in nets))])


def load_cm(path: str | Path, blob: bytes | None = None) -> CryptoModule:
    """Load a module from ``path``, or decode ``blob``, bytes already read
    from it; raises on bad magic, version, checksum, header fields, or a
    body whose length the header does not imply."""
    header, body = decode_container(Path(path).read_bytes() if blob is None else blob)
    try:
        values = {name: _read_field(name, from_doc, tp, header[name]) for name, tp in _HEADER_FIELDS.items()}
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ContainerFormatError(f"malformed module {path}: bad or missing field {exc}") from None
    specs = net_specs(len(values["selected_metrics"]), values["settings"], values.pop("use_eam"))
    counts = [sum(math.prod(s) for s in param_shapes(arch, shape)) for arch, shape, _ in specs]
    if len(body) != 8 * sum(counts):  # checked before any array is allocated
        raise ContainerFormatError(f"malformed module {path}: its header implies {sum(counts)} parameters, "
                                   f"its body holds {len(body)} bytes")
    bodies = np.split(np.frombuffer(body, dtype="<f8"), counts[:1])  # each net's params, in body order
    nets = [QNetwork(*spec, params) for spec, params in zip(specs, bodies)]
    return CryptoModule(sam_net=nets[0], eam_net=nets[1] if len(nets) > 1 else None, **values)


def _read_field(name: str, read, *args):
    """``read(*args)`` for header field ``name``; a TypeError names the field."""
    try:
        return read(*args)
    except TypeError as exc:
        raise TypeError(f"{name}: {exc}") from None


def with_seed(settings: CmSettings, seed: int) -> CmSettings:
    """Copy of the settings with a different training seed."""
    return replace(settings, train=replace(settings.train, seed=seed))


def derive_seed(*parts) -> int:
    """A 64-bit seed from the SHA-256 of ``parts`` joined by ':', e.g.
    (base seed, asset key), (seed, asset key, retrain boundary) or
    (seed, agent role 0-5)."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")
