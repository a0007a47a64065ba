"""Portfolio composition, fee-aware backtesting, and scheduled retraining.

The engine composes per-asset trading modules by vote averaging: each
module contributes a binary cash/crypto allocation, asset i's portfolio
weight is its module's vote (0 cash, 1 crypto) divided by the module
count m, and the residual mass stays in cash.  Weights are plain float
(m+1)-vectors [crypto_1..crypto_m, cash].

Backtest: a module decides from its own asset's data alone, never from
the portfolio's state, so every module's decisions (one per rebalance
interval) are taken before the bar loop.  A retrain cadence in days
optionally re-fits every module on an expanding window at each boundary
inside the range, also before the loop; a retrain takes effect at the
first decision bar at or after its boundary, and a boundary after the
last decision bar is not retrained.  Each module in force decides only
at the decision bars it serves.  The bar loop then averages each
decision bar's votes and rebalances at current closes, paying
proportional fees on turnover (crypto entries only); between rebalances
holdings drift with prices.
"""

from __future__ import annotations

import hashlib
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import metrics as metrics_mod
from .cryptomodule import ALLOCATION_ACTIONS, CryptoModule, DataRanges, derive_seed, load_cm, train_cm, with_seed
from .datastore import AlignedFrame, AssetId, CsvStore, atomic_write, flocked, read_json, write_json
from .errors import ChainfolioError, ConfigError, DataError
from .metrics import SummaryStats
from .rlcore.training import DivergenceError
from .serial import Float64Array, Int64Array, from_doc, to_doc

log = logging.getLogger(__name__)

REPORT_VERSION = 1
REPORT_FILE = "report.json"
CURVES_FILE = "curves.csv"

def vote_weights(actions: np.ndarray) -> np.ndarray:
    """Weights [k_1/m .. k_m/m, (m - sum k)/m] of m votes k_i (0 cash, 1 crypto);
    each entry is the correctly rounded quotient of two integers."""
    k = np.asarray(actions)
    m = len(k)
    return np.append(k / m, (m - k.sum()) / m)


@dataclass(frozen=True)
class RebalanceEvent:
    ts: int
    pre_value: float
    pre_weights: tuple[float, ...]
    target_weights: tuple[float, ...]
    turnover: float
    fee: float
    post_value: float


def rebalance(
    value: float,
    current_weights: Sequence[float],
    target: Sequence[float],
    prices: Sequence[float],
    fee_rate: float,
    ts: int,
) -> tuple[np.ndarray, float, RebalanceEvent]:
    """Re-split value to the target weights, paying fees on crypto turnover.

    ``target`` is a nonnegative (m+1)-vector [crypto_1..m, cash] summing to
    1 within 1e-12.  turnover = sum_i |target_i - current_i| over crypto
    entries only; fee = fee_rate * turnover * value; the post-fee value is
    re-split into crypto units per asset and quote-currency cash, which
    are returned with the event.
    """
    if value <= 0:
        raise DataError(f"portfolio value must be positive, got {value}")
    prices = np.asarray(prices, dtype=np.float64)
    if prices.ndim != 1 or (prices <= 0).any():
        raise DataError("need one positive price per asset")
    target = np.asarray(target, dtype=np.float64)
    current = np.asarray(current_weights, dtype=np.float64)
    if target.shape != (len(prices) + 1,) or current.shape != target.shape:
        raise DataError("target and current weights must be (m+1)-vectors for m prices")
    if (target < 0).any() or abs(target.sum() - 1.0) > 1e-12:
        raise DataError(f"target weights must be nonnegative and sum to 1, got {target.tolist()}")
    turnover = float(np.abs(target[:-1] - current[:-1]).sum())
    fee = fee_rate * turnover * value
    if fee >= value:
        raise ConfigError(f"fee {fee} would consume the whole portfolio value {value}")
    post = value - fee
    event = RebalanceEvent(
        ts=ts,
        pre_value=float(value),
        pre_weights=tuple(current.tolist()),
        target_weights=tuple(target.tolist()),
        turnover=turnover,
        fee=float(fee),
        post_value=float(post),
    )
    return target[:-1] * post / prices, float(target[-1]) * post, event


# ---------------------------------------------------------------------------
# Module registry


class CmRegistry:
    """Directory of trained modules, one checksummed file per asset.

    Layout: `<root>/registry.json` listing entries, plus one `<asset>.cm`
    file per registered module.  Adding validates the file fully (magic,
    version, checksum) before it is copied in.

    Every call reads the index afresh.  ``add`` and ``remove`` re-read it
    under an ``flock`` on `<root>/.registry.lock`, so threads and processes on
    one POSIX host never lose one another's entries; reads take no lock.
    """

    VERSION = 1

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _entries(self) -> dict[str, dict]:
        index = self.root / "registry.json"
        entries = read_json(index, "registry index", self.VERSION).get("entries") if index.exists() else {}
        if not isinstance(entries, dict) or not all(_is_entry(key, e) for key, e in entries.items()):
            raise DataError(f"corrupt registry index {index}: bad 'entries' table")
        return entries

    def _entry(self, entries: dict[str, dict], asset: str) -> tuple[str, dict]:
        key = AssetId.parse(asset).key
        if key not in entries:
            raise ConfigError(f"no module registered for {key}")
        return key, entries[key]

    @contextmanager
    def _changing(self) -> Iterator[dict[str, dict]]:
        """The entries, read under the registry's lock and saved unless the body raises."""
        with flocked(self.root / ".registry.lock"):
            entries = self._entries()
            yield entries
            write_json(self.root / "registry.json", {"version": self.VERSION, "entries": entries})

    def assets(self) -> list[str]:
        return sorted(self._entries())

    def __contains__(self, asset: str) -> bool:
        return asset in self._entries()

    def add(self, path: str | Path, asset: str | None = None) -> str:
        """Register a module file; returns the asset key it now serves.  The
        file is read once: the bytes validated are the bytes copied and hashed."""
        blob = Path(path).read_bytes()
        key = load_cm(path, blob).asset.key  # full validation: magic, version, checksum
        if asset is not None and AssetId.parse(asset).key != key:
            raise ConfigError(f"module file is for {key}, not {asset}")
        dest = self.root / f"{key}.cm"
        with self._changing() as entries:
            if key in entries:
                raise ConfigError(f"a module for {key} is already registered")
            if Path(path).resolve() != dest.resolve():
                atomic_write(dest, [blob])
            entries[key] = {"file": dest.name, "sha256": hashlib.sha256(blob).hexdigest()}
        return key

    def remove(self, asset: str) -> None:
        self._entry(self._entries(), asset)  # refused before the lock, which creates the registry
        with self._changing() as entries:
            key, entry = self._entry(entries, asset)
            (self.root / entry["file"]).unlink(missing_ok=True)
            del entries[key]

    def load(self, asset: str) -> CryptoModule:
        key, entry = self._entry(self._entries(), asset)
        path = self.root / entry["file"]
        blob = path.read_bytes()
        if hashlib.sha256(blob).hexdigest() != entry["sha256"]:
            raise DataError(f"module file for {key} changed since registration")
        return load_cm(path, blob)

    def status(self) -> list[tuple[str, str, str]]:
        """(asset, file, status) rows; status is 'ok' or the load error."""
        rows = []
        for key, entry in sorted(self._entries().items()):
            try:
                self.load(key)
                state = "ok"
            except (ChainfolioError, OSError) as exc:
                state = f"error: {exc}"
            rows.append((key, entry["file"], state))
        return rows


def _is_entry(key: str, entry) -> bool:
    """An entry as :meth:`CmRegistry.add` writes it: a canonical asset key,
    its module file ``<key>.cm`` inside the registry, and that file's SHA-256."""
    try:
        if AssetId.parse(key).key != key:
            return False
    except DataError:
        return False
    return isinstance(entry, dict) and entry.get("file") == f"{key}.cm" and isinstance(entry.get("sha256"), str)


# ---------------------------------------------------------------------------
# Backtest


@dataclass(frozen=True)
class BacktestConfig:
    assets: tuple[str, ...]
    start_ts: int
    end_ts: int
    initial_capital: float
    fee_rate: float
    rebalance_interval: int          # bars between reallocation decisions
    retrain_days: int                # 0 disables scheduled retraining
    interval: int
    fill_limit: int

    def __post_init__(self):
        object.__setattr__(self, "assets", tuple(AssetId.parse(a).key for a in self.assets))
        if len(self.assets) == 0 or len(set(self.assets)) != len(self.assets):
            raise ConfigError("portfolio assets must be nonempty and unique")
        if self.start_ts >= self.end_ts:
            raise ConfigError("backtest range must have positive length")
        if self.initial_capital <= 0:
            raise ConfigError("initial capital must be positive")
        if not 0.0 <= self.fee_rate < 0.1:
            raise ConfigError("fee_rate must be in [0, 0.1)")
        if self.rebalance_interval < 1:
            raise ConfigError("rebalance interval must be >= 1 bar")
        if self.retrain_days < 0:
            raise ConfigError("retrain cadence must be >= 0 days")
        if self.interval <= 0 or self.fill_limit < 0:
            raise ConfigError("interval must be positive and fill_limit nonnegative")
        if metrics_mod.SECONDS_PER_DAY % self.interval != 0:
            raise ConfigError(f"backtest bar interval {self.interval}s must divide one day")


@dataclass
class BacktestReport:
    """Versioned backtest output: curves, events, logs, and summary stats."""

    version: int
    config: dict
    timestamps: Int64Array
    curves: dict[str, Float64Array]           # strategy first, then baselines
    returns: Float64Array                     # strategy per-bar simple returns
    events: list[RebalanceEvent]
    action_logs: dict[str, list[tuple[int, str]]]
    retrain_events: list[dict] = field(default_factory=list)
    summary: dict[str, SummaryStats] = field(default_factory=dict)

    def table(self) -> str:
        return metrics_mod.render_table(self.summary)

    def to_doc(self) -> dict:
        """The JSON document; ``curve_order`` keeps the order that sorted keys lose."""
        return {**to_doc(self), "curve_order": list(self.curves)}

    def write(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        write_json(out / REPORT_FILE, self.to_doc())
        metrics_mod.write_curves_csv(out / CURVES_FILE, self.timestamps, self.curves)

    @classmethod
    def load(cls, out_dir: str | Path) -> "BacktestReport":
        """Read a report; raises ConfigError for another report version and
        DataError for a file that is not a well-formed report."""
        path = Path(out_dir) / REPORT_FILE
        doc = read_json(path, "report", REPORT_VERSION)
        try:
            report = from_doc(cls, doc)
            order = from_doc(list[str], doc["curve_order"])
            report.curves = {name: report.curves[name] for name in order}
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed report {path}: bad or missing field {exc!r}") from None
        report.summary = {name: report.summary[name] for name in order if name in report.summary}
        return report


def retrain_boundaries(start_ts: int, end_ts: int, cadence_days: int) -> list[int]:
    """Boundary timestamps strictly inside (start, end) at the day cadence."""
    if cadence_days <= 0:
        return []
    step = cadence_days * metrics_mod.SECONDS_PER_DAY
    return list(range(start_ts + step, end_ts, step))


def retrain_module(cm: CryptoModule, store: CsvStore, boundary_ts: int, fill_limit: int) -> CryptoModule:
    """Re-fit one module on an expanding window ending at the boundary.

    The training window keeps its original start; the validation window
    keeps its original duration, shifted to end at the boundary.
    Selection and rolling transforms are refit on data <= boundary only.
    ``cm`` is the original module; the boundary derives the seed from its seed.
    """
    val_span = cm.ranges.validation[1] - cm.ranges.validation[0]
    new_ranges = DataRanges(
        train=(cm.ranges.train[0], boundary_ts - val_span - cm.interval),
        validation=(boundary_ts - val_span, boundary_ts),
    )
    settings = with_seed(cm.settings, derive_seed(cm.settings.train.seed, cm.asset.key, boundary_ts))
    return train_cm(store, cm.asset, new_ranges, settings, cm.use_eam, cm.interval, fill_limit)


def run_backtest(modules: Mapping[str, CryptoModule], cfg: BacktestConfig, store: CsvStore) -> BacktestReport:
    """Fee-aware portfolio backtest over aligned bars of the assets that
    `modules` maps to their trained modules.

    Every asset is aligned first.  Then, per asset, every retrain runs and
    the module in force decides at each decision bar: every
    `rebalance_interval`-th bar from bar 0, up to the second-to-last bar,
    since a trade at the last bar would show in no curve.  A retrain takes
    effect at the first decision bar at or after its boundary, and a
    boundary after the last decision bar is not retrained.  The bar loop
    then only marks every bar to market and, on decision bars, averages the
    votes and re-splits holdings at the close.

    The strategy curve marks every bar the same way: the holdings carried
    into the bar, at its close, before that bar's trade.  So the curve starts
    at the initial capital, and a fee paid at bar k first shows at bar k + 1,
    the entry fee at bar 0 included.
    """
    missing = [a for a in cfg.assets if a not in modules]
    if missing:
        raise ConfigError(f"no trained module for: {', '.join(missing)}")
    n_bars = (cfg.end_ts - cfg.start_ts) // cfg.interval + 1
    grid = cfg.start_ts + cfg.interval * np.arange(n_bars, dtype=np.int64)
    decisions = np.arange(0, n_bars - 1, cfg.rebalance_interval)

    frames = {}
    offsets = {}
    for asset in cfg.assets:
        cm = modules[asset]
        if cm.interval != cfg.interval:
            raise ConfigError(f"module for {asset} was trained at a different bar interval")
        lead = cm.warmup_bars * cfg.interval
        frames[asset] = store.align(AssetId.parse(asset), cfg.start_ts - lead, cfg.end_ts, cfg.interval, cfg.fill_limit)
        offsets[asset] = frames[asset].index_of(cfg.start_ts)

    # each retrained boundary and the index into `decisions` where it takes effect
    boundaries = retrain_boundaries(cfg.start_ts, cfg.end_ts, cfg.retrain_days)
    takes_effect = np.searchsorted(grid[decisions], boundaries)
    schedule = [(b, int(at)) for b, at in zip(boundaries, takes_effect) if at < len(decisions)]
    retrain_events: list[dict] = []
    action_logs: dict[str, list[tuple[int, str]]] = {}
    votes = []
    for asset in cfg.assets:
        actions, asset_events = _decide(modules[asset], store, frames[asset], offsets[asset] + decisions,
                                        schedule, cfg.fill_limit)
        action_logs[asset] = [(int(grid[k]), ALLOCATION_ACTIONS[a]) for k, a in zip(decisions, actions)]
        votes.append(actions)
        retrain_events += asset_events
    retrain_events.sort(key=lambda ev: ev["ts"])  # boundary by boundary, assets in portfolio order
    ballots = dict(zip(decisions.tolist(), np.column_stack(votes)))  # each decision bar's row of votes

    prices_at = np.column_stack([frames[a].close[offsets[a] : offsets[a] + n_bars] for a in cfg.assets])
    units = np.zeros(len(cfg.assets))
    cash = float(cfg.initial_capital)
    curve = np.empty(n_bars)
    events: list[RebalanceEvent] = []
    for k in range(n_bars):
        prices = prices_at[k]
        value = curve[k] = cash + float(np.dot(units, prices))
        if k in ballots:
            weights = np.append(units * prices / value, cash / value)
            target = vote_weights(ballots[k])
            units, cash, event = rebalance(value, weights, target, prices, cfg.fee_rate, int(grid[k]))
            events.append(event)

    curves: dict[str, np.ndarray] = {"strategy": curve}
    for i, asset in enumerate(cfg.assets):
        curves[_baseline_name(asset, cfg.assets)] = cfg.initial_capital * (prices_at[:, i] / prices_at[0, i])

    summary = {name: metrics_mod.summarize(grid, vals) for name, vals in curves.items()}
    return BacktestReport(
        version=REPORT_VERSION,
        config=to_doc(cfg),
        timestamps=grid,
        curves=curves,
        returns=curve[1:] / curve[:-1] - 1.0,
        events=events,
        action_logs=action_logs,
        retrain_events=retrain_events,
        summary=summary,
    )


def _decide(
    cm: CryptoModule, store: CsvStore, frame: AlignedFrame, rows: np.ndarray,
    schedule: list[tuple[int, int]], fill_limit: int,
) -> tuple[list[int], list[dict]]:
    """One asset's actions (0 cash, 1 crypto) at the frame ``rows`` and its retrain events.
    Each (boundary, index into ``rows``) of ``schedule`` retrains the original
    module ``cm``; one that diverges keeps the module in force.  Each module in
    force is prepared over only the rows it decides, up to the next retrain that
    takes effect, and one that a later retrain replaces at the same row is never prepared."""
    in_force = {0: cm}
    events = []
    for boundary, at in schedule:
        try:
            in_force[at] = retrain_module(cm, store, boundary, fill_limit)
        except DivergenceError as exc:
            log.warning("retraining %s at ts=%d diverged, keeping previous module: %s", cm.asset.key, boundary, exc)
            status = "diverged-kept-previous"
        else:
            log.info("retrained %s at ts=%d", cm.asset.key, boundary)
            status = "retrained"
        events.append({"ts": boundary, "asset": cm.asset.key, "status": status})
    starts = list(in_force)
    actions = []
    for lo, hi in zip(starts, starts[1:] + [len(rows)]):
        ctx = in_force[lo].prepare(frame, rows[lo:hi])
        actions += [in_force[lo].allocate(ctx, int(t)) for t in rows[lo:hi]]
    return actions, events


def _baseline_name(asset: str, assets: Sequence[str]) -> str:
    """baseline_<sym>, falling back to the full key on symbol collisions."""
    sym = AssetId.parse(asset).symbol
    collisions = [a for a in assets if AssetId.parse(a).symbol == sym]
    return f"baseline_{sym}" if len(collisions) == 1 else f"baseline_{asset}"
