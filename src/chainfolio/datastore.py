"""File-backed store for OHLCV bars and on-chain metric series.

Storage layout is a plain directory tree, one subdirectory per asset,
holding two CSV files plus a JSON manifest that indexes the assets:

    <root>/manifest.json
    <root>/BTC-USDT/ohlcv.csv      header: ts,open,high,low,close,volume
    <root>/BTC-USDT/metrics.csv    header: ts,name,value

Everything is inspectable and diff-able with standard tools.  Ingestion
is single-writer per asset (guarded by an in-process lock); concurrent
reads and writes targeting different assets are safe.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

OHLCV_HEADER = ["ts", "open", "high", "low", "close", "volume"]
METRICS_HEADER = ["ts", "name", "value"]

#: Default bar interval in seconds (6-hour bars).
DEFAULT_BAR_INTERVAL = 21600

#: Default cap on consecutive carried-forward metric values during alignment.
DEFAULT_FILL_LIMIT = 4


class MalformedRecordError(DataError):
    """A source row that cannot be parsed or violates a bar invariant."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class AlignmentError(DataError):
    """A requested range that cannot be aligned (gaps, empty metric pool)."""


@dataclass(frozen=True)
class AssetId:
    """A traded asset: ticker symbol plus quote currency."""

    symbol: str
    quote: str = "USDT"

    def __post_init__(self):
        if not self.symbol or not self.symbol.isalnum():
            raise DataError(f"invalid asset symbol {self.symbol!r}")
        if not self.quote:
            raise DataError("quote currency must be nonempty")
        object.__setattr__(self, "symbol", self.symbol.upper())
        object.__setattr__(self, "quote", self.quote.upper())

    @property
    def key(self) -> str:
        return f"{self.symbol}-{self.quote}"

    @classmethod
    def parse(cls, text: str) -> "AssetId":
        """Parse ``"BTC"`` or ``"BTC-USDT"``."""
        sym, _, quote = text.partition("-")
        return cls(sym, quote or "USDT")

    def __str__(self) -> str:
        return self.key


@dataclass(frozen=True)
class Bar:
    """One OHLCV bar; ``ts`` is the bar-open epoch second (UTC)."""

    ts: int
    open: float
    high: float
    low: float
    close: float
    volume: float

    def __post_init__(self):
        vals = (self.open, self.high, self.low, self.close, self.volume)
        if not all(math.isfinite(v) for v in vals):
            raise MalformedRecordError(f"non-finite field in bar at ts={self.ts}")
        if self.low <= 0:
            raise MalformedRecordError(f"low must be > 0 at ts={self.ts}")
        if self.high < max(self.open, self.close):
            raise MalformedRecordError(f"high < max(open, close) at ts={self.ts}")
        if self.low > min(self.open, self.close):
            raise MalformedRecordError(f"low > min(open, close) at ts={self.ts}")
        if self.volume < 0:
            raise MalformedRecordError(f"negative volume at ts={self.ts}")


@dataclass(frozen=True)
class MetricPoint:
    """One observation of a named on-chain metric."""

    ts: int
    name: str
    value: float

    def __post_init__(self):
        if not self.name:
            raise MalformedRecordError(f"empty metric name at ts={self.ts}")
        if not math.isfinite(self.value):
            raise MalformedRecordError(f"non-finite value for {self.name} at ts={self.ts}")


@dataclass
class AlignedFrame:
    """Time-aligned OHLCV and metric matrix for one asset.

    Rows share one equispaced timestamp grid.  ``metrics`` columns follow
    ``metric_names`` (lexicographic).  ``dropped_metrics`` lists metric
    names excluded during alignment because their gaps exceeded the fill
    limit (or they had no observation at or before the range start).
    """

    asset: AssetId
    timestamps: np.ndarray
    ohlcv: np.ndarray
    metrics: np.ndarray
    metric_names: list[str]
    interval: int
    dropped_metrics: list[str] = field(default_factory=list)

    def __post_init__(self):
        t = len(self.timestamps)
        if self.ohlcv.shape != (t, 5):
            raise DataError(f"ohlcv shape {self.ohlcv.shape} != ({t}, 5)")
        if self.metrics.shape != (t, len(self.metric_names)):
            raise DataError("metrics shape inconsistent with metric_names")
        if t >= 2:
            steps = np.diff(self.timestamps)
            if not np.all(steps == self.interval):
                raise DataError("timestamps not equispaced at the bar interval")
        if not (np.isfinite(self.ohlcv).all() and np.isfinite(self.metrics).all()):
            raise DataError("non-finite entries in aligned frame")

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def close(self) -> np.ndarray:
        return self.ohlcv[:, 3]

    def index_of(self, ts: int) -> int:
        i = int(np.searchsorted(self.timestamps, ts))
        if i >= len(self.timestamps) or self.timestamps[i] != ts:
            raise DataError(f"timestamp {ts} not on the frame grid")
        return i

    def slice(self, start_ts: int, end_ts: int) -> "AlignedFrame":
        """Rows with start_ts <= ts <= end_ts (bounds need not be on-grid)."""
        lo = int(np.searchsorted(self.timestamps, start_ts, side="left"))
        hi = int(np.searchsorted(self.timestamps, end_ts, side="right"))
        return AlignedFrame(
            asset=self.asset,
            timestamps=self.timestamps[lo:hi],
            ohlcv=self.ohlcv[lo:hi],
            metrics=self.metrics[lo:hi],
            metric_names=list(self.metric_names),
            interval=self.interval,
            dropped_metrics=list(self.dropped_metrics),
        )


# ---------------------------------------------------------------------------
# CSV parsing


def _parse_float(text: str, row: int, col: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedRecordError(f"bad {col} value {text!r}", row) from None
    return value


def _parse_ts(text: str, row: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedRecordError(f"bad ts value {text!r}", row) from None


def _open_rows(source: str | Path | io.TextIOBase) -> Iterator[list[str]]:
    if isinstance(source, (str, Path)):
        with open(source, newline="") as fh:
            yield from csv.reader(fh)
    else:
        yield from csv.reader(source)


def parse_ohlcv_csv(source: str | Path | io.TextIOBase) -> list[Bar]:
    """Parse an OHLCV CSV.  Raises MalformedRecordError with the row number."""
    rows = _open_rows(source)
    header = next(rows, None)
    if header is None or [h.strip() for h in header] != OHLCV_HEADER:
        raise MalformedRecordError(f"expected header {','.join(OHLCV_HEADER)}", 1)
    bars = []
    for i, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 6:
            raise MalformedRecordError(f"expected 6 fields, got {len(row)}", i)
        ts = _parse_ts(row[0], i)
        try:
            bar = Bar(
                ts,
                _parse_float(row[1], i, "open"),
                _parse_float(row[2], i, "high"),
                _parse_float(row[3], i, "low"),
                _parse_float(row[4], i, "close"),
                _parse_float(row[5], i, "volume"),
            )
        except MalformedRecordError as exc:
            if exc.row is None:
                raise MalformedRecordError(str(exc), i) from None
            raise
        bars.append(bar)
    return bars


def parse_metrics_csv(source: str | Path | io.TextIOBase) -> list[MetricPoint]:
    """Parse a metrics CSV (``ts,name,value``).

    Rows with non-finite values are rejected and reported (logged with
    their row numbers), not fatal: the rest of the file still loads.
    """
    rows = _open_rows(source)
    header = next(rows, None)
    if header is None or [h.strip() for h in header] != METRICS_HEADER:
        raise MalformedRecordError(f"expected header {','.join(METRICS_HEADER)}", 1)
    points = []
    rejected = 0
    for i, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise MalformedRecordError(f"expected 3 fields, got {len(row)}", i)
        value = _parse_float(row[2], i, "value")
        if not math.isfinite(value):
            rejected += 1
            log.warning("row %d: rejected non-finite value for %s", i, row[1].strip())
            continue
        points.append(MetricPoint(_parse_ts(row[0], i), row[1].strip(), value))
    if rejected:
        log.info("rejected %d non-finite metric rows", rejected)
    return points


# ---------------------------------------------------------------------------
# Source adapters


class DataSource(ABC):
    """Adapter that pulls bars and metric points for an asset and range.

    Exactly one implementation ships: :class:`LocalFileSource`.  Network
    adapters (exchange/metric APIs) would subclass this but are out of
    scope for the offline system.
    """

    @abstractmethod
    def fetch_bars(self, asset: AssetId, start_ts: int, end_ts: int) -> Iterable[Bar]:
        raise NotImplementedError

    @abstractmethod
    def fetch_metrics(self, asset: AssetId, start_ts: int, end_ts: int) -> Iterable[MetricPoint]:
        raise NotImplementedError


class LocalFileSource(DataSource):
    """Reads the same per-asset CSV formats from a plain directory.

    Expects ``<root>/<SYMBOL>-<QUOTE>/ohlcv.csv`` and ``metrics.csv``.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _asset_dir(self, asset: AssetId) -> Path:
        return self.root / asset.key

    def fetch_bars(self, asset: AssetId, start_ts: int, end_ts: int) -> list[Bar]:
        path = self._asset_dir(asset) / "ohlcv.csv"
        if not path.exists():
            raise DataError(f"no OHLCV file for {asset.key} under {self.root}")
        return [b for b in parse_ohlcv_csv(path) if start_ts <= b.ts <= end_ts]

    def fetch_metrics(self, asset: AssetId, start_ts: int, end_ts: int) -> list[MetricPoint]:
        path = self._asset_dir(asset) / "metrics.csv"
        if not path.exists():
            raise DataError(f"no metrics file for {asset.key} under {self.root}")
        return [p for p in parse_metrics_csv(path) if start_ts <= p.ts <= end_ts]


# ---------------------------------------------------------------------------
# The store


def _fmt(value: float) -> str:
    # repr round-trips float64 exactly and never emits thousands separators
    return repr(float(value))


class CsvStore:
    """Persists validated bar and metric series under a root directory."""

    MANIFEST = "manifest.json"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._locks: dict[str, threading.RLock] = {}
        self._locks_guard = threading.Lock()

    def _lock(self, asset: AssetId) -> threading.RLock:
        with self._locks_guard:
            return self._locks.setdefault(asset.key, threading.RLock())

    def _dir(self, asset: AssetId) -> Path:
        return self.root / asset.key

    # -- manifest ----------------------------------------------------------

    def _read_manifest(self) -> dict:
        path = self.root / self.MANIFEST
        if not path.exists():
            return {"version": 1, "assets": {}}
        try:
            manifest = json.loads(path.read_text())
        except ValueError as exc:
            raise DataError(f"corrupt store manifest {path}: {exc}") from None
        if not isinstance(manifest, dict) or not isinstance(manifest.get("assets"), dict):
            raise DataError(f"corrupt store manifest {path}: no 'assets' table")
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        path = self.root / self.MANIFEST
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    def _update_manifest(self, asset: AssetId, **info) -> None:
        manifest = self._read_manifest()
        entry = manifest["assets"].setdefault(
            asset.key, {"symbol": asset.symbol, "quote": asset.quote}
        )
        entry.update(info)
        self._write_manifest(manifest)

    def assets(self) -> list[AssetId]:
        manifest = self._read_manifest()
        return [AssetId(v["symbol"], v["quote"]) for v in manifest["assets"].values()]

    # -- ingestion ---------------------------------------------------------

    def ingest_ohlcv(self, asset: AssetId, bars: Iterable[Bar]) -> int:
        """Merge bars into the persisted series; returns the number stored.

        Duplicate timestamps within the incoming stream are a precondition
        violation.  Timestamps already persisted are skipped (set-union on
        the ts key, existing data wins), which makes re-ingestion of the
        same file a no-op.
        """
        incoming = list(bars)
        seen: set[int] = set()
        for bar in incoming:
            if bar.ts in seen:
                raise MalformedRecordError(f"duplicate ts {bar.ts} in source stream")
            seen.add(bar.ts)

        with self._lock(asset):
            existing = {b.ts: b for b in self.load_bars(asset)}
            added = 0
            for bar in incoming:
                held = existing.get(bar.ts)
                if held is not None:
                    if held != bar:
                        log.warning(
                            "%s: bar at ts=%d already stored with different values; keeping stored bar",
                            asset.key,
                            bar.ts,
                        )
                    continue
                existing[bar.ts] = bar
                added += 1
            merged = [existing[ts] for ts in sorted(existing)]
            self._write_ohlcv(asset, merged)
            self._update_manifest(asset, bars=len(merged))
        log.info("%s: ingested %d new bars (%d total)", asset.key, added, len(merged))
        return added

    def ingest_metrics(self, asset: AssetId, points: Iterable[MetricPoint]) -> dict[str, int]:
        """Merge metric points; returns per-name counts of stored points.

        Values are finite by construction (the point type enforces it and
        the CSV parser rejects bad rows).  Duplicate timestamps are
        last-writer-wins, both within the stream and against previously
        stored points.
        """
        accepted = list(points)
        counts: dict[str, int] = {}
        with self._lock(asset):
            series = self.load_metrics(asset)
            for p in accepted:
                bucket = series.setdefault(p.name, {})
                if p.ts in bucket and bucket[p.ts] != p.value:
                    log.warning(
                        "%s: %s at ts=%d overwritten %r -> %r",
                        asset.key, p.name, p.ts, bucket[p.ts], p.value,
                    )
                bucket[p.ts] = p.value
                counts[p.name] = counts.get(p.name, 0) + 1
            self._write_metrics(asset, series)
            self._update_manifest(asset, metrics={n: len(s) for n, s in sorted(series.items())})
        return counts

    def _write_ohlcv(self, asset: AssetId, bars: Sequence[Bar]) -> None:
        path = self._dir(asset)
        path.mkdir(parents=True, exist_ok=True)
        with open(path / "ohlcv.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(OHLCV_HEADER)
            for b in bars:
                writer.writerow([b.ts, _fmt(b.open), _fmt(b.high), _fmt(b.low), _fmt(b.close), _fmt(b.volume)])

    def _write_metrics(self, asset: AssetId, series: dict[str, dict[int, float]]) -> None:
        path = self._dir(asset)
        path.mkdir(parents=True, exist_ok=True)
        with open(path / "metrics.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRICS_HEADER)
            for name in sorted(series):
                for ts in sorted(series[name]):
                    writer.writerow([ts, name, _fmt(series[name][ts])])

    # -- loading -----------------------------------------------------------

    def load_bars(self, asset: AssetId) -> list[Bar]:
        path = self._dir(asset) / "ohlcv.csv"
        if not path.exists():
            return []
        return parse_ohlcv_csv(path)

    def load_metrics(self, asset: AssetId) -> dict[str, dict[int, float]]:
        path = self._dir(asset) / "metrics.csv"
        if not path.exists():
            return {}
        series: dict[str, dict[int, float]] = {}
        for p in parse_metrics_csv(path):
            series.setdefault(p.name, {})[p.ts] = p.value
        return series

    # -- alignment ---------------------------------------------------------

    def align(
        self,
        asset: AssetId,
        start_ts: int,
        end_ts: int,
        interval: int = DEFAULT_BAR_INTERVAL,
        fill_limit: int = DEFAULT_FILL_LIMIT,
    ) -> AlignedFrame:
        """Join bars and metrics on the bar grid over [start_ts, end_ts].

        Metrics are resampled to bar timestamps by last-observation-
        carried-forward using only observations at or before each bar
        (no lookahead).  A metric is dropped (and reported) if, at any
        bar, its freshest observation is more than ``fill_limit`` bars
        stale, or if it has no observation at or before ``start_ts``.
        """
        if interval <= 0:
            raise DataError("interval must be positive")
        if fill_limit < 0:
            raise DataError("fill_limit must be >= 0")
        with self._lock(asset):
            bars = self.load_bars(asset)
            series = self.load_metrics(asset)

        grid = np.arange(start_ts, end_ts + 1, interval, dtype=np.int64)
        if len(grid) == 0:
            raise AlignmentError(f"empty range [{start_ts}, {end_ts}]")
        by_ts = {b.ts: b for b in bars}
        missing = [int(t) for t in grid if t not in by_ts]
        if missing:
            raise AlignmentError(
                f"{asset.key}: OHLCV gap in range; first missing bar ts={missing[0]} "
                f"({len(missing)} of {len(grid)} grid bars missing)"
            )
        ohlcv = np.array(
            [[by_ts[t].open, by_ts[t].high, by_ts[t].low, by_ts[t].close, by_ts[t].volume] for t in grid],
            dtype=np.float64,
        )

        kept_names: list[str] = []
        kept_cols: list[np.ndarray] = []
        dropped: list[str] = []
        for name in sorted(series):
            col = _locf_column(series[name], grid, fill_limit)
            if col is None:
                dropped.append(name)
            else:
                kept_names.append(name)
                kept_cols.append(col)
        if dropped:
            log.warning("%s: dropped metrics with gaps beyond fill_limit=%d: %s",
                        asset.key, fill_limit, ", ".join(dropped))
        if series and not kept_names:
            raise AlignmentError(f"{asset.key}: empty metric pool after drops {dropped}")

        metrics = np.column_stack(kept_cols) if kept_cols else np.zeros((len(grid), 0))
        return AlignedFrame(
            asset=asset,
            timestamps=grid,
            ohlcv=ohlcv,
            metrics=metrics,
            metric_names=kept_names,
            interval=interval,
            dropped_metrics=dropped,
        )


def _locf_column(points: dict[int, float], grid: np.ndarray, fill_limit: int) -> np.ndarray | None:
    """Resample one metric onto the grid; None if any gap exceeds the limit.

    A bar counts as fresh when an observation exists in the window
    (previous bar ts, bar ts]; the first bar is fresh when any
    observation exists at or before it.  ``fill_limit`` caps the number
    of consecutive non-fresh bars.
    """
    ts = np.array(sorted(points), dtype=np.int64)
    values = np.array([points[int(t)] for t in ts], dtype=np.float64)
    # index of the last observation at or before each grid point
    count = np.searchsorted(ts, grid, side="right")
    if count[0] == 0:
        return None
    out = values[count - 1]
    fresh = np.empty(len(grid), dtype=bool)
    fresh[0] = True  # count[0] > 0 checked above
    fresh[1:] = count[1:] > count[:-1]
    stale = 0
    for f in fresh:
        stale = 0 if f else stale + 1
        if stale > fill_limit:
            return None
    return out
