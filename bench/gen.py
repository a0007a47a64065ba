"""Seeded raw inputs for the benchmark: OHLCV and metric CSVs per asset.

Everything the program sees comes from here, as plain CSV text in the
formats `chainfolio ingest` reads.  The same (scale, seed, symbol) gives
byte-identical files, so both sides of a comparison ingest the same data.

Per asset the metric pool holds:

* planted signals: noisy copies of forward k-bar returns at the default
  correlation horizons, so selection has something to find;
* noise metrics sampled every bar;
* daily metrics (about a third of the pool), observed once per UTC day,
  so alignment carries values forward across the day's other bars;
* hourly metrics, finer than the bar grid;
* one metric with a gap longer than ``fill_limit``, which alignment drops;
* a few non-finite rows, which ingest rejects.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

INTERVAL = 21_600
DAY = 86_400
HOUR = 3_600
SIGNAL_HORIZONS = (12, 24, 48, 12)
NONFINITE_TEXT = ("nan", "inf", "-inf")
N_SIGNAL = 4
N_HOURLY = 1
GAP_AT = 0.25       # position of the dropped metric's gap, as a share of the grid
GAP_BARS = 12       # longer than the default fill_limit of 4
N_NONFINITE = 5


def epoch(date: str) -> int:
    return int(datetime.strptime(date, "%Y-%m-%d").replace(tzinfo=timezone.utc).timestamp())


T0 = epoch("2020-10-01")  # first bar of every asset


@dataclass(frozen=True)
class Scale:
    """Input size of one world; the defaults are the paper-default scale."""

    n_bars: int = 2920          # 6-hour bars through 2022-09-30
    n_noise: int = 16
    n_daily: int = 10
    update_overlap_bars: int = 120   # bars shared by the base and the update file
    update_bars: int = 240           # bars only the update file holds


@dataclass
class AssetInputs:
    """One asset's generated CSV text plus the counts the checks compare to."""

    symbol: str
    ohlcv: str
    metrics: str
    metric_names: list[str]
    stored: dict[str, int]    # accepted points per metric name
    closes: np.ndarray


def _asset_rng(seed: int, symbol: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}:{symbol}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _bars(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 5) open, high, low, close, volume of a geometric random walk."""
    start = float(np.exp(rng.uniform(0.0, 8.0)))
    closes = start * np.exp(np.concatenate([[0.0], np.cumsum(rng.normal(0.0, 0.02, n - 1))]))
    opens = np.concatenate([[closes[0] * (1.0 + rng.normal(0.0, 0.001))], closes[:-1]])
    wiggle = np.abs(rng.normal(0.0, 0.002, n))
    highs = np.maximum(opens, closes) * (1.0 + wiggle)
    lows = np.minimum(opens, closes) * (1.0 - wiggle)
    volumes = np.exp(rng.normal(10.0, 0.5, n))
    return np.column_stack([opens, highs, lows, closes, volumes])


def _forward_signal(closes: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    ret = closes[k:] / closes[:-k] - 1.0
    z = (ret - ret.mean()) / (ret.std() + 1e-12)
    out = rng.normal(0.0, 1.0, len(closes))
    out[: len(z)] = z + rng.normal(0.0, 0.5, len(z))
    return out


def _series(scale: Scale, closes: np.ndarray, rng: np.random.Generator) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """name -> (timestamps, values) for the whole metric pool."""
    n = scale.n_bars
    bar_ts = T0 + INTERVAL * np.arange(n, dtype=np.int64)
    pool: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for i in range(N_SIGNAL):
        k = SIGNAL_HORIZONS[i % len(SIGNAL_HORIZONS)]
        pool[f"sig_{i:02d}"] = (bar_ts, _forward_signal(closes, k, rng))
    for i in range(scale.n_noise):
        pool[f"noise_{i:02d}"] = (bar_ts, rng.normal(0.0, 1.0, n))
    day_ts = np.arange(T0, bar_ts[-1] + 1, DAY, dtype=np.int64)
    for i in range(scale.n_daily):
        pool[f"daily_{i:02d}"] = (day_ts, np.cumsum(rng.normal(0.0, 1.0, len(day_ts))))
    hour_ts = np.arange(T0, bar_ts[-1] + 1, HOUR, dtype=np.int64)
    for i in range(N_HOURLY):
        pool[f"hourly_{i:02d}"] = (hour_ts, rng.normal(0.0, 1.0, len(hour_ts)))
    lo = int(n * GAP_AT)
    keep = np.ones(n, dtype=bool)
    keep[lo : lo + GAP_BARS] = False
    pool["gappy"] = (bar_ts[keep], rng.normal(0.0, 1.0, int(keep.sum())))
    return pool


def make_asset(scale: Scale, seed: int, symbol: str) -> AssetInputs:
    """Generate one asset's full-range OHLCV and metric CSV text."""
    rng = _asset_rng(seed, symbol)
    bars = _bars(rng, scale.n_bars)
    pool = _series(scale, bars[:, 3], rng)
    bar_ts = T0 + INTERVAL * np.arange(scale.n_bars, dtype=np.int64)
    ohlcv = ["ts,open,high,low,close,volume\n"]
    ohlcv += [f"{t},{o!r},{h!r},{l!r},{c!r},{v!r}\n" for t, (o, h, l, c, v) in zip(bar_ts.tolist(), bars.tolist())]

    # non-finite values replace a few noise observations (never the first bar)
    bad = {(f"noise_{i % max(scale.n_noise, 1):02d}", 1 + 7 * i) for i in range(N_NONFINITE)}
    rows = ["ts,name,value\n"]
    stored: dict[str, int] = {}
    for name in sorted(pool):
        ts, values = pool[name]
        texts = [repr(v) for v in values.tolist()]
        for name_bad, j in bad:
            if name_bad == name:
                texts[j] = NONFINITE_TEXT[j % len(NONFINITE_TEXT)]
        rows += [f"{t},{name},{x}\n" for t, x in zip(ts.tolist(), texts)]
        stored[name] = len(ts) - sum(1 for name_bad, _ in bad if name_bad == name)
    return AssetInputs(
        symbol=symbol,
        ohlcv="".join(ohlcv),
        metrics="".join(rows),
        metric_names=sorted(pool),
        stored=stored,
        closes=bars[:, 3].copy(),
    )


def split_text(csv_text: str, cut_ts: int, overlap_from_ts: int) -> tuple[str, str]:
    """(base, update) of one CSV: base holds ts < cut_ts, update ts >= overlap_from_ts."""
    lines = csv_text.splitlines(keepends=True)
    header, body = lines[0], lines[1:]
    ts = [int(line[: line.index(",")]) for line in body]
    base = [line for t, line in zip(ts, body) if t < cut_ts]
    update = [line for t, line in zip(ts, body) if t >= overlap_from_ts]
    return header + "".join(base), header + "".join(update)


def write_asset(inputs: AssetInputs, out_dir: Path) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    ohlcv = out_dir / f"{inputs.symbol}_ohlcv.csv"
    metrics = out_dir / f"{inputs.symbol}_metrics.csv"
    ohlcv.write_text(inputs.ohlcv)
    metrics.write_text(inputs.metrics)
    return ohlcv, metrics
