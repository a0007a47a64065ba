"""Synthetic market worlds shared across the test suite.

Prices are geometric random walks rendered as consistent OHLCV bars on
a fixed 6-hour grid; metric pools mix noisy copies of forward k-bar
returns (the planted signal) with pure noise series.  ``race`` starts
processes that write one store or registry together.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np

from chainfolio.datastore import AssetId, BarTable, CsvStore, MetricTable

INTERVAL = 21_600
T0 = 1_600_000_000 - (1_600_000_000 % INTERVAL)  # grid-aligned epoch anchor


def grid(n_bars: int, t0: int = T0, interval: int = INTERVAL) -> np.ndarray:
    return t0 + interval * np.arange(n_bars, dtype=np.int64)


def price_path(n_bars: int, rng: np.random.Generator, drift: float = 0.0, vol: float = 0.02,
               start: float = 100.0) -> np.ndarray:
    steps = rng.normal(drift, vol, size=n_bars - 1)
    return start * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))


def bars_from_closes(closes: np.ndarray, rng: np.random.Generator, t0: int = T0,
                     interval: int = INTERVAL) -> BarTable:
    ts = grid(len(closes), t0, interval)
    opens = np.concatenate([[closes[0] * (1 + rng.normal(0, 0.001))], closes[:-1]])
    wiggle = np.abs(rng.normal(0, 0.002, size=len(closes)))
    highs = np.maximum(opens, closes) * (1 + wiggle)
    lows = np.minimum(opens, closes) * (1 - wiggle)
    volumes = np.exp(rng.normal(10, 0.5, size=len(closes)))
    return BarTable(ts, np.column_stack([opens, highs, lows, closes, volumes]))


def forward_return_signal(closes: np.ndarray, k: int, rng: np.random.Generator,
                          snr: float = 5.0) -> np.ndarray:
    """A standardized copy of the forward k-bar return plus 1/snr noise.

    The tail (where no forward return exists) is pure noise so every bar
    still carries a value.
    """
    ret = closes[k:] / closes[:-k] - 1.0
    z = (ret - ret.mean()) / (ret.std() + 1e-12)
    out = np.empty(len(closes))
    out[: len(z)] = z + rng.normal(0, 1.0 / snr, size=len(z))
    out[len(z):] = rng.normal(0, 1.0, size=len(closes) - len(z))
    return out


def make_asset(
    store: CsvStore,
    symbol: str,
    n_bars: int,
    seed: int,
    n_signal: int = 3,
    n_noise: int = 8,
    signal_horizons: tuple[int, ...] = (1, 2, 3),
    snr: float = 5.0,
    drift: float = 0.0,
    vol: float = 0.02,
    t0: int = T0,
) -> AssetId:
    """Populate one asset with bars plus a planted-signal metric pool."""
    rng = np.random.default_rng(seed)
    asset = AssetId(symbol)
    closes = price_path(n_bars, rng, drift=drift, vol=vol)
    store.ingest_ohlcv(asset, bars_from_closes(closes, rng, t0=t0))
    ts = grid(n_bars, t0)
    series = {}
    for i in range(n_signal):
        k = signal_horizons[i % len(signal_horizons)]
        series[f"sig_{i:02d}"] = (ts, forward_return_signal(closes, k, rng, snr=snr))
    for i in range(n_noise):
        series[f"noise_{i:02d}"] = (ts, rng.normal(size=n_bars))
    store.ingest_metrics(asset, MetricTable.from_series(series))
    return asset


def bar_ts(index: int, t0: int = T0, interval: int = INTERVAL) -> int:
    return int(t0 + interval * index)


def bar_table(rows) -> BarTable:
    """Bars from ``(ts, open, high, low, close, volume)`` rows."""
    rows = list(rows)
    return BarTable(np.array([r[0] for r in rows], dtype=np.int64),
                    np.array([r[1:] for r in rows], dtype=np.float64).reshape(len(rows), 5))


def metric_table(rows) -> MetricTable:
    """Metric observations from ``(ts, name, value)`` rows, in row order."""
    rows = list(rows)
    code = {name: i for i, name in enumerate(dict.fromkeys(r[1] for r in rows))}
    return MetricTable(np.array([r[0] for r in rows], dtype=np.int64),
                       np.array([code[r[1]] for r in rows], dtype=np.intp),
                       list(code), np.array([r[2] for r in rows], dtype=np.float64))


def race(script: str, argvs: list[list[str]]) -> None:
    """Run ``python -c script`` once per argv, releasing every child at once:
    each prints ``ready``, then waits for a line on stdin.  Each must exit 0."""
    procs = [subprocess.Popen([sys.executable, "-c", script, *argv],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
             for argv in argvs]
    try:
        for proc in procs:
            assert proc.stdout.readline() == "ready\n"
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        for proc in procs:
            proc.stdin.close()
            assert proc.wait(timeout=120) == 0
    finally:
        for proc in procs:
            proc.kill()
            proc.stdout.close()
