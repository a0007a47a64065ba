"""Performance metrics over value curves: ARR, DRR, and Sortino ratio.

Conventions, stated once and flagged in every rendered table:

* ARR is the plain accumulated return V_end / V_start - 1.
* DRR compounds per-period returns within each UTC calendar day (the day
  a period starts), then takes the arithmetic mean across days.
* Sortino uses daily returns, target 0, no annualization; the downside
  deviation is sqrt(mean(min(r - target, 0)^2)) over all days.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .datastore import atomic_write, csv_text
from .errors import DataError

SECONDS_PER_DAY = 86_400

#: Printed under every comparison table; the ratio has no universal convention.
SORTINO_NOTE = "Sortino: daily returns, target 0, no annualization."

_fmt = repr


@dataclass(frozen=True)
class ReturnSeries:
    """Per-period simple returns with the timestamps of the period ends."""

    timestamps: np.ndarray   # (P,) int64, end of each period
    returns: np.ndarray      # (P,) simple returns, each > -1
    periods_per_day: int

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        r = np.asarray(self.returns, dtype=np.float64)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "returns", r)
        if ts.shape != r.shape or ts.ndim != 1 or len(ts) == 0:
            raise DataError("timestamps and returns must be equal-length 1-D arrays")
        if not np.isfinite(r).all() or (r <= -1.0).any():
            raise DataError("returns must be finite and greater than -1")
        if self.periods_per_day <= 0:
            raise DataError("periods_per_day must be positive")
        if len(ts) > 1:
            spacing = int(ts[1] - ts[0])
            if spacing <= 0 or not (np.diff(ts) == spacing).all():
                raise DataError("return series timestamps must be strictly increasing and equispaced")
            if spacing * self.periods_per_day != SECONDS_PER_DAY:
                raise DataError(
                    f"periods_per_day {self.periods_per_day} inconsistent with {spacing}s spacing"
                )

    @classmethod
    def from_curve(cls, timestamps: Sequence[int], values: Sequence[float]) -> "ReturnSeries":
        ts = np.asarray(timestamps, dtype=np.int64)
        v = np.asarray(values, dtype=np.float64)
        if len(v) < 2:
            raise DataError("a value curve needs at least 2 points")
        if not np.isfinite(v).all() or (v <= 0).any():
            raise DataError("value curve must be positive and finite")
        spacing = int(ts[1] - ts[0])
        if spacing <= 0 or SECONDS_PER_DAY % spacing != 0:
            raise DataError(f"bar spacing {spacing}s must divide one day")
        return cls(ts[1:], v[1:] / v[:-1] - 1.0, SECONDS_PER_DAY // spacing)


@dataclass(frozen=True)
class SummaryStats:
    arr: float
    drr: float
    sortino: float   # math.inf marks the zero-downside, positive-mean case


def arr(values: Sequence[float]) -> float:
    """Accumulated rate of return of a value curve: V_end / V_start - 1."""
    v = np.asarray(values, dtype=np.float64)
    if len(v) < 2:
        raise DataError("ARR needs at least 2 curve points")
    if not np.isfinite(v).all() or (v <= 0).any():
        raise DataError("ARR requires positive finite values")
    return float(v[-1] / v[0] - 1.0)


def daily_returns(series: ReturnSeries) -> tuple[np.ndarray, np.ndarray]:
    """Compound per-period returns within each UTC day of the period start.

    Returns (day ordinals, daily simple returns), days ascending.
    """
    spacing = SECONDS_PER_DAY // series.periods_per_day
    start_ts = series.timestamps - spacing
    days = start_ts // SECONDS_PER_DAY
    growth = 1.0 + series.returns
    uniq, first = np.unique(days, return_index=True)
    out = np.empty(len(uniq))
    bounds = np.append(first, len(days))
    for i in range(len(uniq)):
        lo, hi = bounds[i], bounds[i + 1]
        # a single-period day IS its period return; (1+r)-1 would cost an ulp
        out[i] = series.returns[lo] if hi - lo == 1 else growth[lo:hi].prod() - 1.0
    return uniq, out


def drr(series: ReturnSeries) -> float:
    """Arithmetic mean of UTC-daily compounded returns."""
    _, daily = daily_returns(series)
    return float(daily.mean())


def sortino(series: ReturnSeries, target: float = 0.0) -> float:
    """Daily Sortino ratio against a target rate (default 0, no annualization)."""
    _, daily = daily_returns(series)
    mean = float(daily.mean())
    shortfall = np.minimum(daily - target, 0.0)
    downside = math.sqrt(float(np.mean(shortfall * shortfall)))
    if downside == 0.0:
        return math.inf if mean > target else 0.0
    return (mean - target) / downside


def summarize(timestamps: Sequence[int], values: Sequence[float]) -> SummaryStats:
    """ARR, DRR, and Sortino of one value curve."""
    series = ReturnSeries.from_curve(timestamps, values)
    return SummaryStats(arr=arr(values), drr=drr(series), sortino=sortino(series))


# ---------------------------------------------------------------------------
# Rendering


def _cell(x: float, digits: int, scale: float = 1.0) -> str:
    return "+inf" if math.isinf(x) else f"{x * scale:.{digits}f}"


def render_table(stats: Mapping[str, SummaryStats]) -> str:
    """Comparison table: one row per metric, one column per curve.

    Column order follows the mapping order; callers put the strategy first
    and the baselines after it in configuration order.
    """
    if not stats:
        raise DataError("no summary statistics to render")
    names = list(stats)
    rows = [
        ("ARR (%)", [_cell(stats[n].arr, 2, 100.0) for n in names]),
        ("DRR (%)", [_cell(stats[n].drr, 4, 100.0) for n in names]),
        ("Sortino", [_cell(stats[n].sortino, 4) for n in names]),
    ]
    header = ["metric"] + names
    widths = [len(h) for h in header]
    for label, cells in rows:
        widths[0] = max(widths[0], len(label))
        for i, cell in enumerate(cells):
            widths[i + 1] = max(widths[i + 1], len(cell))
    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    out = [line(header), line(["-" * w for w in widths])]
    for label, cells in rows:
        out.append(line([label] + cells))
    out.append("")
    out.append(SORTINO_NOTE)
    return "\n".join(out)


def stats_csv(stats: Mapping[str, SummaryStats]) -> str:
    """The comparison table as CSV text (same ordering as render_table)."""
    names = list(stats)
    lines = ["metric," + ",".join(names)]
    lines.append("arr," + ",".join(_fmt(stats[n].arr) for n in names))
    lines.append("drr," + ",".join(_fmt(stats[n].drr) for n in names))
    lines.append("sortino," + ",".join(_fmt(stats[n].sortino) for n in names))
    return "\n".join(lines) + "\n"


def write_curves_csv(path: str | Path, timestamps: Sequence[int], curves: Mapping[str, Sequence[float]]) -> None:
    """Flat curve file `ts,<name>_value,...`; floats round-trip exactly."""
    ts = np.asarray(timestamps, dtype=np.int64)
    cols = {name: np.asarray(vals, dtype=np.float64) for name, vals in curves.items()}
    for name, vals in cols.items():
        if len(vals) != len(ts):
            raise DataError(f"curve {name!r} does not share the report range")

    rows = ([int(ts[i])] + [_fmt(float(vals[i])) for vals in cols.values()] for i in range(len(ts)))
    atomic_write(path, [csv_text([["ts"] + [f"{name}_value" for name in cols], *rows])])
