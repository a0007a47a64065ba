"""Performance metrics over value curves: ARR, DRR, and Sortino ratio.

``summarize`` reads a value curve (bar timestamps, positive values) and
derives its daily returns once, which ``drr`` and ``sortino`` take.
Conventions, stated once and flagged in every rendered table:

* ARR is the plain accumulated return V_end / V_start - 1.
* DRR compounds bar returns within each UTC calendar day (the day a bar
  starts), then takes the arithmetic mean across days.  The bar spacing
  comes from the curve's timestamps, which must be equispaced at a
  spacing that divides one day.
* Sortino uses those daily returns, target 0, no annualization; the
  downside deviation is sqrt(mean(min(r - target, 0)^2)) over all days.
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
class SummaryStats:
    arr: float
    drr: float
    sortino: float   # math.inf marks the zero-downside, positive-mean case


def _curve(values: Sequence[float]) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or len(v) < 2:
        raise DataError("a value curve needs at least 2 points")
    if not np.isfinite(v).all() or (v <= 0).any():
        raise DataError("value curve must be positive and finite")
    return v


def arr(values: Sequence[float]) -> float:
    """Accumulated rate of return of a value curve: V_end / V_start - 1."""
    v = _curve(values)
    return float(v[-1] / v[0] - 1.0)


def daily_returns(timestamps: Sequence[int], values: Sequence[float]) -> np.ndarray:
    """A value curve's bar returns compounded within each UTC day a bar starts.

    The curve's bars must be equispaced at a spacing that divides a day.
    Returns the daily simple returns, days ascending.
    """
    v = _curve(values)
    ts = np.asarray(timestamps, dtype=np.int64)
    if ts.shape != v.shape:
        raise DataError("timestamps and values must have equal lengths")
    spacing = int(ts[1] - ts[0])
    if spacing <= 0 or SECONDS_PER_DAY % spacing != 0 or (np.diff(ts) != spacing).any():
        raise DataError("value curve timestamps must be equispaced at a spacing that divides one day")
    returns = v[1:] / v[:-1] - 1.0
    days = ts[:-1] // SECONDS_PER_DAY
    growth = 1.0 + returns
    _, first = np.unique(days, return_index=True)
    bounds = np.append(first, len(days))
    out = np.empty(len(first))
    for i in range(len(first)):
        lo, hi = bounds[i], bounds[i + 1]
        # a single-bar day IS its bar return; (1+r)-1 would cost an ulp
        out[i] = returns[lo] if hi - lo == 1 else growth[lo:hi].prod() - 1.0
    return out


def drr(daily: np.ndarray) -> float:
    """Arithmetic mean of daily returns (see ``daily_returns``)."""
    return float(daily.mean())


def sortino(daily: np.ndarray, target: float = 0.0) -> float:
    """Sortino ratio of daily returns against a target rate (default 0, no annualization)."""
    mean = float(daily.mean())
    shortfall = np.minimum(daily - target, 0.0)
    downside = math.sqrt(float(np.mean(shortfall * shortfall)))
    if downside == 0.0:
        return math.inf if mean > target else 0.0
    return (mean - target) / downside


def summarize(timestamps: Sequence[int], values: Sequence[float]) -> SummaryStats:
    """ARR, DRR, and Sortino of one value curve."""
    daily = daily_returns(timestamps, values)
    return SummaryStats(arr=arr(values), drr=drr(daily), sortino=sortino(daily))


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
    table = [
        ["metric"] + names,
        ["ARR (%)"] + [_cell(stats[n].arr, 2, 100.0) for n in names],
        ["DRR (%)"] + [_cell(stats[n].drr, 4, 100.0) for n in names],
        ["Sortino"] + [_cell(stats[n].sortino, 4) for n in names],
    ]
    widths = [max(map(len, column)) for column in zip(*table)]
    header, *rows = ["  ".join(c.rjust(w) for c, w in zip(cells, widths)) for cells in table]
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([header, rule, *rows, "", SORTINO_NOTE])


def stats_csv(stats: Mapping[str, SummaryStats]) -> str:
    """The comparison table as CSV text (same ordering as render_table)."""
    names = list(stats)
    lines = ["metric," + ",".join(names)]
    for m in ("arr", "drr", "sortino"):
        lines.append(f"{m}," + ",".join(_fmt(getattr(stats[n], m)) for n in names))
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
