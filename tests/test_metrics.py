"""Tests for value-curve statistics, tables, and curve CSV files."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chainfolio.errors import DataError
from chainfolio.metrics import (
    SECONDS_PER_DAY,
    SORTINO_NOTE,
    SummaryStats,
    arr,
    daily_returns,
    drr,
    render_table,
    sortino,
    stats_csv,
    summarize,
    write_curves_csv,
)

MIDNIGHT = 18_519 * SECONDS_PER_DAY  # 2020-09-18T00:00:00Z
BAR = 21_600


def day_grid(n, spacing=SECONDS_PER_DAY, t0=MIDNIGHT):
    return t0 + spacing * np.arange(n, dtype=np.int64)


def curve_from(returns, spacing=SECONDS_PER_DAY, t0=MIDNIGHT):
    """A value curve from 100 whose bar returns are ``returns``, up to rounding."""
    values = 100.0 * np.cumprod(np.concatenate([[1.0], 1.0 + np.asarray(returns, dtype=np.float64)]))
    return day_grid(len(values), spacing, t0), values


# ---------------------------------------------------------------------------
# Accumulated return


def test_arr_examples():
    assert abs(arr([10_000.0, 11_000.0, 13_126.0]) - 0.3126) < 1e-12
    assert abs(arr([100.0, 70.0, 48.12]) - (-0.5188)) < 1e-12
    assert arr([50.0, 100.0]) == 1.0
    assert arr([42.0, 13.0, 42.0]) == 0.0


def test_arr_validation():
    with pytest.raises(DataError):
        arr([100.0])
    with pytest.raises(DataError):
        arr([100.0, -5.0])
    with pytest.raises(DataError):
        arr([100.0, float("nan")])


@given(
    st.lists(st.floats(1.0, 1000.0), min_size=3, max_size=30),
    st.data(),
)
def test_arr_composes_across_a_split(values, data):
    k = data.draw(st.integers(1, len(values) - 2))
    whole = 1.0 + arr(values)
    left = 1.0 + arr(values[: k + 1])
    right = 1.0 + arr(values[k:])
    assert whole == pytest.approx(left * right, rel=1e-12)


# ---------------------------------------------------------------------------
# Curve checks


def test_daily_bars_give_their_bar_returns():
    daily = daily_returns(day_grid(4), [100.0, 110.0, 99.0, 99.0])
    assert np.allclose(daily, [0.10, -0.10, 0.0], atol=1e-12)


UNEVEN = np.array([MIDNIGHT, MIDNIGHT + 100, MIDNIGHT + 300])


@pytest.mark.parametrize("fn", [daily_returns, summarize])
@pytest.mark.parametrize("ts, values", [
    (day_grid(1), [100.0]),                                          # fewer than 2 points
    (day_grid(0), []),
    (day_grid(2), [100.0, -1.0]),                                    # non-positive value
    (day_grid(2), [100.0, 0.0]),
    (day_grid(2), [100.0, float("nan")]),                            # non-finite value
    (day_grid(2), [float("inf"), 100.0]),
    (day_grid(3), [1.0, 2.0]),                                       # length mismatch
    (day_grid(2), [1.0, 2.0, 3.0]),
    (UNEVEN, [1.0, 2.0, 3.0]),                                       # not equispaced
    (day_grid(3)[::-1], [1.0, 2.0, 3.0]),                            # decreasing
    (day_grid(3, spacing=10_000), [1.0, 2.0, 3.0]),                  # 10000 s does not divide a day
    (day_grid(3, spacing=2 * SECONDS_PER_DAY), [1.0, 2.0, 3.0]),
], ids=["one-point", "empty", "negative", "zero", "nan", "inf", "short-values", "short-ts",
        "uneven", "decreasing", "10000s", "two-days"])
def test_curve_checks_raise_data_error(fn, ts, values):
    with pytest.raises(DataError):
        fn(ts, values)


# ---------------------------------------------------------------------------
# Daily compounding


def test_drr_constant_daily_returns():
    assert drr(np.array([0.01] * 5)) == pytest.approx(0.01, abs=1e-15)


def test_drr_symmetric_days_average_to_zero():
    # dyadic returns survive the 1+r compounding round trip exactly
    assert drr(np.array([0.5, -0.5])) == 0.0
    assert drr(np.array([0.10, -0.10])) == pytest.approx(0.0, abs=1e-15)


def test_drr_compounds_within_each_day():
    daily = daily_returns(*curve_from([0.01] * 12, spacing=BAR))
    assert len(daily) == 3
    assert np.allclose(daily, 1.01**4 - 1.0, atol=1e-15)
    assert drr(daily) == pytest.approx(1.01**4 - 1.0, abs=1e-15)


def test_drr_partial_final_day():
    daily = daily_returns(*curve_from([0.01] * 11, spacing=BAR))
    expect = (2 * (1.01**4 - 1.0) + (1.01**3 - 1.0)) / 3.0
    assert drr(daily) == pytest.approx(expect, abs=1e-15)


def test_daily_attribution_uses_period_start():
    # the bar ending exactly at midnight belongs to the day it started
    daily = daily_returns(*curve_from([0.02, 0.03], spacing=BAR, t0=MIDNIGHT - BAR))
    assert np.allclose(daily, [0.02, 0.03], atol=1e-15)
    assert daily_returns(*curve_from([0.02, 0.03], spacing=BAR)) == pytest.approx([1.02 * 1.03 - 1.0], abs=1e-15)


# ---------------------------------------------------------------------------
# Sortino


def test_sortino_zero_mean_is_zero():
    assert sortino(np.array([0.5, -0.5])) == 0.0
    assert sortino(np.array([0.1, -0.1])) == pytest.approx(0.0, abs=1e-14)


def test_sortino_no_downside_is_infinite():
    assert sortino(np.array([0.01, 0.02, 0.005])) == math.inf


def test_sortino_flat_series_is_zero():
    assert sortino(np.array([0.0, 0.0, 0.0])) == 0.0


def test_sortino_hand_formula():
    rets = [0.02, -0.01, 0.03, -0.02]
    mean = sum(rets) / 4.0
    downside = math.sqrt((0.01**2 + 0.02**2) / 4.0)
    assert sortino(np.array(rets)) == pytest.approx(mean / downside, abs=1e-12)


def test_sortino_respects_target():
    daily = np.array([0.02, 0.01])
    assert sortino(daily, target=0.0) == math.inf
    got = sortino(daily, target=0.03)
    mean = 0.015
    downside = math.sqrt(((0.02 - 0.03) ** 2 + (0.01 - 0.03) ** 2) / 2.0)
    assert got == pytest.approx((mean - 0.03) / downside, abs=1e-12)


def test_summarize_matches_parts(rng):
    values = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 20)))
    ts = day_grid(20, spacing=BAR)
    stats = summarize(ts, values)
    daily = daily_returns(ts, values)
    assert stats.arr == arr(values)
    assert stats.drr == drr(daily)
    assert stats.sortino == sortino(daily)


# ---------------------------------------------------------------------------
# Rendering


def test_render_table_format():
    stats = {
        "strategy": SummaryStats(arr=0.3126, drr=0.001, sortino=1.23456),
        "baseline_AAA": SummaryStats(arr=-0.5188, drr=-0.0002, sortino=math.inf),
    }
    table = render_table(stats)
    lines = table.splitlines()
    assert lines[0].split() == ["metric", "strategy", "baseline_AAA"]
    assert "31.26" in lines[2] and "-51.88" in lines[2]
    assert "0.1000" in lines[3] and "-0.0200" in lines[3]
    assert "1.2346" in lines[4] and "+inf" in lines[4]
    assert table.endswith(SORTINO_NOTE)
    with pytest.raises(DataError):
        render_table({})


def test_stats_csv_round_trips_floats():
    stats = {"strategy": SummaryStats(arr=1 / 3, drr=-1e-7, sortino=math.inf)}
    text = stats_csv(stats)
    lines = text.strip().splitlines()
    assert lines[0] == "metric,strategy"
    assert float(lines[1].split(",")[1]) == 1 / 3
    assert float(lines[2].split(",")[1]) == -1e-7
    assert float(lines[3].split(",")[1]) == math.inf


# ---------------------------------------------------------------------------
# Curve CSV files


def test_curves_csv_round_trip_exact(tmp_path, rng):
    ts = day_grid(10, spacing=BAR)
    curves = {
        "strategy": 10_000.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 10))),
        "baseline_AAA": rng.uniform(1, 2, 10),
    }
    path = tmp_path / "curves.csv"
    write_curves_csv(path, ts, curves)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["ts", "strategy_value", "baseline_AAA_value"]
    assert [int(row[0]) for row in rows] == ts.tolist()
    for j, name in enumerate(curves, start=1):
        assert np.array_equal([float(row[j]) for row in rows], curves[name])


def test_curves_csv_validation(tmp_path):
    with pytest.raises(DataError, match="does not share the report range"):
        write_curves_csv(tmp_path / "x.csv", day_grid(3), {"a": [1.0, 2.0]})
    assert not (tmp_path / "x.csv").exists()
