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
    ReturnSeries,
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


def series_from(returns, spacing=SECONDS_PER_DAY, t0=MIDNIGHT):
    returns = np.asarray(returns, dtype=np.float64)
    ts = t0 + spacing * np.arange(1, len(returns) + 1, dtype=np.int64)
    return ReturnSeries(ts, returns, SECONDS_PER_DAY // spacing)


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
# Return series construction


def test_from_curve_derives_periods_per_day():
    ts = day_grid(4, spacing=BAR)
    series = ReturnSeries.from_curve(ts, [100.0, 110.0, 99.0, 99.0])
    assert series.periods_per_day == 4
    assert np.allclose(series.returns, [0.10, -0.10, 0.0], atol=1e-12)
    assert np.array_equal(series.timestamps, ts[1:])


def test_from_curve_validation():
    with pytest.raises(DataError):
        ReturnSeries.from_curve(day_grid(1), [100.0])
    with pytest.raises(DataError):
        ReturnSeries.from_curve(day_grid(2), [100.0, -1.0])
    odd = MIDNIGHT + 10_000 * np.arange(3, dtype=np.int64)  # 10000s doesn't divide a day
    with pytest.raises(DataError):
        ReturnSeries.from_curve(odd, [1.0, 2.0, 3.0])


def test_return_series_validation():
    with pytest.raises(DataError):
        ReturnSeries(day_grid(2), np.array([0.1]), 1)
    with pytest.raises(DataError):
        series_from([0.5, -1.0])
    with pytest.raises(DataError):
        ReturnSeries(day_grid(2), np.array([0.1, 0.1]), 4)  # ppd disagrees with spacing
    bad_ts = np.array([MIDNIGHT, MIDNIGHT + 100, MIDNIGHT + 300])
    with pytest.raises(DataError):
        ReturnSeries(bad_ts, np.array([0.1, 0.1, 0.1]), 864)


# ---------------------------------------------------------------------------
# Daily compounding


def test_drr_constant_daily_returns():
    assert drr(series_from([0.01] * 5)) == pytest.approx(0.01, abs=1e-15)


def test_drr_symmetric_days_average_to_zero():
    # dyadic returns survive the 1+r compounding round trip exactly
    assert drr(series_from([0.5, -0.5])) == 0.0
    assert drr(series_from([0.10, -0.10])) == pytest.approx(0.0, abs=1e-15)


def test_drr_compounds_within_each_day():
    series = series_from([0.01] * 12, spacing=BAR)
    assert drr(series) == pytest.approx(1.01**4 - 1.0, abs=1e-15)
    days, daily = daily_returns(series)
    assert len(days) == 3
    assert np.allclose(daily, 1.01**4 - 1.0, atol=1e-15)


def test_drr_partial_final_day():
    series = series_from([0.01] * 11, spacing=BAR)
    expect = (2 * (1.01**4 - 1.0) + (1.01**3 - 1.0)) / 3.0
    assert drr(series) == pytest.approx(expect, abs=1e-15)


def test_daily_attribution_uses_period_start():
    # one period ends exactly at midnight: it belongs to the day it started
    ts = np.array([MIDNIGHT, MIDNIGHT + BAR], dtype=np.int64)
    series = ReturnSeries(ts, np.array([0.02, 0.03]), 4)
    days, daily = daily_returns(series)
    assert list(days) == [MIDNIGHT // SECONDS_PER_DAY - 1, MIDNIGHT // SECONDS_PER_DAY]
    assert np.allclose(daily, [0.02, 0.03], atol=1e-15)


# ---------------------------------------------------------------------------
# Sortino


def test_sortino_zero_mean_is_zero():
    assert sortino(series_from([0.5, -0.5])) == 0.0
    assert sortino(series_from([0.1, -0.1])) == pytest.approx(0.0, abs=1e-14)


def test_sortino_no_downside_is_infinite():
    assert sortino(series_from([0.01, 0.02, 0.005])) == math.inf


def test_sortino_flat_series_is_zero():
    assert sortino(series_from([0.0, 0.0, 0.0])) == 0.0


def test_sortino_hand_formula():
    rets = [0.02, -0.01, 0.03, -0.02]
    mean = sum(rets) / 4.0
    downside = math.sqrt((0.01**2 + 0.02**2) / 4.0)
    assert sortino(series_from(rets)) == pytest.approx(mean / downside, abs=1e-12)


def test_sortino_respects_target():
    rets = [0.02, 0.01]
    s = series_from(rets)
    assert sortino(s, target=0.0) == math.inf
    got = sortino(s, target=0.03)
    mean = 0.015
    downside = math.sqrt(((0.02 - 0.03) ** 2 + (0.01 - 0.03) ** 2) / 2.0)
    assert got == pytest.approx((mean - 0.03) / downside, abs=1e-12)


def test_summarize_matches_parts(rng):
    values = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 20)))
    ts = day_grid(20, spacing=BAR)
    stats = summarize(ts, values)
    series = ReturnSeries.from_curve(ts, values)
    assert stats.arr == arr(values)
    assert stats.drr == drr(series)
    assert stats.sortino == sortino(series)


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
