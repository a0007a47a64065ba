"""Data feed: parsing, ingestion semantics, LOCF alignment."""

import json
import sys
import threading

import numpy as np
import pytest

from chainfolio.datastore import (
    AlignmentError,
    AssetId,
    Bar,
    CsvStore,
    MalformedRecordError,
    MetricPoint,
    atomic_write,
    parse_metrics_csv,
    parse_ohlcv_csv,
)
from chainfolio.errors import DataError

from _synth import INTERVAL, T0, bar_ts, grid


def flat_bars(n, t0=T0, price=100.0, volume=5.0):
    return [Bar(bar_ts(i, t0), price, price, price, price, volume) for i in range(n)]


# ---------------------------------------------------------------------------
# Domain types


def test_asset_id_parse_and_key():
    assert AssetId.parse("btc").key == "BTC-USDT"
    assert AssetId.parse("BTC-USDT") == AssetId("BTC", "USDT")
    assert AssetId("storj", "usdt").key == "STORJ-USDT"


def test_asset_id_rejects_bad_symbols():
    with pytest.raises(DataError):
        AssetId("")
    with pytest.raises(DataError):
        AssetId("B TC")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(open=100, high=99, low=98, close=99),     # high < open
        dict(open=100, high=105, low=101, close=104),  # low > open
        dict(open=100, high=105, low=-1, close=104),   # nonpositive low
        dict(open=100, high=105, low=98, close=104, volume=-2.0),
    ],
)
def test_bar_invariants(kwargs):
    base = dict(ts=T0, open=100.0, high=105.0, low=95.0, close=102.0, volume=1.0)
    base.update({k: float(v) for k, v in kwargs.items()})
    with pytest.raises(DataError):
        Bar(**base)


def test_metric_point_requires_finite_value_and_name():
    with pytest.raises(DataError):
        MetricPoint(T0, "", 1.0)
    with pytest.raises(DataError):
        MetricPoint(T0, "x", float("nan"))


# ---------------------------------------------------------------------------
# CSV parsing


def test_parse_ohlcv_roundtrip(tmp_path):
    p = tmp_path / "bars.csv"
    p.write_text(
        "ts,open,high,low,close,volume\n"
        f"{T0},100.0,101.5,99.25,100.75,12.0\n"
        f"{T0 + INTERVAL},100.75,102.0,100.0,101.0,8.5\n"
    )
    bars = parse_ohlcv_csv(p)
    assert len(bars) == 2
    assert bars.ohlcv[0, 1] == 101.5 and bars.ts[1] == T0 + INTERVAL
    assert list(bars)[0] == Bar(T0, 100.0, 101.5, 99.25, 100.75, 12.0)


def test_parse_ohlcv_names_bad_row(tmp_path):
    p = tmp_path / "bars.csv"
    # row 3 violates high >= open
    p.write_text(
        "ts,open,high,low,close,volume\n"
        f"{T0},100,101,99,100,1\n"
        f"{T0 + INTERVAL},100,99.5,99,99.2,1\n"
    )
    with pytest.raises(MalformedRecordError, match="row 3"):
        parse_ohlcv_csv(p)


def test_parse_ohlcv_rejects_wrong_header(tmp_path):
    p = tmp_path / "bars.csv"
    p.write_text("time,o,h,l,c,v\n1,2,3,4,5,6\n")
    with pytest.raises(MalformedRecordError, match="row 1"):
        parse_ohlcv_csv(p)


def test_parse_metrics_names_bad_row(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(f"ts,name,value\n{T0},aa,1.0\n{T0},bb,not-a-number\n")
    with pytest.raises(MalformedRecordError, match="row 3"):
        parse_metrics_csv(p)


# ---------------------------------------------------------------------------
# Ingestion


def test_ingest_ohlcv_counts_three_rows(tmp_path):
    store = CsvStore(tmp_path)
    assert store.ingest_ohlcv(AssetId("AAA"), flat_bars(3)) == 3


def test_ingest_ohlcv_duplicate_ts_in_stream_rejected(tmp_path):
    store = CsvStore(tmp_path)
    bars = flat_bars(2) + [flat_bars(1)[0]]
    with pytest.raises(DataError):
        store.ingest_ohlcv(AssetId("AAA"), bars)


def test_reingest_identical_is_idempotent(tmp_path):
    store = CsvStore(tmp_path)
    bars = flat_bars(5)
    assert store.ingest_ohlcv(AssetId("AAA"), bars) == 5
    assert store.ingest_ohlcv(AssetId("AAA"), bars) == 0
    assert list(store.load_bars(AssetId("AAA"))) == sorted(bars, key=lambda b: b.ts)


def test_ohlcv_roundtrip_persisted_equals_ingested(tmp_path, rng):
    store = CsvStore(tmp_path)
    closes = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, size=20)))
    bars = [
        Bar(bar_ts(i), float(closes[i]) * 0.999, float(closes[i]) * 1.002,
            float(closes[i]) * 0.997, float(closes[i]), float(i + 1))
        for i in range(20)
    ]
    store.ingest_ohlcv(AssetId("AAA"), bars)
    assert list(store.load_bars(AssetId("AAA"))) == bars


def test_ingest_metrics_counts_per_name(tmp_path):
    store = CsvStore(tmp_path)
    points = [MetricPoint(bar_ts(i), name, float(i)) for name in ("aa", "bb") for i in range(5)]
    counts = store.ingest_metrics(AssetId("AAA"), points)
    assert counts == {"aa": 5, "bb": 5}


def test_ingest_metrics_rejects_nonfinite_rows(tmp_path):
    store = CsvStore(tmp_path)

    class Raw:
        pass

    good = [MetricPoint(bar_ts(i), "aa", 1.0) for i in range(3)]
    counts = store.ingest_metrics(AssetId("AAA"), good)
    assert counts == {"aa": 3}
    # the CSV parser drops non-finite rows but keeps the rest of the file
    p = tmp_path.parent / "m.csv"
    p.write_text(f"ts,name,value\n{bar_ts(0)},bb,nan\n{bar_ts(1)},bb,2.0\n")
    pts = parse_metrics_csv(p)
    assert [(q.ts, q.name, q.value) for q in pts] == [(bar_ts(1), "bb", 2.0)]


def test_ingest_metrics_last_writer_wins(tmp_path):
    store = CsvStore(tmp_path)
    store.ingest_metrics(AssetId("AAA"), [MetricPoint(T0, "aa", 1.0)])
    store.ingest_metrics(AssetId("AAA"), [MetricPoint(T0, "aa", 2.0)])
    ts, values = store.load_metrics(AssetId("AAA"))["aa"]
    assert ts.tolist() == [T0] and values.tolist() == [2.0]


def test_ingest_metrics_warns_per_overwrite_in_stream_order(tmp_path, caplog):
    store = CsvStore(tmp_path)
    store.ingest_metrics(AssetId("AAA"), [MetricPoint(T0, "aa", 1.0)])
    stream = [MetricPoint(T0, "aa", 2.0), MetricPoint(T0, "aa", 2.0), MetricPoint(T0, "bb", 5.0),
              MetricPoint(T0, "aa", 3.0)]
    with caplog.at_level("WARNING", logger="chainfolio.datastore"):
        counts = store.ingest_metrics(AssetId("AAA"), stream)
    assert counts == {"aa": 3, "bb": 1}
    assert [r.getMessage() for r in caplog.records] == [
        f"AAA-USDT: aa at ts={T0} overwritten 1.0 -> 2.0",
        f"AAA-USDT: aa at ts={T0} overwritten 2.0 -> 3.0",
    ]
    series = store.load_metrics(AssetId("AAA"))
    assert series["aa"][1].tolist() == [3.0] and series["bb"][1].tolist() == [5.0]


def test_stored_bars_out_of_order_are_data_error(tmp_path):
    store = CsvStore(tmp_path)
    store.ingest_ohlcv(AssetId("AAA"), flat_bars(3))
    path = tmp_path / "AAA-USDT" / "ohlcv.csv"
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *reversed(rows)]) + "\n")
    with pytest.raises(DataError, match="ascending"):
        store.align(AssetId("AAA"), bar_ts(0), bar_ts(2))


# ---------------------------------------------------------------------------
# Alignment


def make_store_with_metric(tmp_path, n_bars, metric_ts_values):
    store = CsvStore(tmp_path)
    asset = AssetId("AAA")
    store.ingest_ohlcv(asset, flat_bars(n_bars))
    store.ingest_metrics(asset, [MetricPoint(int(t), "mm", float(v)) for t, v in metric_ts_values])
    return store, asset


def test_align_copies_exactly_sampled_metric(tmp_path):
    values = [(bar_ts(i), 10.0 + i) for i in range(6)]
    store, asset = make_store_with_metric(tmp_path, 6, values)
    frame = store.align(asset, bar_ts(0), bar_ts(5))
    assert frame.metric_names == ["mm"]
    np.testing.assert_array_equal(frame.metrics[:, 0], [10.0 + i for i in range(6)])


def test_align_locf_every_second_bar(tmp_path):
    # oracle: manual LOCF on a 6-row fixture, metric present on even bars
    values = [(bar_ts(i), float(i)) for i in range(0, 6, 2)]
    store, asset = make_store_with_metric(tmp_path, 6, values)
    frame = store.align(asset, bar_ts(0), bar_ts(5), fill_limit=2)
    np.testing.assert_array_equal(frame.metrics[:, 0], [0.0, 0.0, 2.0, 2.0, 4.0, 4.0])


def test_align_drops_metric_with_long_gap(tmp_path):
    # present on the first two bars, then a 10-bar hole
    values = [(bar_ts(0), 1.0), (bar_ts(1), 2.0), (bar_ts(12), 3.0)]
    store, asset = make_store_with_metric(tmp_path, 14, values)
    store.ingest_metrics(asset, [MetricPoint(bar_ts(i), "good", float(i)) for i in range(14)])
    frame = store.align(asset, bar_ts(0), bar_ts(13), fill_limit=4)
    assert frame.metric_names == ["good"]
    assert frame.dropped_metrics == ["mm"]


def test_align_requires_point_at_or_before_start(tmp_path):
    values = [(bar_ts(3), 1.0)] + [(bar_ts(i), 2.0) for i in range(4, 8)]
    store, asset = make_store_with_metric(tmp_path, 8, values)
    store.ingest_metrics(asset, [MetricPoint(bar_ts(i), "aa", 5.0) for i in range(8)])
    frame = store.align(asset, bar_ts(2), bar_ts(7), fill_limit=4)
    assert frame.dropped_metrics == ["mm"] and frame.metric_names == ["aa"]
    # but aligning from bar 3 onwards keeps it
    frame = store.align(asset, bar_ts(3), bar_ts(7), fill_limit=4)
    assert frame.metric_names == ["aa", "mm"]


def test_align_errors_on_ohlcv_gap(tmp_path):
    store = CsvStore(tmp_path)
    asset = AssetId("AAA")
    bars = flat_bars(8)
    del bars[4]
    store.ingest_ohlcv(asset, bars)
    store.ingest_metrics(asset, [MetricPoint(bar_ts(i), "mm", 1.0) for i in range(8)])
    with pytest.raises(AlignmentError):
        store.align(asset, bar_ts(0), bar_ts(7))


def test_align_errors_on_empty_metric_pool(tmp_path):
    values = [(bar_ts(0), 1.0)]
    store, asset = make_store_with_metric(tmp_path, 12, values)
    with pytest.raises(AlignmentError):
        store.align(asset, bar_ts(0), bar_ts(11), fill_limit=2)


def test_align_no_lookahead(tmp_path, rng):
    """Perturbing any input after t never changes the frame row at t."""
    n = 12
    values = [(bar_ts(i), float(rng.normal())) for i in range(0, n, 2)]
    store, asset = make_store_with_metric(tmp_path, n, values)
    cut = 7
    base = store.align(asset, bar_ts(0), bar_ts(cut), fill_limit=2)

    store2 = CsvStore(tmp_path / "alt")
    store2.ingest_ohlcv(asset, flat_bars(cut + 1) + [
        Bar(bar_ts(i), 999.0, 999.0, 999.0, 999.0, 1.0) for i in range(cut + 1, n)
    ])
    store2.ingest_metrics(
        asset,
        [MetricPoint(int(t), "mm", v) for t, v in values if t <= bar_ts(cut)]
        + [MetricPoint(bar_ts(cut + 2), "mm", 1e9)],
    )
    alt = store2.align(asset, bar_ts(0), bar_ts(cut), fill_limit=2)
    np.testing.assert_array_equal(base.metrics, alt.metrics)
    np.testing.assert_array_equal(base.ohlcv, alt.ohlcv)


def test_align_deterministic(tmp_path):
    values = [(bar_ts(i), float(i * i % 7)) for i in range(10)]
    store, asset = make_store_with_metric(tmp_path, 10, values)
    a = store.align(asset, bar_ts(0), bar_ts(9))
    b = store.align(asset, bar_ts(0), bar_ts(9))
    np.testing.assert_array_equal(a.metrics, b.metrics)
    np.testing.assert_array_equal(a.ohlcv, b.ohlcv)
    np.testing.assert_array_equal(a.timestamps, b.timestamps)


def test_frame_slice_and_index(tmp_path):
    values = [(bar_ts(i), float(i)) for i in range(10)]
    store, asset = make_store_with_metric(tmp_path, 10, values)
    frame = store.align(asset, bar_ts(0), bar_ts(9))
    assert frame.index_of(bar_ts(4)) == 4
    sub = frame.slice(bar_ts(2), bar_ts(6))
    assert len(sub) == 5 and sub.timestamps[0] == bar_ts(2)
    with pytest.raises(DataError):
        frame.index_of(bar_ts(4) + 1)


def test_store_manifest_lists_assets(tmp_path):
    store = CsvStore(tmp_path)
    store.ingest_ohlcv(AssetId("AAA"), flat_bars(2))
    store.ingest_ohlcv(AssetId("BBB"), flat_bars(2))
    keys = sorted(a.key for a in store.assets())
    assert keys == ["AAA-USDT", "BBB-USDT"]


@pytest.mark.parametrize("text", ['{"version": 1, "assets": {', "[]", '{"version": 1}'])
def test_corrupt_manifest_is_data_error(tmp_path, text):
    store = CsvStore(tmp_path)
    store.ingest_ohlcv(AssetId("AAA"), flat_bars(2))
    (tmp_path / CsvStore.MANIFEST).write_text(text)
    with pytest.raises(DataError, match="manifest"):
        store.ingest_ohlcv(AssetId("BBB"), flat_bars(2))
    with pytest.raises(DataError, match="manifest"):
        store.assets()


def test_concurrent_ingests_of_different_assets_keep_the_manifest(tmp_path):
    """Eight threads ingest eight assets; the shared manifest must end valid
    with every entry (a per-asset lock alone loses updates to it)."""
    store = CsvStore(tmp_path)
    symbols = [f"A{i}" for i in range(8)]
    errors = []

    def ingest(symbol):
        try:
            for n in (10, 20):
                store.ingest_ohlcv(AssetId(symbol), flat_bars(n))
                store.ingest_metrics(AssetId(symbol), [MetricPoint(bar_ts(i), "mm", 1.0) for i in range(n)])
        except Exception as exc:  # reported below, with the thread's symbol
            errors.append((symbol, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ingest, args=(s,)) for s in symbols]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    manifest = json.loads((tmp_path / CsvStore.MANIFEST).read_text())
    assert sorted(manifest["assets"]) == [f"{s}-USDT" for s in symbols]
    assert all(e["bars"] == 20 and e["metrics"] == {"mm": 20} for e in manifest["assets"].values())
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


@pytest.mark.parametrize("binary", [False, True])
def test_atomic_write_that_raises_midway_keeps_previous_file(tmp_path, binary):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous\n")

    def write(fh):
        fh.write(b"partial" if binary else "partial")
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        atomic_write(path, write, binary=binary)
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    atomic_write(path, lambda fh: fh.write(b"new" if binary else "new"), binary=binary)
    assert path.read_bytes() == b"new"
