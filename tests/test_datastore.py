"""Data feed: parsing, ingestion semantics, LOCF alignment."""

import csv
import hashlib
import io
import json
import logging
import re
import shutil
import struct
import sys
import tempfile
import threading
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from chainfolio import datastore
from chainfolio.container import VERSION, decode_container, encode_container
from chainfolio.datastore import (
    METRICS_HEADER,
    OHLCV_HEADER,
    AlignmentError,
    AssetId,
    BarTable,
    CsvStore,
    MalformedRecordError,
    MetricTable,
    atomic_write,
    parse_metrics_csv,
    parse_ohlcv_csv,
)
from chainfolio.errors import ChainfolioError, DataError

from _synth import INTERVAL, T0, bar_table, bar_ts, metric_table, race
from test_cryptomodule import _JSON, _json_paths
from test_portfolio import damaged_json


def flat_rows(n, t0=T0, price=100.0, volume=5.0):
    return [(bar_ts(i, t0), price, price, price, price, volume) for i in range(n)]


def flat_bars(n, t0=T0, price=100.0, volume=5.0):
    return bar_table(flat_rows(n, t0, price, volume))


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
    for quote in ("", "US/DT", ".."):  # a key names store and registry paths
        with pytest.raises(DataError):
            AssetId("BTC", quote)
    with pytest.raises(DataError):
        AssetId.parse("BTC-../../USDT")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(open=100, high=99, low=98, close=99),     # high < open
        dict(open=100, high=105, low=101, close=104),  # low > open
        dict(open=100, high=105, low=-1, close=104),   # nonpositive low
        dict(open=100, high=105, low=98, close=104, volume=-2.0),
    ],
)
def test_bar_invariants(tmp_path, kwargs):
    base = dict(open=100.0, high=105.0, low=95.0, close=102.0, volume=1.0)
    base.update({k: float(v) for k, v in kwargs.items()})
    with pytest.raises(MalformedRecordError, match=f"at ts={T0}$"):
        CsvStore(tmp_path).ingest_ohlcv(AssetId("AAA"), bar_table([(T0, *base.values())]))
    assert not (tmp_path / "AAA-USDT").exists()


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
    assert bars.ts[0] == T0 and bars.ohlcv[0].tolist() == [100.0, 101.5, 99.25, 100.75, 12.0]


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
    bars = bar_table(flat_rows(2) + flat_rows(1))
    with pytest.raises(DataError):
        store.ingest_ohlcv(AssetId("AAA"), bars)


def test_reingest_identical_is_idempotent(tmp_path):
    store = CsvStore(tmp_path)
    bars = flat_bars(5)
    assert store.ingest_ohlcv(AssetId("AAA"), bars) == 5
    assert store.ingest_ohlcv(AssetId("AAA"), bars) == 0
    loaded = store.load_bars(AssetId("AAA"))
    assert np.array_equal(loaded.ts, bars.ts) and np.array_equal(loaded.ohlcv, bars.ohlcv)


def test_ohlcv_roundtrip_persisted_equals_ingested(tmp_path, rng):
    store = CsvStore(tmp_path)
    closes = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, size=20)))
    bars = bar_table(
        (bar_ts(i), float(closes[i]) * 0.999, float(closes[i]) * 1.002,
         float(closes[i]) * 0.997, float(closes[i]), float(i + 1))
        for i in range(20)
    )
    store.ingest_ohlcv(AssetId("AAA"), bars)
    loaded = store.load_bars(AssetId("AAA"))
    assert loaded.ts.tobytes() == bars.ts.tobytes() and loaded.ohlcv.tobytes() == bars.ohlcv.tobytes()


def test_ingest_metrics_counts_per_name(tmp_path):
    store = CsvStore(tmp_path)
    points = metric_table((bar_ts(i), name, float(i)) for name in ("aa", "bb") for i in range(5))
    counts = store.ingest_metrics(AssetId("AAA"), points)
    assert counts == {"aa": 5, "bb": 5}


def test_ingest_metrics_rejects_nonfinite_rows(tmp_path):
    store = CsvStore(tmp_path)

    class Raw:
        pass

    good = metric_table((bar_ts(i), "aa", 1.0) for i in range(3))
    counts = store.ingest_metrics(AssetId("AAA"), good)
    assert counts == {"aa": 3}
    # the CSV parser drops non-finite rows but keeps the rest of the file
    p = tmp_path.parent / "m.csv"
    p.write_text(f"ts,name,value\n{bar_ts(0)},bb,nan\n{bar_ts(1)},bb,2.0\n")
    pts = parse_metrics_csv(p)
    assert (pts.ts.tolist(), pts.names, pts.codes.tolist(), pts.values.tolist()) == ([bar_ts(1)], ["bb"], [0], [2.0])


def test_ingest_metrics_last_writer_wins(tmp_path):
    store = CsvStore(tmp_path)
    store.ingest_metrics(AssetId("AAA"), metric_table([(T0, "aa", 1.0)]))
    store.ingest_metrics(AssetId("AAA"), metric_table([(T0, "aa", 2.0)]))
    ts, values = store.load_metrics(AssetId("AAA"))["aa"]
    assert ts.tolist() == [T0] and values.tolist() == [2.0]


def test_ingest_metrics_warns_per_overwrite_in_stream_order(tmp_path, caplog):
    store = CsvStore(tmp_path)
    store.ingest_metrics(AssetId("AAA"), metric_table([(T0, "aa", 1.0)]))
    stream = metric_table([(T0, "aa", 2.0), (T0, "aa", 2.0), (T0, "bb", 5.0), (T0, "aa", 3.0)])
    with caplog.at_level("WARNING", logger="chainfolio.datastore"):
        counts = store.ingest_metrics(AssetId("AAA"), stream)
    assert counts == {"aa": 3, "bb": 1}
    assert [r.getMessage() for r in caplog.records] == [
        f"AAA-USDT: aa at ts={T0} overwritten 1.0 -> 2.0",
        f"AAA-USDT: aa at ts={T0} overwritten 2.0 -> 3.0",
    ]
    series = store.load_metrics(AssetId("AAA"))
    assert series["aa"][1].tolist() == [3.0] and series["bb"][1].tolist() == [5.0]


def test_padded_metric_names_are_stored_as_read_back(tmp_path):
    store = CsvStore(tmp_path)
    asset = AssetId("AAA")
    counts = store.ingest_metrics(asset, metric_table([(100, " x ", 1.0), (200, "x", 2.0)]))
    assert counts == {"x": 2}
    assert json.loads((tmp_path / CsvStore.MANIFEST).read_text())["assets"]["AAA-USDT"]["metrics"] == {"x": 2}
    assert (tmp_path / "AAA-USDT" / "metrics.csv").read_text() == "ts,name,value\n100,x,1.0\n200,x,2.0\n"
    assert {n: (ts.tolist(), v.tolist()) for n, (ts, v) in store.load_metrics(asset).items()} == {
        "x": ([100, 200], [1.0, 2.0])}
    # an incoming table is stripped the same way
    table = MetricTable(np.array([300, 400]), np.array([0, 1]), ["\tx", "y "], np.array([3.0, 4.0]))
    assert store.ingest_metrics(asset, table) == {"x": 1, "y": 1}
    assert list(store.load_metrics(asset)) == ["x", "y"]


@pytest.mark.parametrize("names, values, match", [
    (["  "], [1.0], "empty metric name at ts=100"),
    (["x"], [float("inf")], "non-finite value for x at ts=100"),
    ([""], [1.0], "empty metric name at ts=100"),
    ([" \t"], [1.0], "empty metric name at ts=100"),
    (["x"], [float("nan")], "non-finite value for x at ts=100"),
])
def test_ingest_rejects_metric_rows_the_parser_would_not_read_back(tmp_path, names, values, match):
    table = MetricTable(np.array([100]), np.array([0]), names, np.array(values))
    with pytest.raises(MalformedRecordError, match=match):
        CsvStore(tmp_path).ingest_metrics(AssetId("AAA"), table)


def test_ingest_rejects_a_bar_table_breaking_a_bar_invariant(tmp_path):
    good = [T0, 100.0, 105.0, 95.0, 102.0, 1.0]
    for column, value, message in [
        (2, 99.0, "high < max(open, close)"),
        (3, 101.0, "low > min(open, close)"),
        (3, 0.0, "low must be > 0"),
        (5, -2.0, "negative volume"),
        (4, float("nan"), "non-finite field in bar"),
        (5, float("inf"), "non-finite field in bar"),
    ]:
        bad = list(good)
        bad[0], bad[column] = bar_ts(1), value
        table = BarTable(np.array([T0, bar_ts(1)]), np.array([good[1:], bad[1:]]))
        with pytest.raises(MalformedRecordError, match=rf"^{re.escape(message)} at ts={bar_ts(1)}$"):
            CsvStore(tmp_path).ingest_ohlcv(AssetId("AAA"), table)
    assert not (tmp_path / "AAA-USDT").exists()


def test_stored_bars_out_of_order_are_data_error(tmp_path):
    store = CsvStore(tmp_path)
    store.ingest_ohlcv(AssetId("AAA"), flat_bars(3))
    path = tmp_path / "AAA-USDT" / "ohlcv.csv"
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *reversed(rows)]) + "\n")
    with pytest.raises(DataError, match="ascending"):
        store.align(AssetId("AAA"), bar_ts(0), bar_ts(2), INTERVAL, fill_limit=4)


# ---------------------------------------------------------------------------
# Sidecars: a load returns what parsing the current CSV returns


CSVS = ("ohlcv.csv", "metrics.csv")


def sidecar(root, name, symbol="AAA"):
    return Path(root) / f"{symbol}-USDT" / f"{name}{datastore.SIDECAR_SUFFIX}"


def loaded(store, asset, name):
    """What the store loads from one CSV, as a flat list of names and arrays."""
    if name == "ohlcv.csv":
        bars = store.load_bars(asset)
        return [bars.ts, bars.ohlcv]
    return [x for name, (ts, values) in store.load_metrics(asset).items() for x in (name, ts, values)]


def parsed(store, asset, name):
    """What parsing one stored CSV gives, in the form of :func:`loaded`."""
    path = store.root / asset.key / name
    if name == "ohlcv.csv":
        bars = parse_ohlcv_csv(path)
        return [bars.ts, bars.ohlcv]
    return [x for name, (ts, values) in parse_metrics_csv(path).series().items() for x in (name, ts, values)]


def same(got, want):
    """Equal names, and arrays of equal dtype, shape and bits (-0.0 is not 0.0)."""
    return len(got) == len(want) and all(
        a == b if isinstance(a, str) else a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(got, want))


def assert_loads_equal_parsing(store, asset):
    for name in CSVS:
        assert same(loaded(store, asset, name), parsed(store, asset, name))


def small_store(root, n=3):
    store = CsvStore(root)
    asset = AssetId("AAA")
    store.ingest_ohlcv(asset, flat_bars(n))
    store.ingest_metrics(asset, metric_table((bar_ts(i), name, float(i) - 0.5)
                                             for name in ("a,b", 'q"') for i in range(n)))
    return store, asset


@st.composite
def bar_lists(draw):
    ts = sorted(draw(st.sets(st.integers(0, 2**40), max_size=6)))
    prices = st.floats(1e-6, 1e9, allow_subnormal=False)
    bars = []
    for t in ts:
        lo, o, c, hi = sorted(draw(st.lists(prices, min_size=4, max_size=4)))
        o, c = draw(st.permutations([o, c]))
        bars.append((t, o, hi, lo, c, draw(st.sampled_from([0.0, -0.0]) | prices)))
    return bars


metric_names = st.text(st.sampled_from('ab ,"\n\r\t\x00é'), min_size=1, max_size=5).filter(str.strip)
metric_points = st.lists(st.tuples(
    st.integers(-(2**40), 2**40), metric_names,
    st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)), max_size=12)


@given(bars=bar_lists(), points=metric_points)
@example(bars=[], points=[])
@example(bars=[(T0, 1.0, 1.0, 1.0, 1.0, -0.0)], points=[(T0, 'a,"b"', -0.0)])
def test_loads_equal_parsing_the_stored_csv_with_and_without_sidecars(bars, points):
    with tempfile.TemporaryDirectory() as root:
        store = CsvStore(root)
        asset = AssetId("AAA")
        store.ingest_ohlcv(asset, bar_table(bars))
        store.ingest_metrics(asset, metric_table(points))
        # the stored text is what csv.writer writes for the stored rows
        bars, series = store.load_bars(asset), store.load_metrics(asset)
        for name, header, rows in [
            ("ohlcv.csv", OHLCV_HEADER, [[t, *map(repr, row)] for t, row in zip(bars.ts.tolist(), bars.ohlcv.tolist())]),
            ("metrics.csv", METRICS_HEADER, [[t, n, repr(v)] for n, (ts, values) in series.items()
                                              for t, v in zip(ts.tolist(), values.tolist())]),
        ]:
            buf = io.StringIO()
            csv.writer(buf).writerows([header, *rows])
            assert (Path(root) / asset.key / name).read_bytes() == buf.getvalue().encode()
        assert_loads_equal_parsing(store, asset)
        for name in CSVS:
            sidecar(root, name).unlink()
        assert_loads_equal_parsing(store, asset)  # parsed, and the sidecars rewritten
        assert all(sidecar(root, name).exists() for name in CSVS)
        assert_loads_equal_parsing(store, asset)


def test_a_load_with_a_matching_sidecar_parses_nothing(tmp_path, monkeypatch):
    store, asset = small_store(tmp_path)

    def parse(_):
        raise AssertionError("parsed a CSV with a matching sidecar")

    monkeypatch.setattr(datastore, "parse_ohlcv_csv", parse)
    monkeypatch.setattr(datastore, "parse_metrics_csv", parse)
    assert len(store.load_bars(asset)) == 3
    assert list(store.load_metrics(asset)) == ["a,b", 'q"']
    store.ingest_metrics(asset, metric_table([(bar_ts(9), "a,b", 1.0)]))


def test_a_csv_edited_under_a_valid_sidecar_is_parsed(tmp_path, caplog):
    store, asset = small_store(tmp_path)
    path = tmp_path / "AAA-USDT" / "metrics.csv"
    path.write_text(path.read_text().replace(",-0.5", ",7.25"))
    with caplog.at_level(logging.INFO, logger="chainfolio.datastore"):
        series = store.load_metrics(asset)
    assert series["a,b"][1].tolist() == [7.25, 0.5, 1.5]
    assert "sidecar was made from other CSV bytes; parsing the CSV" in caplog.text
    assert_loads_equal_parsing(store, asset)
    fresh, _ = small_store(tmp_path / "fresh")
    (tmp_path / "fresh" / "AAA-USDT" / "metrics.csv").write_bytes(path.read_bytes())
    fresh.load_metrics(asset)
    assert sidecar(tmp_path, "metrics.csv").read_bytes() == sidecar(tmp_path / "fresh", "metrics.csv").read_bytes()


@pytest.mark.parametrize("name", CSVS)
def test_missing_truncated_or_flipped_sidecars_give_the_parsed_data(tmp_path, name):
    store, asset = small_store(tmp_path)
    path = sidecar(tmp_path, name)
    good = path.read_bytes()
    damaged = [b""] + [good[:k] for k in (1, 100, 200, 400, len(good) - 1)]
    # one bit flipped in every third byte: each record's header, digest and data
    damaged += [good[:i] + bytes([good[i] ^ (1 << i % 8)]) + good[i + 1:] for i in range(0, len(good), 3)]
    want = parsed(store, asset, name)
    for data in [None, *damaged]:
        if data is None:
            path.unlink()
        else:
            path.write_bytes(data)
        assert same(loaded(store, asset, name), want)
        assert path.read_bytes() == good


def test_a_sidecar_that_cannot_be_rewritten_is_a_warning(tmp_path, monkeypatch, caplog):
    store, asset = small_store(tmp_path)
    sidecar(tmp_path, "metrics.csv").unlink()

    def fail(*args, **kwargs):
        raise OSError("read-only file system")

    monkeypatch.setattr(datastore, "atomic_write", fail)
    with caplog.at_level(logging.WARNING, logger="chainfolio.datastore"):
        assert list(store.load_metrics(asset)) == ["a,b", 'q"']
    assert "sidecar not written, loads parse the CSV: read-only file system" in caplog.text
    assert not sidecar(tmp_path, "metrics.csv").exists()


def test_fresh_ingests_of_the_same_inputs_write_identical_sidecars(tmp_path):
    small_store(tmp_path / "one")
    small_store(tmp_path / "two")
    for name in CSVS:
        assert sidecar(tmp_path / "one", name).read_bytes() == sidecar(tmp_path / "two", name).read_bytes()


def misfit_sidecar(data, header: dict, body: bytes) -> bytes:
    """A sidecar container with a valid trailer and one fault: a header value
    deleted or of another type, another CSV digest, a column dtype or shape
    that need not fit the body, a truncated or extended body, or another
    container version."""
    fault = data.draw(st.sampled_from(["value", "csv", "column", "body", "version"]))
    version = VERSION
    if fault == "value":
        *at, last = data.draw(st.sampled_from([path for path in _json_paths(header) if path]))
        parent = header
        for key in at:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = data.draw(_JSON.filter(lambda value: type(value) is not type(parent[last])))
    elif fault == "csv":
        header["csv"] = hashlib.sha256(data.draw(st.binary())).hexdigest()
    elif fault == "column":
        column = data.draw(st.sampled_from(header["columns"]))
        if data.draw(st.booleans()):
            column[0] = data.draw(st.sampled_from(["<i8", "<f8", ">i8", ">f8", "<i4", "<f4", "|u1", "<U2", "O"]))
        else:
            column[1] = data.draw(st.lists(st.integers(-1, 40), max_size=3))
    elif fault == "body":
        body = (body[: data.draw(st.integers(0, len(body) - 1))] if data.draw(st.booleans())
                else body + data.draw(st.binary(min_size=1, max_size=24)))
    else:
        version = data.draw(st.integers(0, 0xFFFF).filter(lambda v: v != VERSION))
    prefix = bytearray(encode_container(header, body)[:-32])
    struct.pack_into("<H", prefix, 4, version)
    return bytes(prefix) + hashlib.sha256(prefix).digest()


@given(data=st.data())
def test_a_resealed_sidecar_of_any_content_loads_as_the_parsed_csv(data):
    """A sidecar whose trailer is valid but whose header, body or version
    does not describe the CSV's columns loads as parsing the CSV does,
    raises nothing, and is replaced by the bytes a fresh ingest writes."""
    name = data.draw(st.sampled_from(CSVS))
    with tempfile.TemporaryDirectory() as root:
        store, asset = small_store(root)
        path = sidecar(root, name)
        fresh = path.read_bytes()
        path.write_bytes(misfit_sidecar(data, *decode_container(fresh)))
        assert same(loaded(store, asset, name), parsed(store, asset, name))
        assert path.read_bytes() == fresh


def record_format_sidecar(csv_path: Path, columns: list[np.ndarray]) -> bytes:
    """The sidecar of ``csv_path`` in the format written before sidecars were
    containers: ``np.save`` records of the CSV's SHA-256, of a SHA-256 of the
    column records keyed by the CSV's name and that format's layout number 1,
    then of the columns."""
    def record(array):
        buf = io.BytesIO()
        np.save(buf, array, allow_pickle=False)
        return buf.getvalue()

    body = b"".join(map(record, columns))
    digests = [hashlib.sha256(csv_path.read_bytes()), hashlib.sha256(f"{csv_path.name}/1\n".encode() + body)]
    return b"".join(record(np.frombuffer(d.digest(), dtype=np.uint8)) for d in digests) + body


def test_a_sidecar_in_the_earlier_record_format_is_parsed_once_and_replaced(tmp_path, monkeypatch, caplog):
    store, asset = small_store(tmp_path)
    fresh = {name: sidecar(tmp_path, name).read_bytes() for name in CSVS}
    bars, series = store.load_bars(asset), store.load_metrics(asset)
    columns = {
        "ohlcv.csv": [bars.ts, bars.ohlcv],
        "metrics.csv": [np.frombuffer(json.dumps(list(series)).encode(), dtype=np.uint8),
                        np.array([len(ts) for ts, _ in series.values()]),
                        *(np.concatenate(col) for col in zip(*series.values()))],
    }
    for name in CSVS:
        sidecar(tmp_path, name).write_bytes(record_format_sidecar(tmp_path / "AAA-USDT" / name, columns[name]))
    parses = []
    for parser in ("parse_ohlcv_csv", "parse_metrics_csv"):
        monkeypatch.setattr(datastore, parser, lambda text, parse=getattr(datastore, parser): parses.append(text) or parse(text))
    with caplog.at_level(logging.INFO, logger="chainfolio.datastore"):
        assert_loads_equal_parsing(store, asset)
        assert_loads_equal_parsing(store, asset)
    assert len(parses) == 2
    assert caplog.text.count("(not a CRLM container); parsing the CSV") == 2
    assert all(sidecar(tmp_path, name).read_bytes() == fresh[name] for name in CSVS)


# ---------------------------------------------------------------------------
# Alignment


def make_store_with_metric(tmp_path, n_bars, metric_ts_values):
    store = CsvStore(tmp_path)
    asset = AssetId("AAA")
    store.ingest_ohlcv(asset, flat_bars(n_bars))
    store.ingest_metrics(asset, metric_table((int(t), "mm", float(v)) for t, v in metric_ts_values))
    return store, asset


def test_align_copies_exactly_sampled_metric(tmp_path):
    values = [(bar_ts(i), 10.0 + i) for i in range(6)]
    store, asset = make_store_with_metric(tmp_path, 6, values)
    frame = store.align(asset, bar_ts(0), bar_ts(5), INTERVAL, fill_limit=4)
    assert frame.metric_names == ["mm"]
    np.testing.assert_array_equal(frame.metrics[:, 0], [10.0 + i for i in range(6)])


def test_align_locf_every_second_bar(tmp_path):
    # oracle: manual LOCF on a 6-row fixture, metric present on even bars
    values = [(bar_ts(i), float(i)) for i in range(0, 6, 2)]
    store, asset = make_store_with_metric(tmp_path, 6, values)
    frame = store.align(asset, bar_ts(0), bar_ts(5), INTERVAL, fill_limit=2)
    np.testing.assert_array_equal(frame.metrics[:, 0], [0.0, 0.0, 2.0, 2.0, 4.0, 4.0])


def test_align_drops_metric_with_long_gap(tmp_path):
    # present on the first two bars, then a 10-bar hole
    values = [(bar_ts(0), 1.0), (bar_ts(1), 2.0), (bar_ts(12), 3.0)]
    store, asset = make_store_with_metric(tmp_path, 14, values)
    store.ingest_metrics(asset, metric_table((bar_ts(i), "good", float(i)) for i in range(14)))
    frame = store.align(asset, bar_ts(0), bar_ts(13), INTERVAL, fill_limit=4)
    assert frame.metric_names == ["good"]
    assert frame.dropped_metrics == ["mm"]


def test_align_requires_point_at_or_before_start(tmp_path):
    values = [(bar_ts(3), 1.0)] + [(bar_ts(i), 2.0) for i in range(4, 8)]
    store, asset = make_store_with_metric(tmp_path, 8, values)
    store.ingest_metrics(asset, metric_table((bar_ts(i), "aa", 5.0) for i in range(8)))
    frame = store.align(asset, bar_ts(2), bar_ts(7), INTERVAL, fill_limit=4)
    assert frame.dropped_metrics == ["mm"] and frame.metric_names == ["aa"]
    # but aligning from bar 3 onwards keeps it
    frame = store.align(asset, bar_ts(3), bar_ts(7), INTERVAL, fill_limit=4)
    assert frame.metric_names == ["aa", "mm"]


def test_align_errors_on_ohlcv_gap(tmp_path):
    store = CsvStore(tmp_path)
    asset = AssetId("AAA")
    rows = flat_rows(8)
    del rows[4]
    store.ingest_ohlcv(asset, bar_table(rows))
    store.ingest_metrics(asset, metric_table((bar_ts(i), "mm", 1.0) for i in range(8)))
    with pytest.raises(AlignmentError):
        store.align(asset, bar_ts(0), bar_ts(7), INTERVAL, fill_limit=4)


def test_align_errors_on_empty_metric_pool(tmp_path):
    values = [(bar_ts(0), 1.0)]
    store, asset = make_store_with_metric(tmp_path, 12, values)
    with pytest.raises(AlignmentError):
        store.align(asset, bar_ts(0), bar_ts(11), INTERVAL, fill_limit=2)


def test_align_no_lookahead(tmp_path, rng):
    """Perturbing any input after t never changes the frame row at t."""
    n = 12
    values = [(bar_ts(i), float(rng.normal())) for i in range(0, n, 2)]
    store, asset = make_store_with_metric(tmp_path, n, values)
    cut = 7
    base = store.align(asset, bar_ts(0), bar_ts(cut), INTERVAL, fill_limit=2)

    store2 = CsvStore(tmp_path / "alt")
    store2.ingest_ohlcv(asset, bar_table(flat_rows(cut + 1) + [
        (bar_ts(i), 999.0, 999.0, 999.0, 999.0, 1.0) for i in range(cut + 1, n)
    ]))
    store2.ingest_metrics(
        asset,
        metric_table([(int(t), "mm", v) for t, v in values if t <= bar_ts(cut)]
                     + [(bar_ts(cut + 2), "mm", 1e9)]),
    )
    alt = store2.align(asset, bar_ts(0), bar_ts(cut), INTERVAL, fill_limit=2)
    np.testing.assert_array_equal(base.metrics, alt.metrics)
    np.testing.assert_array_equal(base.ohlcv, alt.ohlcv)


def test_align_deterministic(tmp_path):
    values = [(bar_ts(i), float(i * i % 7)) for i in range(10)]
    store, asset = make_store_with_metric(tmp_path, 10, values)
    a = store.align(asset, bar_ts(0), bar_ts(9), INTERVAL, fill_limit=4)
    b = store.align(asset, bar_ts(0), bar_ts(9), INTERVAL, fill_limit=4)
    np.testing.assert_array_equal(a.metrics, b.metrics)
    np.testing.assert_array_equal(a.ohlcv, b.ohlcv)
    np.testing.assert_array_equal(a.timestamps, b.timestamps)


def test_frame_slice_and_index(tmp_path):
    values = [(bar_ts(i), float(i)) for i in range(10)]
    store, asset = make_store_with_metric(tmp_path, 10, values)
    frame = store.align(asset, bar_ts(0), bar_ts(9), INTERVAL, fill_limit=4)
    assert frame.index_of(bar_ts(4)) == 4
    sub = frame.slice(bar_ts(2), bar_ts(6))
    assert len(sub) == 5 and sub.timestamps[0] == bar_ts(2)
    with pytest.raises(DataError):
        frame.index_of(bar_ts(4) + 1)


def test_store_manifest_lists_assets(tmp_path):
    store = CsvStore(tmp_path)
    store.ingest_ohlcv(AssetId("AAA"), flat_bars(2))
    store.ingest_ohlcv(AssetId("BBB"), flat_bars(2))
    manifest = json.loads((tmp_path / CsvStore.MANIFEST).read_text())
    assert manifest["assets"] == {
        "AAA-USDT": {"bars": 2, "quote": "USDT", "symbol": "AAA"},
        "BBB-USDT": {"bars": 2, "quote": "USDT", "symbol": "BBB"},
    }


@pytest.mark.parametrize("text", ['{"version": 1, "assets": {', "[]", '{"version": 1}'])
def test_corrupt_manifest_is_data_error(tmp_path, text):
    store = CsvStore(tmp_path)
    store.ingest_ohlcv(AssetId("AAA"), flat_bars(2))
    (tmp_path / CsvStore.MANIFEST).write_text(text)
    with pytest.raises(DataError, match="manifest"):
        store.ingest_ohlcv(AssetId("BBB"), flat_bars(2))
    with pytest.raises(DataError, match="manifest"):
        store.ingest_metrics(AssetId("AAA"), metric_table([(T0, "mm", 1.0)]))


@pytest.fixture(scope="module")
def manifest_store(tmp_path_factory):
    """A store of two assets with bars and metrics, and a scratch directory
    that each example overwrites."""
    root = tmp_path_factory.mktemp("manifest_fuzz")
    store = CsvStore(root / "store")
    for symbol in ("AAA", "BBB"):
        store.ingest_ohlcv(AssetId(symbol), flat_bars(4))
        store.ingest_metrics(AssetId(symbol), metric_table((bar_ts(i), "mm", 1.0) for i in range(4)))
    return root


@given(data=st.data())
def test_damaged_manifest_raises_only_typed_errors(manifest_store, data):
    """Ingesting into an existing or a new asset and aligning through a
    damaged manifest.json either work or raise a ChainfolioError."""
    root = manifest_store / "scratch"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(manifest_store / "store", root)
    manifest = root / CsvStore.MANIFEST
    manifest.write_bytes(damaged_json(data, manifest.read_bytes()))
    store = CsvStore(root)
    for symbol in ("AAA", "CCC"):
        asset = AssetId(symbol)
        for step in (lambda: store.ingest_ohlcv(asset, flat_bars(6)),
                     lambda: store.ingest_metrics(asset, metric_table((bar_ts(i), "mm", 2.0) for i in range(6))),
                     lambda: store.align(asset, bar_ts(0), bar_ts(5), INTERVAL, fill_limit=4)):
            try:
                step()
            except ChainfolioError:
                pass


#: the store files of one asset that a damage may hit
STORE_FILES = ["ohlcv.csv", "metrics.csv", "ohlcv.csv" + datastore.SIDECAR_SUFFIX, "metrics.csv" + datastore.SIDECAR_SUFFIX]


def damaged_bytes(data, blob: bytes) -> bytes:
    """``blob`` truncated, byte-flipped, or with CSV-significant bytes
    (quote, comma, CR, LF or NUL) inserted."""
    damage = data.draw(st.sampled_from(["truncate", "flip", "insert"]))
    if damage == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1))]
    damaged = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(damaged) - 1))
        if damage == "flip":
            damaged[at] ^= data.draw(st.integers(1, 255))
        else:
            damaged[at:at] = data.draw(st.sampled_from([b'"', b",", b"\r", b"\n", b"\0"]))
    return bytes(damaged)


@given(data=st.data())
def test_damaged_store_csvs_and_sidecars_raise_only_typed_errors(manifest_store, data):
    """Loading, aligning and ingesting through a damaged store CSV or
    sidecar either work or raise a ChainfolioError."""
    root = manifest_store / "csv_scratch"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(manifest_store / "store", root)
    target = root / "AAA-USDT" / data.draw(st.sampled_from(STORE_FILES))
    target.write_bytes(damaged_bytes(data, target.read_bytes()))
    store = CsvStore(root)
    asset = AssetId("AAA")
    for step in (lambda: store.load_bars(asset),
                 lambda: store.load_metrics(asset),
                 lambda: store.align(asset, bar_ts(0), bar_ts(3), INTERVAL, fill_limit=4),
                 lambda: store.ingest_ohlcv(asset, flat_bars(6)),
                 lambda: store.ingest_metrics(asset, metric_table((bar_ts(i), "mm", 2.0) for i in range(6)))):
        try:
            step()
        except ChainfolioError:
            pass


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
                store.ingest_metrics(AssetId(symbol), metric_table((bar_ts(i), "mm", 1.0) for i in range(n)))
        except Exception as exc:  # reported below, with the thread's symbol and traceback
            errors.append(f"{symbol}: {''.join(traceback.format_exception(exc))}")

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
    assert errors == [], "\n".join(errors)
    manifest = json.loads((tmp_path / CsvStore.MANIFEST).read_text())
    assert sorted(manifest["assets"]) == [f"{s}-USDT" for s in symbols]
    assert all(e["bars"] == 20 and e["metrics"] == {"mm": 20} for e in manifest["assets"].values())
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


def test_concurrent_ingests_of_one_asset_from_threads_keep_every_metric(tmp_path):
    """Eight threads ingest five metric names each into one asset: the lock
    file, opened once per ingest, excludes threads as it does processes."""
    store = CsvStore(tmp_path)
    names = [f"T{t}M{i}" for t in range(8) for i in range(5)]
    errors = []

    def ingest(thread_names):
        try:
            for name in thread_names:
                store.ingest_metrics(AssetId("AAA"), metric_table((bar_ts(i), name, 1.0) for i in range(3)))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ingest, args=(names[t::8],)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sorted(CsvStore(tmp_path).load_metrics(AssetId("AAA"))) == sorted(names)


#: a child process that ingests 40 assets named <prefix>0..39 once its parent says go
MANIFEST_RACER = """
import sys
import numpy as np
from chainfolio.datastore import AssetId, BarTable, CsvStore
root, prefix = sys.argv[1:]
store = CsvStore(root)
print("ready", flush=True)
sys.stdin.readline()
for i in range(40):
    store.ingest_ohlcv(AssetId(f"{prefix}{i}"), BarTable(np.arange(3) * 21600, np.full((3, 5), 100.0)))
"""


@pytest.mark.parametrize("round_", range(3))
def test_concurrent_ingests_from_two_processes_keep_the_manifest(tmp_path, round_):
    """Two processes ingest 40 assets each into one store, starting together;
    the manifest must list all 80 (an in-process lock alone loses entries)."""
    race(MANIFEST_RACER, [[str(tmp_path), prefix] for prefix in ("P", "Q")])
    manifest = json.loads((tmp_path / CsvStore.MANIFEST).read_text())
    assert sorted(manifest["assets"]) == sorted(f"{p}{i}-USDT" for p in "PQ" for i in range(40))


#: a child process that ingests 30 metrics named <prefix>0..29 into AAA once its parent says go
SAME_ASSET_RACER = """
import sys
import numpy as np
from chainfolio.datastore import AssetId, CsvStore, MetricTable
root, prefix = sys.argv[1:]
store = CsvStore(root)
print("ready", flush=True)
sys.stdin.readline()
for i in range(30):
    store.ingest_metrics(AssetId("AAA"), MetricTable.from_series({f"{prefix}{i}": (np.arange(3) * 21600, np.ones(3))}))
"""


@pytest.mark.parametrize("round_", range(3))
def test_concurrent_ingests_of_one_asset_from_two_processes_keep_every_metric(tmp_path, round_):
    """Two processes ingest 30 metric names each into one asset, starting
    together; the store and its manifest must keep all 60 names (each
    ingest is a read-modify-write of the asset's CSV)."""
    race(SAME_ASSET_RACER, [[str(tmp_path), prefix] for prefix in ("P", "Q")])
    names = sorted(f"{p}{i}" for p in "PQ" for i in range(30))
    assert sorted(CsvStore(tmp_path).load_metrics(AssetId("AAA"))) == names
    manifest = json.loads((tmp_path / CsvStore.MANIFEST).read_text())
    assert sorted(manifest["assets"]["AAA-USDT"]["metrics"]) == names


@pytest.mark.parametrize("kind", ["bars", "metrics"])
@pytest.mark.parametrize("manifest", ['{"version": 2, "assets": {}}', '{"version": 1, "assets": []}', "{"])
def test_a_refused_ingest_creates_nothing(tmp_path, kind, manifest):
    """A manifest of another version or a corrupt one refuses an ingest
    before the asset's directory or any lock file is created."""
    (tmp_path / CsvStore.MANIFEST).write_text(manifest)
    store = CsvStore(tmp_path)
    with pytest.raises(ChainfolioError, match="manifest"):
        if kind == "bars":
            store.ingest_ohlcv(AssetId("AAA"), flat_bars(3))
        else:
            store.ingest_metrics(AssetId("AAA"), metric_table([(bar_ts(0), "mm", 1.0)]))
    assert [p.name for p in tmp_path.rglob("*")] == [CsvStore.MANIFEST]


def test_opening_a_store_creates_nothing(tmp_path):
    store = CsvStore(tmp_path / "store")
    assert store.load_bars(AssetId("AAA")).ts.size == 0
    assert not (tmp_path / "store").exists()
    store.ingest_ohlcv(AssetId("AAA"), flat_bars(3))
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == [".manifest.lock", "AAA-USDT", CsvStore.MANIFEST]


@pytest.mark.parametrize("binary", [False, True])
def test_atomic_write_that_raises_midway_keeps_previous_file(tmp_path, binary):
    chunk = b"partial" if binary else "partial"
    path = tmp_path / "artifact"
    path.write_bytes(b"previous\n")

    def chunks():
        yield chunk
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        atomic_write(path, chunks())
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    atomic_write(path, [chunk[:0], chunk, chunk[:3]])
    assert path.read_bytes() == b"partialpar"


def test_atomic_write_creates_the_directory_and_writes_text_as_utf8(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    atomic_write(path, ["caf\u00e9\r\n", b"\x00"])
    assert path.read_bytes() == "caf\u00e9\r\n".encode() + b"\x00"
    assert [p.name for p in path.parent.iterdir()] == ["out.txt"]
