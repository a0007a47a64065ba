"""The columnar CSV parsers against a row-loop reference.

The reference reads one ``csv.reader`` record at a time, the way the
parsers did before they became columnar.  Both must accept the same rows,
fail at the same row, and warn about the same non-finite rows.
"""

import csv
import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chainfolio import datastore
from chainfolio.datastore import (
    METRICS_HEADER,
    OHLCV_HEADER,
    MalformedRecordError,
    parse_metrics_csv,
    parse_ohlcv_csv,
)

_INT64 = np.iinfo(np.int64)


def _int64(text, row):
    try:
        value = int(text)
    except ValueError:
        raise MalformedRecordError(f"bad ts value {text!r}", row) from None
    if not _INT64.min <= value <= _INT64.max:
        raise MalformedRecordError(f"bad ts value {text!r}", row)
    return value


def _float(text, row, col):
    try:
        return float(text)
    except ValueError:
        raise MalformedRecordError(f"bad {col} value {text!r}", row) from None


def _records(path, header):
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        found = next(rows, None)
        if found is None or [h.strip() for h in found] != header:
            raise MalformedRecordError(f"expected header {','.join(header)}", 1)
        for i, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise MalformedRecordError(f"expected {len(header)} fields, got {len(row)}", i)
            yield i, row


def reference_metrics(path, warnings):
    """(ts, name, value) per accepted row; appends (row, name) per rejected row."""
    points = []
    for i, row in _records(path, METRICS_HEADER):
        value = _float(row[2], i, "value")
        if not math.isfinite(value):
            warnings.append((i, row[1].strip()))
            continue
        ts = _int64(row[0], i)
        if not row[1].strip():
            raise MalformedRecordError(f"empty metric name at ts={ts}", i)
        points.append((ts, row[1].strip(), value))
    return points


def _broken_bar_invariant(ts, o, h, lo, c, v):
    """The first bar invariant a bar breaks, worded as the parser words it."""
    if not all(math.isfinite(x) for x in (o, h, lo, c, v)):
        return f"non-finite field in bar at ts={ts}"
    if lo <= 0:
        return f"low must be > 0 at ts={ts}"
    if h < max(o, c):
        return f"high < max(open, close) at ts={ts}"
    if lo > min(o, c):
        return f"low > min(open, close) at ts={ts}"
    if v < 0:
        return f"negative volume at ts={ts}"
    return None


def reference_ohlcv(path):
    """(ts, open, high, low, close, volume) per row."""
    bars = []
    for i, row in _records(path, OHLCV_HEADER):
        ts = _int64(row[0], i)
        fields = [_float(text, i, col) for text, col in zip(row[1:], OHLCV_HEADER[1:])]
        broken = _broken_bar_invariant(ts, *fields)
        if broken is not None:
            raise MalformedRecordError(broken, i)
        bars.append((ts, *fields))
    return bars


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.rows = []

    def emit(self, record):
        if record.msg.startswith("row %d: rejected"):
            self.rows.append(tuple(record.args))


def outcome(parse, path):
    """(accepted rows or None, (error row, message) or None, warnings)."""
    handler = _Warnings()
    logger = logging.getLogger("chainfolio.datastore")
    logger.addHandler(handler)
    try:
        return parse(path), None, handler.rows
    except MalformedRecordError as exc:
        return None, (exc.row, str(exc)), handler.rows
    finally:
        logger.removeHandler(handler)


def reference_outcome(parse, path):
    warnings = []
    try:
        args = (path, warnings) if parse is reference_metrics else (path,)
        return parse(*args), None, warnings
    except MalformedRecordError as exc:
        return None, (exc.row, str(exc)), warnings


# ---------------------------------------------------------------------------
# Texts

_good_ts = st.one_of(
    st.sampled_from([1_600_000_000, 1_600_021_600]),  # repeated timestamps
    st.integers(-(2**63), 2**63 - 1),
).map(str)
_bad_ts = st.sampled_from(["", "x", "1.0", str(2**63), str(-(2**63) - 1)])
_good_value = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from([" 2.5 ", "1_0"]))
_non_finite = st.sampled_from(["nan", "-inf", "inf", "1e400", " NaN"])
_bad_value = st.sampled_from(["", "x", "0x10", "1.5.1", "--1"])
_good_name = st.one_of(st.sampled_from(["aa", "bb", " aa", "bb  "]), st.text(alphabet="ab ,\"\0", min_size=1, max_size=4))
_empty_name = st.sampled_from(["", "   "])

#: kinds of metric row that load (rejected rows only warn), and kinds that fail
METRIC_ROWS = {
    "good": [_good_ts, _good_name, _good_value],
    "non-finite": [_good_ts, _good_name, _non_finite],
    "non-finite, bad ts": [_bad_ts, _good_name, _non_finite],
    "non-finite, empty name": [_good_ts, _empty_name, _non_finite],
}
BAD_METRIC_ROWS = {
    "bad ts": [_bad_ts, _good_name, _good_value],
    "bad value": [_good_ts, _good_name, _bad_value],
    "empty name": [_good_ts, _empty_name, _good_value],
}


@st.composite
def _bar(draw, kind):
    o, c = draw(st.floats(1, 200)), draw(st.floats(1, 200))
    h, lo = max(o, c) + draw(st.floats(0, 5)), min(o, c) * draw(st.floats(0.5, 1))
    fields = [draw(_good_ts)] + [repr(x) for x in (o, h, lo, c, draw(st.floats(0, 1e6)))]
    if kind == "bad ts":
        fields[0] = draw(_bad_ts)
    elif kind in ("bad field", "non-finite"):
        fields[draw(st.integers(1, 5))] = draw(_bad_value if kind == "bad field" else _non_finite)
    elif kind == "low <= 0":
        fields[3] = draw(st.sampled_from(["0.0", "-1.0"]))
    elif kind == "high < max":
        fields[2] = repr(max(o, c) * 0.99)
    elif kind == "low > min":
        fields[3] = repr(min(o, c) * 1.01)
    elif kind == "negative volume":
        fields[5] = "-0.5"
    return fields


BAD_BARS = ["bad ts", "bad field", "non-finite", "low <= 0", "high < max", "low > min", "negative volume"]


@st.composite
def csv_text(draw, header, row, bad):
    """A header, then up to 12 rows that load and blank lines, with the
    ``bad`` records put in unless it is None; fields holding a comma or a
    quote are quoted."""
    records = draw(st.lists(st.one_of(row, st.just([])), max_size=12))
    if bad is not None:
        at = draw(st.integers(0, len(records)))
        records[at:at] = draw(bad)
    lines = [draw(st.sampled_from([",".join(header)] * 9 + [" ts , x", ""]))]
    lines += [",".join(map(_quote, fields)) for fields in records]
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\n", "\r\n", "\r"])) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _field_count(row, short):
    """Records of ``row`` with fields missing or one too many (at times a
    lone NUL, which must not pass for a line end)."""
    if short:
        return row.flatmap(lambda fields: st.integers(1, len(fields) - 1).map(lambda k: fields[:k]))
    return st.tuples(row, st.one_of(_good_value, st.just("\0"))).map(lambda pair: pair[0] + [pair[1]])


def _bad_records(row):
    """The bad-record kinds shared by both parsers, as lists of records:
    one short or long record, or a long one then a short one, whose field
    total matches whole lines."""
    short, long = _field_count(row, True), _field_count(row, False)
    return {"none": None, "short": short.map(lambda r: [r]), "long": long.map(lambda r: [r]),
            "long, short": st.tuples(long, short).map(list)}


def _quote(field):
    return '"' + field.replace('"', '""') + '"' if any(c in field for c in ',"') else field


def _kinds(table):
    return st.sampled_from(list(table)).flatmap(lambda kind: st.tuples(*table[kind]).map(list))


CHUNKS = st.sampled_from([(1 << 20, 1 << 14), (1, 1), (40, 2)])

_metric_row = _kinds(METRIC_ROWS)
BAD_METRICS = {kind: st.tuples(*fields).map(lambda r: [list(r)]) for kind, fields in BAD_METRIC_ROWS.items()}
BAD_METRICS.update(_bad_records(_metric_row))
BAD_OHLCV = {kind: _bar(kind).map(lambda r: [r]) for kind in BAD_BARS}
BAD_OHLCV.update(_bad_records(_bar("good")))


@pytest.mark.parametrize("bad", list(BAD_METRICS))
@given(data=st.data(), chunks=CHUNKS)
def test_metrics_parser_matches_row_loop(tmp_path_factory, bad, data, chunks):
    text = data.draw(csv_text(METRICS_HEADER, _metric_row, BAD_METRICS[bad]))
    path = tmp_path_factory.mktemp("m") / "metrics.csv"
    path.write_bytes(text.encode())
    with mock.patch.multiple(datastore, _CHUNK_BYTES=chunks[0], _CHUNK_RECORDS=chunks[1]):
        table, error, warnings = outcome(parse_metrics_csv, path)
    points, want_error, want_warnings = reference_outcome(reference_metrics, path)
    assert error == want_error
    assert warnings == want_warnings
    if points is not None:
        assert len(table) == len(points)
        assert list(zip(table.ts.tolist(), [table.names[c] for c in table.codes], table.values.tolist())) == points


@pytest.mark.parametrize("bad", list(BAD_OHLCV))
@given(data=st.data(), chunks=CHUNKS)
def test_ohlcv_parser_matches_row_loop(tmp_path_factory, bad, data, chunks):
    text = data.draw(csv_text(OHLCV_HEADER, _bar("good"), BAD_OHLCV[bad]))
    path = tmp_path_factory.mktemp("o") / "ohlcv.csv"
    path.write_bytes(text.encode())
    with mock.patch.multiple(datastore, _CHUNK_BYTES=chunks[0], _CHUNK_RECORDS=chunks[1]):
        table, error, _ = outcome(parse_ohlcv_csv, path)
    bars, want_error, _ = reference_outcome(reference_ohlcv, path)
    assert error == want_error
    if bars is not None:
        assert [(t, *row) for t, row in zip(table.ts.tolist(), table.ohlcv.tolist())] == bars


def test_metrics_series_keeps_last_value_per_timestamp(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("ts,name,value\n20,bb,1.0\n10,bb,2.0\n20,bb,3.0\n10,aa,nan\n5,aa,4.0\n")
    series = parse_metrics_csv(path).series()
    assert list(series) == ["aa", "bb"]
    assert series["aa"][0].tolist() == [5] and series["aa"][1].tolist() == [4.0]
    assert series["bb"][0].tolist() == [10, 20] and series["bb"][1].tolist() == [2.0, 3.0]
