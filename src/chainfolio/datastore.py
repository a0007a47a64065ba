"""File-backed store for OHLCV bars and on-chain metric series.

Storage layout is a plain directory tree, one subdirectory per asset,
holding two CSV files, a numpy sidecar beside each, and a JSON manifest
that indexes the assets:

    <root>/manifest.json
    <root>/BTC-USDT/ohlcv.csv          header: ts,open,high,low,close,volume
    <root>/BTC-USDT/ohlcv.csv.cols     sidecar: ts, ohlcv
    <root>/BTC-USDT/metrics.csv        header: ts,name,value
    <root>/BTC-USDT/metrics.csv.cols   sidecar: names, count per name, ts, values
    <root>/BTC-USDT/.lock              flock held across each ingest of the asset
    <root>/.manifest.lock              flock held across each manifest update

Everything is inspectable and diff-able with standard tools.
:func:`atomic_write` writes every file: it creates the directory, writes a
temporary sibling and moves it into place with ``os.replace``, so a reader
never sees a partly written file.  A store's directory appears with its
first ingest.  An ingest holds its asset's :func:`flocked` lock and, inside
it, the manifest's, which exclude threads and processes on one POSIX host
alike.  Loads take no lock: each hashes and parses one whole file.

The manifest, the registry index and the backtest report are JSON
documents with one reader and one writer: :func:`read_json` takes a file
only when its ``version`` is the expected int (not true, not 1.0), and
:func:`write_json` writes sorted keys, indented, atomically.

The CSVs are the source of truth.  A sidecar (``<csv>.cols``) caches the
parsed columns of its CSV so that a load need not parse text again: it is
a run of ``np.save`` records holding the SHA-256 of the CSV bytes it was
made from, the SHA-256 of its own column records, then the columns.  A
load hashes the CSV and uses the sidecar only when both digests match;
in any other case (no sidecar, a CSV changed since, a damaged sidecar) it
parses the CSV, logs why at INFO and rewrites the sidecar.  A load thus
returns what parsing the current CSV returns.  The CSV digest sits in the
sidecar, not in the manifest, so one ``os.replace`` ties it to the columns
it vouches for, whichever of two racing writers moves last; a stale
sidecar that a load racing an ingest leaves, the next load replaces.

Columns are the only record type: the parsers return, and ingestion
takes, a :class:`BarTable` or a :class:`MetricTable`, and alignment works
on their arrays without a Python object per row.  Each bar invariant is
written once, in ``_bar_checks``, and the metric name and finiteness rule
once, in :meth:`MetricTable.stripped`.
"""

from __future__ import annotations

import csv
import fcntl
import hashlib
import io
import itertools
import json
import logging
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

OHLCV_HEADER = ["ts", "open", "high", "low", "close", "volume"]
METRICS_HEADER = ["ts", "name", "value"]


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
        if not isinstance(self.symbol, str) or not self.symbol.isalnum():
            raise DataError(f"invalid asset symbol {self.symbol!r}")
        if not isinstance(self.quote, str) or not self.quote.isalnum():
            raise DataError(f"invalid quote currency {self.quote!r}")
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
# Columnar tables


@dataclass(frozen=True, eq=False)
class BarTable:
    """OHLCV bars as columns: ``ts`` (N,) int64 and ``ohlcv`` (N, 5) float64
    holding open, high, low, close, volume; ``ts`` is each bar's open epoch
    second (UTC).  Ingestion checks the invariants of ``_bar_checks``."""

    ts: np.ndarray
    ohlcv: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)


@dataclass(frozen=True, eq=False)
class MetricTable:
    """Metric observations as columns, in source order: ``ts`` (N,) int64,
    ``codes`` (N,) indices into ``names`` and ``values`` (N,) float64."""

    ts: np.ndarray
    codes: np.ndarray
    names: list[str]
    values: np.ndarray

    @classmethod
    def from_series(cls, series: dict[str, tuple[np.ndarray, np.ndarray]]) -> "MetricTable":
        names, counts, ts, values = _series_columns(series)
        return cls(ts, np.repeat(np.arange(len(names)), counts), names, values)

    def __len__(self) -> int:
        return len(self.ts)

    def extend(self, other: "MetricTable") -> "MetricTable":
        """This table's rows followed by ``other``'s, on one name index."""
        code = {name: i for i, name in enumerate(dict.fromkeys(self.names + other.names))}
        remap = np.array([code[name] for name in other.names], dtype=np.intp)
        return MetricTable(
            np.concatenate([self.ts, other.ts]),
            np.concatenate([self.codes, remap[other.codes]]),
            list(code),
            np.concatenate([self.values, other.values]),
        )

    def _key_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Row order by (name code, ts), source order among equal keys, and
        a mask over that order marking each row whose key repeats the previous row's."""
        order = np.lexsort((self.ts, self.codes))
        codes, ts = self.codes[order], self.ts[order]
        return order, np.concatenate(([False], (codes[1:] == codes[:-1]) & (ts[1:] == ts[:-1])))

    def series(self, key_order=None) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per metric name, in name order: (ascending ts, values).  A
        timestamp repeated under one name keeps its last value.
        ``key_order`` is this table's ``_key_order()``, if already taken."""
        if not len(self):
            return {}
        order, repeat = key_order or self._key_order()
        last = order[~np.append(repeat[1:], False)]
        codes = self.codes[last]
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        ends = np.append(starts[1:], len(codes))
        groups = {self.names[codes[s]]: (self.ts[last[s:e]], self.values[last[s:e]]) for s, e in zip(starts, ends)}
        return dict(sorted(groups.items()))

    def stripped(self) -> "MetricTable":
        """This table with its names stripped, as the CSV parser reads them
        back.  Raises MalformedRecordError for a row with an empty name or a
        non-finite value, which the parser would not read back."""
        names = [name.strip() for name in self.names]
        code = {name: i for i, name in enumerate(dict.fromkeys(names))}
        codes = np.array([code[name] for name in names], dtype=np.intp)[self.codes]
        failure = _first_failure(
            (codes == code.get("", -1), lambda i: f"empty metric name at ts={self.ts[i]}"),
            (~np.isfinite(self.values), lambda i: f"non-finite value for {names[self.codes[i]]} at ts={self.ts[i]}"),
        )
        if failure is not None:
            raise MalformedRecordError(failure[1])
        return MetricTable(self.ts, codes, list(code), self.values)


def _series_columns(series: dict[str, tuple[np.ndarray, np.ndarray]]) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Names, count per name, and ts and values in (name, ts) order of a
    :meth:`MetricTable.series` dict."""
    return (
        list(series),
        np.array([len(ts) for ts, _ in series.values()], dtype=np.int64),
        np.concatenate([np.zeros(0, dtype=np.int64), *(ts for ts, _ in series.values())]),
        np.concatenate([np.zeros(0), *(values for _, values in series.values())]),
    )


# ---------------------------------------------------------------------------
# CSV parsing

#: text read per parser chunk; bounds the parsers' transient memory.  Small
#: buffers are reused from the heap: with 1 MiB chunks, the peak RSS of a
#: retraining backtest moved by ~10 MB with the heap's fragmentation.
_CHUNK_BYTES = 1 << 16
#: records per chunk once a file needs the general CSV reader
_CHUNK_RECORDS = 1 << 10


@contextmanager
def _opened(source: str | Path | io.TextIOBase) -> Iterator[io.TextIOBase]:
    """``source`` as UTF-8 text; a decode failure becomes a DataError naming it."""
    try:
        if isinstance(source, (str, Path)):
            with open(source, newline="", encoding="utf-8") as fh:
                yield fh
        else:
            yield source
    except UnicodeDecodeError as exc:
        name = source if isinstance(source, (str, Path)) else getattr(source, "name", "input")
        raise DataError(f"{name}: not UTF-8 text: {exc.reason} (byte 0x{exc.object[exc.start]:02x})") from None


def _record_chunks(fh, header: list[str]) -> Iterator[tuple[list[list[str]] | None, list[list[str]] | None]]:
    """Check the header, then yield the following CSV records in chunks.

    A chunk of plain lines (no quote or NUL, no carriage return outside a
    CRLF ending), each with as many fields as the header, comes column-wise
    without a list per record: ``(None, columns)``.  Any other chunk
    comes as ``(records, None)``, ``[]`` for a blank line.  From the first
    chunk that is not plain on, ``csv.reader`` reads the rest of the file,
    since a quoted field may span lines.  Both forms hold exactly the
    fields ``csv.reader`` yields.
    """
    found = next(csv.reader(fh), None)  # reads the header record only
    if found is None or [h.strip() for h in found] != header:
        raise MalformedRecordError(f"expected header {','.join(header)}", 1)
    ncols = len(header)
    while lines := fh.readlines(_CHUNK_BYTES):
        text = "".join(lines)
        if '"' in text or "\0" in text or text.count("\r") != text.count("\r\n"):
            reader = csv.reader(itertools.chain(lines, fh))
            while records := list(itertools.islice(reader, _CHUNK_RECORDS)):
                yield records, None
            return
        # a NUL field marks each of the len(lines) - 1 line ends, so every
        # line has ncols fields exactly when each (ncols + 1)-th field is one
        fields = text.replace("\r\n", "\n").removesuffix("\n").replace("\n", ",\0,").split(",")
        step = ncols + 1
        if len(fields) == len(lines) * step - 1 and fields[ncols::step].count("\0") == len(lines) - 1:
            yield None, [fields[j::step] for j in range(ncols)]
        else:
            rows = (line.rstrip("\r\n") for line in lines)
            yield [row.split(",") if row else [] for row in rows], None


def _column_chunks(fh, header: list[str]) -> Iterator[tuple[list[list[str]], np.ndarray, tuple[int, int] | None]]:
    """Yield ``(columns, rows, bad)`` per chunk of records after the header.

    ``columns`` holds the fields of the chunk's well-formed records column
    by column and ``rows`` their file row numbers (the header is row 1;
    blank records are skipped but counted).  ``bad`` is the row and field
    count of the chunk's first record with a wrong field count, which the
    caller raises once the records before it pass; nothing follows it.
    """
    ncols = len(header)
    row = 2
    for records, columns in _record_chunks(fh, header):
        if columns is not None:
            count = len(columns[0])
            yield columns, np.arange(row, row + count), None
            row += count
            continue
        lens = np.fromiter(map(len, records), dtype=np.intp, count=len(records))
        wrong = np.flatnonzero((lens != ncols) & (lens != 0))
        stop = int(wrong[0]) if len(wrong) else len(records)
        kept = np.flatnonzero(lens[:stop] == ncols)
        columns = [list(col) for col in zip(*(records[i] for i in kept))] or [[] for _ in header]
        bad = (row + stop, int(lens[stop])) if len(wrong) else None
        yield columns, row + kept, bad
        if bad is not None:
            return
        row += len(records)


def _convert(texts: list[str], convert, dtype) -> tuple[np.ndarray, np.ndarray]:
    """One column converted by ``convert``, and the mask of texts it rejects
    (ValueError, or a value outside ``dtype``); rejected entries hold 0."""
    try:
        return np.fromiter(map(convert, texts), dtype=dtype, count=len(texts)), np.zeros(len(texts), dtype=bool)
    except (ValueError, OverflowError):
        pass
    out = np.zeros(len(texts), dtype=dtype)
    bad = np.zeros(len(texts), dtype=bool)
    for i, text in enumerate(texts):
        try:
            out[i] = convert(text)
        except (ValueError, OverflowError):
            bad[i] = True
    return out, bad


def _first_failure(*checks) -> tuple[int, str] | None:
    """The earliest entry failing any ``(mask, message(i))`` check, with the
    message of the first check it fails; None if none fails."""
    hits = [(int(np.argmax(mask)), k) for k, (mask, _) in enumerate(checks) if mask.any()]
    if not hits:
        return None
    i, k = min(hits)
    return i, checks[k][1](i)


def _bar_checks(ts: np.ndarray, ohlcv: np.ndarray) -> list:
    """The bar invariants as ``(mask, message(i))`` checks on columns:
    finite fields, low > 0, high >= max(open, close), low <= min(open,
    close) and volume >= 0."""
    o, h, lo, c, v = ohlcv.T
    return [
        (~np.isfinite(ohlcv).all(axis=1), lambda i: f"non-finite field in bar at ts={ts[i]}"),
        (lo <= 0, lambda i: f"low must be > 0 at ts={ts[i]}"),
        (h < np.maximum(o, c), lambda i: f"high < max(open, close) at ts={ts[i]}"),
        (lo > np.minimum(o, c), lambda i: f"low > min(open, close) at ts={ts[i]}"),
        (v < 0, lambda i: f"negative volume at ts={ts[i]}"),
    ]


def parse_ohlcv_csv(source: str | Path | io.TextIOBase) -> BarTable:
    """Parse an OHLCV CSV.  Raises MalformedRecordError with the row number
    of the first row that does not parse or breaks a bar invariant."""
    parts = []
    with _opened(source) as fh:
        for columns, rows, bad in _column_chunks(fh, OHLCV_HEADER):
            ts, bad_ts = _convert(columns[0], int, np.int64)
            converted = [_convert(col, float, np.float64) for col in columns[1:]]
            ohlcv = np.column_stack([v for v, _ in converted]) if len(ts) else np.zeros((0, 5))
            failure = _first_failure(
                (bad_ts, lambda i: f"bad ts value {columns[0][i]!r}"),
                *[(mask, lambda i, j=j: f"bad {OHLCV_HEADER[j]} value {columns[j][i]!r}")
                  for j, (_, mask) in enumerate(converted, start=1)],
                *_bar_checks(ts, ohlcv),
            )
            if failure is not None:
                raise MalformedRecordError(failure[1], int(rows[failure[0]]))
            if bad is not None:
                raise MalformedRecordError(f"expected 6 fields, got {bad[1]}", bad[0])
            parts.append((ts, ohlcv))
    if not parts:
        return BarTable(np.zeros(0, dtype=np.int64), np.zeros((0, 5)))
    return BarTable(*(np.concatenate(col) for col in zip(*parts)))


def parse_metrics_csv(source: str | Path | io.TextIOBase) -> MetricTable:
    """Parse a metrics CSV (``ts,name,value``); names are stripped.

    Rows with non-finite values are rejected and reported (logged with
    their row numbers), not fatal: the rest of the file still loads.
    Any other bad row raises MalformedRecordError with its row number.
    """
    parts = []
    code: dict[str, int] = {}
    rejected = 0
    with _opened(source) as fh:
        for (ts_text, name_text, value_text), rows, bad in _column_chunks(fh, METRICS_HEADER):
            values, bad_value = _convert(value_text, float, np.float64)
            ts, bad_ts = _convert(ts_text, int, np.int64)
            raw = {text: code.setdefault(text.strip(), len(code)) for text in dict.fromkeys(name_text)}
            codes = np.fromiter(map(raw.__getitem__, name_text), dtype=np.intp, count=len(name_text))
            finite = np.isfinite(values)
            empty = codes == code[""] if "" in code else np.zeros(len(codes), dtype=bool)
            failure = _first_failure(
                (bad_value, lambda i: f"bad value value {value_text[i]!r}"),
                (bad_ts & finite, lambda i: f"bad ts value {ts_text[i]!r}"),
                (empty & finite, lambda i: f"empty metric name at ts={ts[i]}"),
            )
            stop = len(values) if failure is None else failure[0]
            for i in np.flatnonzero(~finite[:stop]):
                log.warning("row %d: rejected non-finite value for %s", rows[i], name_text[i].strip())
                rejected += 1
            if failure is not None:
                raise MalformedRecordError(failure[1], int(rows[failure[0]]))
            if bad is not None:
                raise MalformedRecordError(f"expected 3 fields, got {bad[1]}", bad[0])
            parts.append((ts[finite], codes[finite], values[finite]))
    if rejected:
        log.info("rejected %d non-finite metric rows", rejected)
    ts, codes, values = (np.concatenate(col) for col in zip(*parts)) if parts else (
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.intp), np.zeros(0))
    return MetricTable(ts, codes, list(code), values)


# ---------------------------------------------------------------------------
# The store


def atomic_write(path: str | Path, chunks: Iterable[str | bytes]) -> None:
    """Create or replace ``path`` with the ``chunks`` (text as UTF-8), creating
    its directory, through a temporary sibling and ``os.replace``, so readers
    never see a partial file and a failed write keeps the old one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextmanager
def flocked(path: Path) -> Iterator[None]:
    """Hold an exclusive ``flock`` on ``path``, creating the file and its directory.
    Each call opens its own file, so threads and processes alike wait for it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "ab") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        yield


def write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` as indented JSON with sorted keys, atomically."""
    atomic_write(path, [json.dumps(doc, indent=2, sort_keys=True), "\n"])


def read_json(path: Path, what: str, version: int) -> dict:
    """The JSON object in ``path``: DataError naming ``what`` if the file is
    not one, ConfigError unless its ``version`` is the int ``version``."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # also undecodable bytes
        raise DataError(f"corrupt {what} {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"corrupt {what} {path}: not a JSON object")
    found = doc.get("version")
    if type(found) is not int or found != version:  # JSON true and 1.0 equal 1 too
        raise ConfigError(f"unsupported {what} version {found!r} in {path} (expected {version})")
    return doc


#: file name suffix of the numpy sidecar beside each store CSV
SIDECAR_SUFFIX = ".cols"
#: layout of the sidecars' column records; a change makes old sidecars stale
_SIDECAR_LAYOUT = 1


def _npy(array: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=False)
    return buf.getvalue()


def _digest_record(digest: bytes) -> bytes:
    return _npy(np.frombuffer(digest, dtype=np.uint8))


def _columns_digest(csv_path: Path, body) -> bytes:
    """SHA-256 of a sidecar's column records, keyed by its CSV's name and the layout."""
    digest = hashlib.sha256(f"{csv_path.name}/{_SIDECAR_LAYOUT}\n".encode())
    digest.update(body)
    return digest.digest()


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.name + SIDECAR_SUFFIX)


def _write_sidecar(csv_path: Path, csv_digest: bytes, columns: list[np.ndarray]) -> None:
    """Write the sidecar of the CSV whose bytes hash to ``csv_digest``.  A
    failure is only a warning: loads then parse the CSV."""
    body = b"".join(map(_npy, columns))
    try:
        atomic_write(_sidecar_path(csv_path),
                     [_digest_record(csv_digest), _digest_record(_columns_digest(csv_path, body)), body])
    except OSError as exc:
        log.warning("%s: sidecar not written, loads parse the CSV: %s", csv_path, exc)


def csv_text(rows: Iterable[list]) -> str:
    """CSV records as ``csv.writer`` writes them, quoting and ``\\r\\n`` included."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _write_csv(path: Path, texts: Iterable[str], columns: list[np.ndarray]) -> None:
    """Write a store CSV, one piece of text at a time, then its sidecar
    holding ``columns``: what parsing the CSV gives."""
    digest = hashlib.sha256()

    def hashed():
        for text in texts:
            data = text.encode()
            digest.update(data)
            yield data

    atomic_write(path, hashed())
    _write_sidecar(path, digest.digest(), columns)


def _read_sidecar(csv_path: Path, csv_digest: bytes) -> tuple[list[np.ndarray] | None, str]:
    """The columns in the CSV's sidecar if it is intact and was made from CSV
    bytes with SHA-256 ``csv_digest``; else None and why not."""
    try:
        data = _sidecar_path(csv_path).read_bytes()
    except FileNotFoundError:
        return None, "no sidecar"
    except OSError as exc:
        return None, f"sidecar unreadable ({exc})"
    head = _digest_record(csv_digest)
    n = len(head)
    if data[:n] != head:
        return None, "sidecar was made from other CSV bytes"
    if data[n : 2 * n] != _digest_record(_columns_digest(csv_path, memoryview(data)[2 * n :])):
        return None, "sidecar is damaged"
    fh = io.BytesIO(data)
    fh.seek(2 * n)
    columns = []
    while fh.tell() < len(data):
        columns.append(np.load(fh, allow_pickle=False))
    return columns, ""


def _metric_columns(series: dict[str, tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """A series dict as sidecar columns: names (JSON text), count per name, ts, values."""
    names, counts, ts, values = _series_columns(series)
    return [np.frombuffer(json.dumps(names).encode(), dtype=np.uint8), counts, ts, values]


class CsvStore:
    """Persists validated bar and metric series under a root directory."""

    MANIFEST = "manifest.json"
    VERSION = 1

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _dir(self, asset: AssetId) -> Path:
        return self.root / asset.key

    # -- manifest ----------------------------------------------------------

    def _read_manifest(self) -> dict:
        path = self.root / self.MANIFEST
        if not path.exists():
            return {"version": self.VERSION, "assets": {}}
        manifest = read_json(path, "store manifest", self.VERSION)
        assets = manifest.get("assets")
        if not isinstance(assets, dict) or not all(isinstance(entry, dict) for entry in assets.values()):
            raise DataError(f"corrupt store manifest {path}: 'assets' is not a table of objects")
        return manifest

    def _update_manifest(self, asset: AssetId, **info) -> None:
        with flocked(self.root / ".manifest.lock"):  # every ingest rewrites this file
            manifest = self._read_manifest()
            manifest["assets"].setdefault(asset.key, {"symbol": asset.symbol, "quote": asset.quote}).update(info)
            write_json(self.root / self.MANIFEST, manifest)

    # -- ingestion ---------------------------------------------------------

    def ingest_ohlcv(self, asset: AssetId, bars: BarTable) -> int:
        """Merge bars into the persisted series; returns the number stored.

        A bar breaking an invariant or a timestamp repeated within ``bars``
        raises MalformedRecordError.  Timestamps already persisted are
        skipped (set-union on the ts key, existing data wins), which makes
        re-ingestion of the same file a no-op.
        """
        failure = _first_failure(*_bar_checks(bars.ts, bars.ohlcv))
        if failure is not None:
            raise MalformedRecordError(failure[1])
        _, first = np.unique(bars.ts, return_index=True)
        if len(first) < len(bars):
            repeated = np.setdiff1d(np.arange(len(bars)), first)[0]
            raise MalformedRecordError(f"duplicate ts {bars.ts[repeated]} in source stream")

        self._read_manifest()  # a corrupt manifest fails before anything is written
        with flocked(self._dir(asset) / ".lock"):
            existing = self.load_bars(asset)
            pos = np.searchsorted(existing.ts, bars.ts)
            held = pos < len(existing)
            held[held] = existing.ts[pos[held]] == bars.ts[held]
            differs = np.flatnonzero(held)[(existing.ohlcv[pos[held]] != bars.ohlcv[held]).any(axis=1)]
            for i in differs:
                log.warning(
                    "%s: bar at ts=%d already stored with different values; keeping stored bar",
                    asset.key,
                    bars.ts[i],
                )
            added = int((~held).sum())
            ts = np.concatenate([existing.ts, bars.ts[~held]])
            order = np.argsort(ts, kind="stable")
            merged = BarTable(ts[order], np.concatenate([existing.ohlcv, bars.ohlcv[~held]])[order])
            self._write_ohlcv(asset, merged)
            self._update_manifest(asset, bars=len(merged))
        log.info("%s: ingested %d new bars (%d total)", asset.key, added, len(merged))
        return added

    def ingest_metrics(self, asset: AssetId, points: MetricTable) -> dict[str, int]:
        """Merge metric points; returns per-name counts of stored points.

        Names are stripped, and a row with an empty name or a non-finite
        value raises MalformedRecordError (the CSV parser already drops
        non-finite rows).  Duplicate timestamps are last-writer-wins, both
        within the stream and against previously stored points.
        """
        incoming = points.stripped()
        per_name = np.bincount(incoming.codes, minlength=len(incoming.names))
        counts = {name: int(k) for name, k in zip(incoming.names, per_name) if k}
        self._read_manifest()  # a corrupt manifest fails before anything is written
        with flocked(self._dir(asset) / ".lock"):
            existing = MetricTable.from_series(self.load_metrics(asset))
            merged = existing.extend(incoming)
            order, repeat = key_order = merged._key_order()
            values = merged.values[order]
            # a point overwriting a different value for its (name, ts), in stream order
            over = np.flatnonzero(repeat[1:] & (values[1:] != values[:-1]) & (order[1:] >= len(existing))) + 1
            for j in over[np.argsort(order[over])]:
                log.warning(
                    "%s: %s at ts=%d overwritten %r -> %r",
                    asset.key, merged.names[merged.codes[order[j]]], merged.ts[order[j]],
                    float(values[j - 1]), float(values[j]),
                )
            series = merged.series(key_order)
            self._write_metrics(asset, series)
            self._update_manifest(asset, metrics={n: len(ts) for n, (ts, _) in series.items()})
        return counts

    # Rows are formatted as csv.writer formats them (ts and repr fields never
    # need quoting), at about half its cost; repr round-trips float64 exactly.

    def _write_ohlcv(self, asset: AssetId, bars: BarTable) -> None:
        rows = "".join([f"{ts},{o!r},{h!r},{lo!r},{c!r},{v!r}\r\n"
                        for ts, (o, h, lo, c, v) in zip(bars.ts.tolist(), bars.ohlcv.tolist())])
        _write_csv(self._dir(asset) / "ohlcv.csv", [csv_text([OHLCV_HEADER]), rows], [bars.ts, bars.ohlcv])

    def _write_metrics(self, asset: AssetId, series: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
        def texts():
            yield csv_text([METRICS_HEADER])
            for name, (ts, values) in series.items():
                field = csv_text([[name]])[:-2]
                yield "".join([f"{t},{field},{v!r}\r\n" for t, v in zip(ts.tolist(), values.tolist())])

        _write_csv(self._dir(asset) / "metrics.csv", texts(), _metric_columns(series))

    # -- loading -----------------------------------------------------------

    def _load_columns(self, path: Path, parse, columns_of) -> list[np.ndarray] | None:
        """The sidecar columns of the store CSV at ``path``; None if there is
        no CSV.  They come from the sidecar when it matches the CSV's
        bytes, else from ``columns_of(parse(csv))``, and the sidecar is rewritten."""
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            return None
        # hashing and parsing read one open file, which os.replace leaves as it is
        with fh:
            sha = hashlib.sha256()
            for block in iter(lambda: fh.read(1 << 18), b""):
                sha.update(block)
            digest = sha.digest()
            columns, why = _read_sidecar(path, digest)
            if columns is not None:
                return columns
            log.info("%s: %s; parsing the CSV", path, why)
            fh.seek(0)
            with io.TextIOWrapper(fh, newline="", encoding="utf-8") as text:
                columns = columns_of(parse(text))
        _write_sidecar(path, digest, columns)
        return columns

    def load_bars(self, asset: AssetId) -> BarTable:
        """The stored bars, in strictly ascending ts order."""
        path = self._dir(asset) / "ohlcv.csv"

        def columns_of(bars: BarTable) -> list[np.ndarray]:
            if np.any(np.diff(bars.ts) <= 0):
                raise DataError(f"{path}: bar timestamps not strictly ascending")
            return [bars.ts, bars.ohlcv]

        columns = self._load_columns(path, parse_ohlcv_csv, columns_of)
        return BarTable(np.zeros(0, dtype=np.int64), np.zeros((0, 5))) if columns is None else BarTable(*columns)

    def load_metrics(self, asset: AssetId) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per stored metric name, in name order: (ascending ts, values)."""
        columns = self._load_columns(self._dir(asset) / "metrics.csv", parse_metrics_csv,
                                     lambda table: _metric_columns(table.series()))
        if columns is None:
            return {}
        names, counts, ts, values = columns
        ends = np.cumsum(counts).tolist()
        return {name: (ts[end - k : end], values[end - k : end])
                for name, k, end in zip(json.loads(names.tobytes()), counts.tolist(), ends)}

    # -- alignment ---------------------------------------------------------

    def align(self, asset: AssetId, start_ts: int, end_ts: int, interval: int, fill_limit: int) -> AlignedFrame:
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
        bars = self.load_bars(asset)
        series = self.load_metrics(asset)

        grid = np.arange(start_ts, end_ts + 1, interval, dtype=np.int64)
        if len(grid) == 0:
            raise AlignmentError(f"empty range [{start_ts}, {end_ts}]")
        pos = np.minimum(np.searchsorted(bars.ts, grid), max(len(bars) - 1, 0))
        missing = grid[bars.ts[pos] != grid] if len(bars) else grid
        if len(missing):
            raise AlignmentError(
                f"{asset.key}: OHLCV gap in range; first missing bar ts={missing[0]} "
                f"({len(missing)} of {len(grid)} grid bars missing)"
            )
        ohlcv = bars.ohlcv[pos]

        kept_names: list[str] = []
        kept_cols: list[np.ndarray] = []
        dropped: list[str] = []
        for name, (ts, values) in series.items():
            col = _locf_column(ts, values, grid, fill_limit)
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


def _locf_column(ts: np.ndarray, values: np.ndarray, grid: np.ndarray, fill_limit: int) -> np.ndarray | None:
    """Resample one metric (ascending ``ts``) onto the grid; None if any gap
    exceeds the limit.

    A bar counts as fresh when an observation exists in the window
    (previous bar ts, bar ts]; the first bar is fresh when any
    observation exists at or before it.  ``fill_limit`` caps the number
    of consecutive non-fresh bars.
    """
    # index of the last observation at or before each grid point
    count = np.searchsorted(ts, grid, side="right")
    if count[0] == 0:
        return None
    fresh = np.flatnonzero(np.diff(count, prepend=0))  # the first bar is fresh: count[0] > 0
    # stale runs lie between fresh bars and after the last one
    if np.diff(np.append(fresh, len(grid))).max() - 1 > fill_limit:
        return None
    return values[count - 1]
