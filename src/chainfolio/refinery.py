"""Metric refinement: correlation-ranked selection and rolling transforms.

The pipeline turns a raw pool of per-asset metric series into a compact
feature matrix:

1. compute k-bar returns of the close price for three horizons,
2. correlate every metric with each horizon's returns in one row-wise
   pass, rank each horizon once by Pearson r, and keep the strongest
   positive/negative performers per horizon from that one ranking,
3. rank the union by how many horizons picked each metric,
4. rolling-normalize the surviving columns, then
5. rolling PCA keeping the fewest components that explain at least the
   target fraction of trailing-window variance.

Every function takes its windows, target and epsilon explicitly; their
defaults live on :class:`~chainfolio.cryptomodule.CmSettings` alone.

Every transform is trailing-window only; no output row ever depends on
data after its own timestamp.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .datastore import AlignedFrame
from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

# eigenvalues below max_eig * RANK_TOL are treated as numerically zero
_RANK_TOL = 1e-10

#: windows per block of rolling_normalize and per stacked eigendecomposition
#: of rolling_pca; bounds their temporaries
_PCA_CHUNK = 256
#: windows per gathered (windows, window, K) block when forming covariances
_COV_CHUNK = 32


@dataclass(frozen=True)
class HorizonConfig:
    """Return horizons and selection sizes for the correlation ranking."""

    horizons: tuple[int, ...] = (12, 24, 48)
    top_per_group: int = 5
    final_count: int = 10
    #: pair metric value at t with the forward k-bar return starting at t;
    #: False pairs it with the trailing return ending at t.
    forward_returns: bool = True

    def __post_init__(self):
        hs = self.horizons
        if len(hs) != 3 or any(h <= 0 for h in hs) or list(hs) != sorted(set(hs)):
            raise ConfigError(f"horizons must be 3 distinct ascending positive ints, got {hs}")
        if self.top_per_group <= 0 or self.final_count <= 0:
            raise ConfigError("top_per_group and final_count must be positive")
        if self.final_count > 3 * 2 * self.top_per_group:
            raise ConfigError("final_count exceeds the largest possible candidate pool")


def k_period_returns(close: np.ndarray, k: int) -> np.ndarray:
    """Simple k-bar returns: out[i] = close[i+k]/close[i] - 1, length T-k."""
    close = np.asarray(close, dtype=np.float64)
    if k <= 0:
        raise ConfigError("k must be positive")
    if k >= len(close):
        raise DataError(f"series of length {len(close)} too short for k={k}")
    if np.any(close <= 0):
        raise DataError("prices must be positive")
    return close[k:] / close[:-k] - 1.0


@dataclass
class CorrelationTable:
    """Pearson coefficients against each horizon's returns: ``r[i, j]`` for
    horizon i and metric j, NaN where either side has zero variance, and
    each horizon's one ranking, ``ranked[h]``: the metrics with defined r,
    descending r, ties broken by name."""

    horizons: tuple[int, ...]
    names: list[str]
    r: np.ndarray
    ranked: dict[int, list[str]]

    @property
    def coefficients(self) -> dict[tuple[str, int], float | None]:
        """Pearson coefficient per (metric, horizon); None marks undefined."""
        return {(name, h): None if math.isnan(v) else v
                for h, row in zip(self.horizons, self.r.tolist()) for name, v in zip(self.names, row)}

    def rows(self) -> list[tuple[str, int, float | None, int | None]]:
        """(metric, horizon, r, rank) rows; rank is the 1-based position in
        the horizon's ranking, None for undefined r."""
        coefficients = self.coefficients
        out = []
        for h in self.horizons:
            rank_of = {name: i + 1 for i, name in enumerate(self.ranked[h])}
            out += [(name, h, coefficients[(name, h)], rank_of.get(name)) for name in self.names]
        return out


@dataclass
class SelectedMetricSet:
    """Outcome of the correlation-ranked selection."""

    names: list[str]
    frequency: dict[str, int]
    #: per-name list of (horizon, rank within the horizon's descending-r
    #: order, sign of r) for each horizon group that picked the name
    provenance: dict[str, list[tuple[int, int, int]]]
    shortfall: bool
    table: CorrelationTable = field(repr=False)


def correlation_table(frame: AlignedFrame, cfg: HorizonConfig) -> CorrelationTable:
    """Correlate every metric column against each horizon's returns and rank
    each horizon once.

    A horizon's coefficients come from one row-wise pass over the metrics
    as (metrics, bars) rows: each row's sums are the same pairwise sums,
    so the same bits, as the sample Pearson formula over that one column."""
    t = len(frame)
    max_h = max(cfg.horizons)
    if t < max_h + 3:
        raise DataError(f"frame has {t} rows; need at least {max_h + 3} for horizon {max_h}")
    if not frame.metric_names:
        raise DataError("frame has no metric columns")
    columns = np.ascontiguousarray(frame.metrics.T)
    r = np.full((len(cfg.horizons), len(frame.metric_names)), np.nan)
    ranked = {}
    for i, h in enumerate(cfg.horizons):
        dy = k_period_returns(frame.close, h)
        dy -= dy.mean()
        # metric value at t against the return over (t, t+h], or over (t-h, t]
        x = columns[:, : t - h] if cfg.forward_returns else columns[:, h:]
        dx = x - x.mean(axis=1, keepdims=True)
        sx, sy = np.sum(dx * dx, axis=1), np.sum(dy * dy)
        np.divide(np.sum(dx * dy, axis=1), np.sqrt(sx * sy), out=r[i], where=(sx != 0.0) & (sy != 0.0))
        defined = [(-v, name) for name, v in zip(frame.metric_names, r[i].tolist()) if not math.isnan(v)]
        ranked[h] = [name for _, name in sorted(defined)]
    return CorrelationTable(tuple(cfg.horizons), list(frame.metric_names), r, ranked)


def select_from_table(table: CorrelationTable, cfg: HorizonConfig) -> SelectedMetricSet:
    """Rank horizon groups by appearance frequency and keep the strongest.

    Per horizon, the ``top_per_group`` highest and lowest defined
    coefficients form the group.  Candidates are ordered by (appearance
    frequency desc, max |r| over defined horizons desc, name asc) and the
    first ``final_count`` survive.
    """
    if not any(table.ranked.values()):
        raise DataError("all correlations undefined; metric pool is degenerate")
    coefficients = table.coefficients
    top = cfg.top_per_group
    frequency: dict[str, int] = {}
    provenance: dict[str, list[tuple[int, int, int]]] = {}
    for h in table.horizons:
        ranked = table.ranked[h]
        for rank, name in enumerate(ranked, 1):
            if rank <= top or rank > len(ranked) - top:
                r = coefficients[(name, h)]
                frequency[name] = frequency.get(name, 0) + 1
                sign = 0 if r == 0 else (1 if r > 0 else -1)
                provenance.setdefault(name, []).append((h, rank, sign))

    # max |r| over defined horizons; fmax skips NaN
    strength = dict(zip(table.names, np.fmax.reduce(np.abs(table.r), axis=0).tolist()))
    candidates = sorted(frequency, key=lambda n: (-frequency[n], -strength[n], n))
    shortfall = len(candidates) < cfg.final_count
    if shortfall:
        log.warning("only %d candidate metrics for final_count=%d", len(candidates), cfg.final_count)
    names = candidates[: cfg.final_count]
    return SelectedMetricSet(
        names=names,
        frequency={n: frequency[n] for n in names},
        provenance={n: provenance[n] for n in names},
        shortfall=shortfall,
        table=table,
    )


def select_valid_metrics(frame: AlignedFrame, cfg: HorizonConfig) -> SelectedMetricSet:
    return select_from_table(correlation_table(frame, cfg), cfg)


# ---------------------------------------------------------------------------
# Rolling transforms


def rolling_normalize(series: np.ndarray, window: int, epsilon: float) -> np.ndarray:
    """Trailing z-score per column: (x[t] - mean) / (std + epsilon).

    Mean and population std are taken over rows [t-window+1, t].  The
    first ``window - 1`` warm-up rows are returned as NaN and must be
    excluded downstream.
    """
    if window < 2:
        raise ConfigError("window must be >= 2")
    x = np.asarray(series, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    t, k = x.shape
    out = np.full((t, k), np.nan)
    if t >= window:
        sw = np.lib.stride_tricks.sliding_window_view(x, window, axis=0)  # (t-w+1, k, w)
        for lo in range(0, len(sw), _PCA_CHUNK):  # std's deviations stay one block's
            block = sw[lo : lo + _PCA_CHUNK]
            rows = slice(lo + window - 1, lo + window - 1 + _PCA_CHUNK)
            out[rows] = (x[rows] - block.mean(axis=2)) / (block.std(axis=2) + epsilon)
    return out[:, 0] if squeeze else out


def full_windows(ok: np.ndarray, window: int) -> np.ndarray:
    """Rows t whose trailing window of rows [t - window + 1, t] is all ``ok``."""
    if len(ok) < window:
        return np.zeros(0, dtype=np.intp)
    return np.flatnonzero(np.lib.stride_tricks.sliding_window_view(ok, window).all(axis=1)) + window - 1


def window_rows(ends: np.ndarray, window: int, length: int) -> np.ndarray:
    """Rows of [0, length) inside the trailing window [e - window + 1, e] of
    some row e >= 0 in ``ends``."""
    # before[i] counts the ends before row i
    before = np.concatenate(([0], np.bincount(np.asarray(ends, dtype=np.intp), minlength=length).cumsum()))
    rows = np.arange(length)
    return np.flatnonzero(before[np.minimum(rows + window, length)] > before[rows])


def _runs(rows: np.ndarray) -> list[tuple[int, int]]:
    """[lo, hi) index bounds of each run of consecutive values in sorted ``rows``."""
    cuts = np.flatnonzero(np.diff(rows) != 1) + 1
    return list(zip(np.r_[0, cuts], np.r_[cuts, len(rows)])) if len(rows) else []


@dataclass
class RefinedFeatureFrame:
    """Per-timestamp principal-component features with a validity mask.

    Component counts vary per refit window, so ``components`` is padded
    with zeros to ``c_max`` columns; ``n_components[t]`` says how many
    are real.  ``explained[t]`` is the cumulative variance fraction of
    the retained set.  ``rank_flagged`` marks windows where the variance
    target was unreachable (rank deficiency or a zero-variance window).
    ``valid`` marks exactly the fitted rows: the rows asked for that are
    past the warm-up and whose windows are finite.
    """

    timestamps: np.ndarray
    components: np.ndarray
    valid: np.ndarray
    n_components: np.ndarray
    explained: np.ndarray
    rank_flagged: np.ndarray
    c_max: int

    def __len__(self) -> int:
        return len(self.timestamps)


def rolling_pca(
    normalized: np.ndarray,
    window: int,
    variance_target: float,
    timestamps: np.ndarray,
    rows: np.ndarray,
) -> RefinedFeatureFrame:
    """Refit PCA on a trailing window at each of ``rows`` and project that row.

    At each such t the window is rows [t-window+1, t]; the smallest component
    count whose cumulative explained variance reaches ``variance_target``
    is retained and row t (centered on the window mean) is projected onto
    those components.  Component signs are fixed so each eigenvector's
    largest-magnitude loading is positive.  Rows whose window touches
    NaN warm-up rows of the input, and rows not in ``rows``, are invalid;
    ``timestamps`` label the rows.
    """
    x = np.asarray(normalized, dtype=np.float64)
    if x.ndim != 2:
        raise DataError("normalized input must be 2-D")
    t, k = x.shape
    if window < k + 1:
        raise ConfigError(f"window ({window}) must be >= K+1 ({k + 1})")
    if not 0.0 < variance_target <= 1.0:
        raise ConfigError("variance_target must be in (0, 1]")

    components = np.zeros((t, k))
    valid = np.zeros(t, dtype=bool)
    n_components = np.zeros(t, dtype=np.int32)
    explained = np.zeros(t)
    rank_flagged = np.zeros(t, dtype=bool)

    ends = full_windows(np.isfinite(x).all(axis=1), window)
    ends = ends[np.isin(ends, rows)]  # intersect1d and unique would import numpy.ma
    valid[ends] = True
    # view[s] is the window of rows [s, s + window), a view of x
    view = np.lib.stride_tricks.as_strided(
        x, (max(t - window + 1, 0), window, k), (x.strides[0], *x.strides), writeable=False
    )
    starts = ends - (window - 1)
    # every step below works window by window, in the same order of float
    # operations as one window at a time.  numpy's mean sums one column
    # pairwise, and wider rows one after another starting from zero
    if k == 1:
        means = np.array([view[s].mean(axis=0) for s in starts]).reshape(-1, 1)
    else:  # a running sum over each run of consecutive windows adds their rows in that order
        means = np.empty((len(starts), k))
        for lo, hi in _runs(starts):
            sums = np.zeros((hi - lo, k))
            for j in range(starts[lo], starts[lo] + window):
                sums += x[j : j + hi - lo]
            means[lo:hi] = sums / window
    for lo in range(0, len(ends), _PCA_CHUNK):
        chunk = ends[lo : lo + _PCA_CHUNK]
        mean = means[lo : lo + _PCA_CHUNK]
        cov = np.empty((len(chunk), k, k))
        for i in range(0, len(chunk), _COV_CHUNK):
            part = slice(i, i + _COV_CHUNK)
            centered = view[starts[lo : lo + _PCA_CHUNK][part]]  # (C, window, k)
            centered -= mean[part, None, :]
            cov[part] = np.matmul(centered.transpose(0, 2, 1), centered)
        eigvals, eigvecs = np.linalg.eigh(cov / (window - 1))
        order = np.argsort(eigvals, axis=1)[:, ::-1]
        eigvals = np.clip(np.take_along_axis(eigvals, order, axis=1), 0.0, None)
        eigvecs = np.take_along_axis(eigvecs, order[:, None, :], axis=2)
        total = eigvals.sum(axis=1)

        # zero-variance window: nothing to represent
        empty = total <= 0.0
        rank_flagged[chunk[empty]] = True
        explained[chunk[empty]] = 1.0
        chunk, eigvals, eigvecs, total = chunk[~empty], eigvals[~empty], eigvecs[~empty], total[~empty]
        centered_row = x[chunk] - mean[~empty]

        rank = np.sum(eigvals > total[:, None] * _RANK_TOL, axis=1)
        cum = np.cumsum(eigvals, axis=1) / total[:, None]
        # cum ascends, so counting entries below the target is a searchsorted
        needed = np.sum(cum < variance_target - 1e-12, axis=1) + 1
        c = np.minimum(needed, rank)
        kept = cum[np.arange(len(c)), c - 1]
        rank_flagged[chunk] = kept < variance_target - 1e-12
        n_components[chunk] = c
        explained[chunk] = kept
        # sign convention: dominant loading positive
        dominant = np.take_along_axis(eigvecs, np.argmax(np.abs(eigvecs), axis=1)[:, None, :], axis=1)
        basis = eigvecs * np.where(dominant < 0, -1.0, 1.0)
        # column-major bases, the layout a per-window fit's column-indexed
        # basis has: BLAS's rounding depends on the matrix layout
        basis_t = np.ascontiguousarray(basis.transpose(0, 2, 1))
        for ci in np.flatnonzero(np.bincount(c)):  # the distinct counts, ascending
            same = c == ci
            projected = np.matmul(centered_row[same, None, :], basis_t[same, :ci].transpose(0, 2, 1))
            components[chunk[same], :ci] = projected[:, 0]

    return RefinedFeatureFrame(
        timestamps=np.asarray(timestamps),
        components=components,
        valid=valid,
        n_components=n_components,
        explained=explained,
        rank_flagged=rank_flagged,
        c_max=k,
    )


def refine_features(
    frame: AlignedFrame,
    selected_names: list[str],
    norm_window: int,
    pca_window: int,
    variance_target: float,
    epsilon: float,
    rows: np.ndarray,
) -> RefinedFeatureFrame:
    """Normalize then PCA-project the selected metric columns of a frame at
    ``rows``, the frame rows whose components will be read.

    Only the contiguous spans their windows reach are normalized, each from
    its own warm-up, and only those rows are fitted; every other row is
    invalid.  A fitted row is the same bits whatever the other rows: every
    transform is trailing-window only and works window by window."""
    missing = [n for n in selected_names if n not in frame.metric_names]
    if missing:
        raise DataError(f"{frame.asset.key}: frame lacks selected metrics {missing}")
    cols = [frame.metric_names.index(n) for n in selected_names]
    pool = frame.metrics[:, cols]
    normalized = np.full(pool.shape, np.nan)
    need = window_rows(rows, norm_window + pca_window - 1, len(frame))
    for lo, hi in _runs(need):
        span = slice(need[lo], need[hi - 1] + 1)
        normalized[span] = rolling_normalize(pool[span], norm_window, epsilon)
    return rolling_pca(normalized, pca_window, variance_target, frame.timestamps, rows)
