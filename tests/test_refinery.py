"""Tests for correlation-ranked metric selection and rolling transforms."""

import math

import numpy as np
import pytest

from chainfolio import refinery
from chainfolio.datastore import AlignedFrame, AssetId
from chainfolio.errors import ConfigError, DataError
from chainfolio.refinery import (
    HorizonConfig,
    correlation_table,
    k_period_returns,
    refine_features,
    rolling_normalize,
    rolling_pca,
    select_from_table,
    select_valid_metrics,
)

INTERVAL = 21600
T0 = 1_599_998_400


def make_frame(closes, metrics: dict[str, np.ndarray]) -> AlignedFrame:
    closes = np.asarray(closes, dtype=np.float64)
    t = len(closes)
    ohlcv = np.column_stack([closes, closes * 1.01, closes * 0.99, closes, np.full(t, 7.0)])
    names = sorted(metrics)
    mat = np.column_stack([np.asarray(metrics[n], dtype=np.float64) for n in names]) if names else np.zeros((t, 0))
    return AlignedFrame(
        asset=AssetId("AAA"),
        timestamps=T0 + INTERVAL * np.arange(t, dtype=np.int64),
        ohlcv=ohlcv,
        metrics=mat,
        metric_names=names,
        interval=INTERVAL,
    )


# ---------------------------------------------------------------------------
# k-period returns


def test_k_period_returns_examples():
    out = k_period_returns(np.array([100.0, 110.0, 121.0]), 1)
    assert np.allclose(out, [0.10, 0.10], atol=1e-12)
    out = k_period_returns(np.array([1.0, 2.0, 4.0, 8.0]), 1)
    assert np.allclose(out, [1.0, 1.0, 1.0], atol=1e-12)
    out = k_period_returns(np.array([100.0, 90.0, 99.0, 108.9]), 2)
    assert np.allclose(out, [-0.01, 0.21], atol=1e-12)


def test_k_period_returns_errors():
    with pytest.raises(ConfigError):
        k_period_returns(np.array([1.0, 2.0]), 0)
    with pytest.raises(DataError):
        k_period_returns(np.array([1.0, 2.0]), 2)
    with pytest.raises(DataError):
        k_period_returns(np.array([1.0, -2.0, 3.0]), 1)


# ---------------------------------------------------------------------------
# Pearson correlation


def scalar_pearson(x, y):
    """Sample Pearson correlation of one metric column and one return series;
    None when either side has zero variance."""
    dx = x - x.mean()
    dy = y - y.mean()
    sx, sy = float(np.sum(dx * dx)), float(np.sum(dy * dy))
    if sx == 0.0 or sy == 0.0:
        return None
    return float(np.sum(dx * dy) / math.sqrt(sx * sy))


def test_pearson_examples():
    # closes 1, 2, 6, 12, 48, 96 have the exact horizon-1 returns below
    rets = np.array([1.0, 2.0, 1.0, 3.0, 1.0])
    frame = make_frame([1.0, 2.0, 6.0, 12.0, 48.0, 96.0],
                       {"up": np.append(2.0 * rets + 1.0, 0.0), "down": np.append(-rets, 0.0), "ramp": np.arange(6.0)})
    r = correlation_table(frame, HorizonConfig(horizons=(1, 2, 3))).coefficients
    assert r[("up", 1)] == pytest.approx(1.0, abs=1e-12)
    assert r[("down", 1)] == pytest.approx(-1.0, abs=1e-12)
    # hand-computed: sum dx*dy = 1, sums of squares 10 and 3.2
    assert r[("ramp", 1)] == pytest.approx(1.0 / math.sqrt(32.0), abs=1e-12)


def test_pearson_undefined_and_errors(rng):
    cfg = HorizonConfig(horizons=(1, 2, 3))
    doubling = 2.0 ** np.arange(8)  # every horizon's returns are constant
    table = correlation_table(make_frame(doubling, {"m": rng.normal(size=8)}), cfg)
    assert table.rows() == [("m", h, None, None) for h in (1, 2, 3)]
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, 8)))
    table = correlation_table(make_frame(closes, {"flat": np.full(8, 3.0), "m": rng.normal(size=8)}), cfg)
    assert [table.coefficients[("flat", h)] for h in (1, 2, 3)] == [None] * 3
    assert table.ranked == {h: ["m"] for h in (1, 2, 3)}
    with pytest.raises(DataError):  # 2 pairs at the longest horizon
        correlation_table(make_frame(closes[:5], {"m": np.arange(5.0)}), cfg)


@pytest.mark.parametrize("seed", range(12))
def test_correlation_table_matches_scalar_formula(seed):
    """Every coefficient is the scalar formula's, bit for bit, over frames
    with constant and repeated columns in shuffled name order, in both
    pairings; it is a correlation, and equal r rank by name."""
    rng = np.random.default_rng(seed)
    t, k = int(rng.integers(40, 400)), int(rng.integers(4, 30))
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, t)))
    metrics = rng.normal(size=(t, k)) * rng.choice([1e-3, 1.0, 1e4], size=k)
    metrics[:, 1] = 7.5
    metrics[:, 3] = metrics[:, 2]  # a tie at every horizon
    names = [f"m{j:02d}" for j in rng.permutation(k)]
    frame = AlignedFrame(asset=AssetId("AAA"), timestamps=T0 + INTERVAL * np.arange(t, dtype=np.int64),
                         ohlcv=np.column_stack([closes] * 4 + [np.ones(t)]), metrics=metrics,
                         metric_names=names, interval=INTERVAL)
    for forward in (True, False):
        cfg = HorizonConfig(horizons=(2, 5, 11), forward_returns=forward)
        table = correlation_table(frame, cfg)
        for h in cfg.horizons:
            rets = k_period_returns(closes, h)
            for j, name in enumerate(names):
                col = metrics[: t - h, j] if forward else metrics[h:, j]
                r = table.coefficients[(name, h)]
                assert r == scalar_pearson(col, rets)
                if r is not None:
                    assert abs(r) <= 1.0 + 1e-12
                    assert r == pytest.approx(float(np.corrcoef(col, rets)[0, 1]), abs=1e-10)
            ranked = table.ranked[h]
            assert ranked == sorted(ranked, key=lambda n: (-table.coefficients[(n, h)], n))
            assert names[1] not in ranked
            tied = sorted(names[2:4])
            assert ranked.index(tied[1]) == ranked.index(tied[0]) + 1


# ---------------------------------------------------------------------------
# Correlation table and selection


def test_horizon_config_validation():
    with pytest.raises(ConfigError):
        HorizonConfig(horizons=(12, 12, 48))
    with pytest.raises(ConfigError):
        HorizonConfig(horizons=(48, 24, 12))
    with pytest.raises(ConfigError):
        HorizonConfig(horizons=(0, 1, 2))
    with pytest.raises(ConfigError):
        HorizonConfig(top_per_group=0)
    with pytest.raises(ConfigError):
        HorizonConfig(top_per_group=1, final_count=7)


def test_forward_pairing_recovers_perfect_metric(rng):
    t = 60
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, t)))
    fwd = np.zeros(t)
    fwd[: t - 2] = closes[2:] / closes[: t - 2] - 1.0
    frame = make_frame(closes, {"fwd2": fwd, "noise": rng.normal(size=t)})
    cfg = HorizonConfig(horizons=(1, 2, 4), top_per_group=1, final_count=2)
    table = correlation_table(frame, cfg)
    assert table.coefficients[("fwd2", 2)] == pytest.approx(1.0, abs=1e-12)
    sel = select_from_table(table, cfg)
    assert "fwd2" in sel.names


def test_trailing_pairing_mode(rng):
    t = 60
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, t)))
    trail = np.zeros(t)
    trail[2:] = closes[2:] / closes[:-2] - 1.0
    frame = make_frame(closes, {"tr2": trail})
    cfg = HorizonConfig(horizons=(1, 2, 4), top_per_group=1, final_count=1, forward_returns=False)
    table = correlation_table(frame, cfg)
    assert table.coefficients[("tr2", 2)] == pytest.approx(1.0, abs=1e-12)


def test_table_rows_rank_descending(rng):
    t = 80
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, t)))
    metrics = {f"m{i}": rng.normal(size=t) for i in range(4)}
    frame = make_frame(closes, metrics)
    cfg = HorizonConfig(horizons=(2, 4, 8))
    rows = correlation_table(frame, cfg).rows()
    assert len(rows) == 3 * 4
    for h in (2, 4, 8):
        sub = sorted((r for r in rows if r[1] == h and r[3] is not None), key=lambda r: r[3])
        rs = [r[2] for r in sub]
        assert rs == sorted(rs, reverse=True)
        assert [r[3] for r in sub] == list(range(1, len(sub) + 1))


def test_select_shortfall_returns_everything(rng):
    t = 80
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, t)))
    metrics = {f"m{i}": rng.normal(size=t) for i in range(6)}
    frame = make_frame(closes, metrics)
    sel = select_valid_metrics(frame, HorizonConfig(horizons=(2, 4, 8), final_count=10))
    assert sel.shortfall
    assert sorted(sel.names) == sorted(metrics)


def test_select_tie_break_is_name_order(rng):
    t = 80
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, t)))
    shared = rng.normal(size=t)
    frame = make_frame(closes, {"bb": shared, "aa": shared, "zz": rng.normal(size=t)})
    sel = select_valid_metrics(frame, HorizonConfig(horizons=(2, 4, 8), final_count=3))
    ia, ib = sel.names.index("aa"), sel.names.index("bb")
    assert ib == ia + 1
    assert sel.frequency["aa"] == sel.frequency["bb"]


def test_select_degenerate_pool_raises(rng):
    t = 80
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, t)))
    frame = make_frame(closes, {"c1": np.full(t, 5.0), "c2": np.zeros(t)})
    with pytest.raises(DataError):
        select_valid_metrics(frame, HorizonConfig(horizons=(2, 4, 8)))


def test_selection_provenance_records_groups(rng):
    t = 100
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, t)))
    fwd = np.zeros(t)
    fwd[: t - 4] = closes[4:] / closes[: t - 4] - 1.0
    metrics = {"fwd4": fwd}
    metrics.update({f"n{i}": rng.normal(size=t) for i in range(5)})
    frame = make_frame(closes, metrics)
    sel = select_valid_metrics(frame, HorizonConfig(horizons=(2, 4, 8), top_per_group=2, final_count=4))
    assert "fwd4" in sel.names
    entries = sel.provenance["fwd4"]
    picked_h4 = [e for e in entries if e[0] == 4]
    assert picked_h4 and picked_h4[0][1] == 1 and picked_h4[0][2] == 1


def test_correlation_table_too_short():
    frame = make_frame(np.linspace(100, 110, 10), {"m": np.arange(10.0)})
    with pytest.raises(DataError):
        correlation_table(frame, HorizonConfig(horizons=(2, 4, 8)))


# ---------------------------------------------------------------------------
# Rolling normalization


def test_rolling_normalize_constant_is_zero():
    out = rolling_normalize(np.full(10, 4.2), 3, 1e-8)
    assert np.isnan(out[:2]).all()
    assert np.allclose(out[2:], 0.0, atol=1e-12)


def test_rolling_normalize_two_point_window():
    eps = 1e-8
    out = rolling_normalize(np.array([0.0, 1.0]), 2, epsilon=eps)
    assert math.isnan(out[0])
    assert out[1] == pytest.approx(0.5 / (0.5 + eps), abs=1e-15)


def test_rolling_normalize_matches_direct_loop(rng):
    x = rng.normal(size=(40, 3)) * 10.0
    w, eps = 7, 1e-8
    out = rolling_normalize(x, w, eps)
    for t in range(40):
        if t < w - 1:
            assert np.isnan(out[t]).all()
            continue
        win = x[t - w + 1 : t + 1]
        expect = (x[t] - win.mean(axis=0)) / (win.std(axis=0) + eps)
        assert np.allclose(out[t], expect, atol=1e-12)


def one_shot_normalize(x, window, eps):
    """rolling_normalize as one sliding_window_view mean/std over every window."""
    x = np.asarray(x, dtype=np.float64)
    out = np.full(x.shape, np.nan)
    if len(x) >= window:
        sw = np.lib.stride_tricks.sliding_window_view(x, window, axis=0)
        out[window - 1:] = (x[window - 1:] - sw.mean(axis=-1)) / (sw.std(axis=-1) + eps)
    return out


@pytest.mark.parametrize("n_windows", [1, refinery._PCA_CHUNK - 1, refinery._PCA_CHUNK,
                                       refinery._PCA_CHUNK + 1, 2 * refinery._PCA_CHUNK + 37])
@pytest.mark.parametrize("order", ["C", "F"])
def test_rolling_normalize_blocks_equal_one_pass_over_all_windows(rng, n_windows, order):
    """Bounded blocks of windows give the bits of one pass over every window."""
    for w, k in [(50, 10), (2, 1), (17, 30)]:
        x = np.asarray(rng.normal(size=(n_windows + w - 1, k)) * 10.0, order=order)
        x[rng.integers(0, len(x), size=3), rng.integers(0, k, size=3)] = np.nan
        assert np.array_equal(rolling_normalize(x, w, 1e-8), one_shot_normalize(x, w, 1e-8), equal_nan=True)
        assert np.array_equal(rolling_normalize(x[:, 0], w, 1e-8), one_shot_normalize(x[:, 0], w, 1e-8), equal_nan=True)
    assert np.isnan(rolling_normalize(x[: w - 1], w, 1e-8)).all()


def test_rolling_normalize_no_lookahead(rng):
    x = rng.normal(size=30)
    base = rolling_normalize(x, 5, 1e-8)
    x2 = x.copy()
    x2[20] += 100.0
    pert = rolling_normalize(x2, 5, 1e-8)
    assert np.array_equal(base[:20], pert[:20], equal_nan=True)


def test_rolling_normalize_window_validation():
    with pytest.raises(ConfigError):
        rolling_normalize(np.arange(5.0), 1, 1e-8)


# ---------------------------------------------------------------------------
# Rolling PCA


def every_row(x):
    """The ``timestamps`` and ``rows`` of a refit at every row of ``x``."""
    return {"timestamps": np.arange(len(x)), "rows": np.arange(len(x))}


def test_pca_duplicate_columns_need_one_component(rng):
    z = rng.normal(size=40)
    x = np.column_stack([z, z])
    out = rolling_pca(x, window=10, variance_target=0.8, **every_row(x))
    v = out.valid
    assert v[9:].all() and not v[:9].any()
    assert (out.n_components[v] == 1).all()
    assert np.allclose(out.explained[v], 1.0, atol=1e-12)
    assert np.allclose(out.components[v, 1], 0.0, atol=1e-12)
    assert not out.rank_flagged[v].any()


def test_pca_known_eigenvalues_nine_one():
    a = math.sqrt(27.0) / 2.0
    b = math.sqrt(3.0) / 2.0
    x = np.array([[a, b], [-a, b], [a, -b], [-a, -b]])
    out = rolling_pca(x, window=4, variance_target=0.8, **every_row(x))
    # eigenvalues are exactly 9 and 1, so one component explains 0.9
    assert out.n_components[3] == 1
    assert out.explained[3] == pytest.approx(0.9, abs=1e-12)
    assert out.components[3, 0] == pytest.approx(-a, abs=1e-9)
    assert out.components[3, 1] == 0.0
    out2 = rolling_pca(x, window=4, variance_target=0.95, **every_row(x))
    assert out2.n_components[3] == 2
    assert out2.explained[3] == pytest.approx(1.0, abs=1e-12)


def _hadamard8():
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    return np.kron(h2, np.kron(h2, h2))


def test_pca_equal_variance_needs_ceiling_count():
    # five zero-mean orthogonal columns of equal variance: each explains 20%
    x = _hadamard8()[:, 1:6]
    out = rolling_pca(x, window=8, variance_target=0.8, **every_row(x))
    assert out.valid[7]
    assert out.n_components[7] == 4
    assert out.explained[7] == pytest.approx(0.8, abs=1e-9)
    assert not out.rank_flagged[7]


def test_pca_minimal_count_matches_independent_eigh(rng):
    x = rng.normal(size=(60, 4))
    w, target = 12, 0.8
    out = rolling_pca(x, window=w, variance_target=target, **every_row(x))
    for i in range(w - 1, 60):
        win = x[i - w + 1 : i + 1]
        cov = np.cov(win.T, ddof=1)
        eig = np.sort(np.clip(np.linalg.eigvalsh(cov), 0.0, None))[::-1]
        total = eig.sum()
        cum = np.cumsum(eig) / total
        needed = int(np.searchsorted(cum, target - 1e-12) + 1)
        rank = int(np.sum(eig > total * 1e-10))
        assert out.n_components[i] == min(needed, rank)
        assert out.explained[i] == pytest.approx(cum[out.n_components[i] - 1], abs=1e-9)
        assert out.valid[i]


def test_pca_zero_variance_window_is_flagged():
    x = np.zeros((12, 3))
    out = rolling_pca(x, window=5, variance_target=0.8, **every_row(x))
    v = out.valid
    assert v[4:].all()
    assert out.rank_flagged[v].all()
    assert (out.n_components[v] == 0).all()
    assert np.allclose(out.explained[v], 1.0)


def reference_rolling_pca(x, window, variance_target):
    """One window at a time: (components, valid, n_components, explained, rank_flagged)."""
    t, k = x.shape
    components, explained = np.zeros((t, k)), np.zeros(t)
    valid, flagged = np.zeros(t, dtype=bool), np.zeros(t, dtype=bool)
    n_components = np.zeros(t, dtype=np.int32)
    row_ok = np.isfinite(x).all(axis=1)
    for i in range(window - 1, t):
        lo = i - window + 1
        if not row_ok[lo : i + 1].all():
            continue
        win = x[lo : i + 1]
        mean = win.mean(axis=0)
        centered = win - mean
        eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / (window - 1))
        order = np.argsort(eigvals)[::-1]
        eigvals = np.clip(eigvals[order], 0.0, None)
        eigvecs = eigvecs[:, order]
        total = float(eigvals.sum())
        valid[i] = True
        if total <= 0.0:
            flagged[i] = True
            explained[i] = 1.0
            continue
        rank = int(np.sum(eigvals > total * 1e-10))
        cum = np.cumsum(eigvals) / total
        c = min(int(np.searchsorted(cum, variance_target - 1e-12) + 1), rank)
        flagged[i] = cum[c - 1] < variance_target - 1e-12
        basis = eigvecs[:, :c]
        flip = basis[np.argmax(np.abs(basis), axis=0), np.arange(c)] < 0
        basis = basis * np.where(flip, -1.0, 1.0)
        components[i, :c] = (x[i] - mean) @ basis
        n_components[i] = c
        explained[i] = float(cum[c - 1])
    return components, valid, n_components, explained, flagged


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("chunk", [1, 7, 256])
def test_pca_stacked_windows_equal_one_window_at_a_time(rng, monkeypatch, chunk, k):
    """Bit-identical to the per-window fit, with NaN warm-up rows and NaN
    holes, constant (zero-variance) stretches and rank-deficient windows;
    for one column too, whose window means numpy sums pairwise."""
    monkeypatch.setattr(refinery, "_PCA_CHUNK", chunk)
    monkeypatch.setattr(refinery, "_COV_CHUNK", 3)
    t, w = 90, 12
    x = rng.normal(size=(t, k)) * [1.0, 3.0, 0.1, 2.0][:k]
    x[:6] = np.nan
    x[40] = np.nan
    x[50:68] = 0.25               # constant rows: zero-variance windows
    x[70:, -1] = 2.0 * x[70:, 0]  # k > 1: a duplicate direction, rank deficiency
    for target in (0.5, 0.8, 1.0):
        out = rolling_pca(x, window=w, variance_target=target, **every_row(x))
        want = reference_rolling_pca(x, w, target)
        got = (out.components, out.valid, out.n_components, out.explained, out.rank_flagged)
        for g, r in zip(got, want):
            assert np.array_equal(g, r)
        assert out.rank_flagged[61:68].all() and out.valid[61:68].all()
        # refit rows: gaps shorter and longer than the window, rows inside the
        # warm-up and the NaN hole, a run of consecutive windows, one row, none
        for rows in ([20, 25, 60, 89], [3, 15, 16, 17, 18], np.arange(30, 58), [45, 44, 45], [30], []):
            out = rolling_pca(x, window=w, variance_target=target, timestamps=np.arange(t),
                              rows=np.asarray(rows, dtype=np.intp))
            fitted = np.isin(np.arange(t), rows) & want[1]
            assert np.array_equal(out.valid, fitted)
            got = (out.components, out.n_components, out.explained, out.rank_flagged)
            for g, r in zip(got, want[:1] + want[2:]):
                assert np.array_equal(g[fitted], r[fitted])


def test_pca_no_lookahead(rng):
    x = rng.normal(size=(30, 3))
    base = rolling_pca(x, window=8, variance_target=0.8, **every_row(x))
    x2 = x.copy()
    x2[20] += 50.0
    pert = rolling_pca(x2, window=8, variance_target=0.8, **every_row(x2))
    assert np.array_equal(base.components[:20], pert.components[:20])
    assert np.array_equal(base.n_components[:20], pert.n_components[:20])
    assert np.array_equal(base.valid[:20], pert.valid[:20])


def test_pca_validation_errors(rng):
    rows = every_row(np.zeros(20))
    with pytest.raises(ConfigError):
        rolling_pca(rng.normal(size=(20, 4)), window=4, variance_target=0.8, **rows)
    with pytest.raises(ConfigError):
        rolling_pca(rng.normal(size=(20, 2)), window=5, variance_target=1.5, **rows)
    with pytest.raises(DataError):
        rolling_pca(rng.normal(size=20), window=5, variance_target=0.8, **rows)


# ---------------------------------------------------------------------------
# End-to-end refinement


def test_refine_features_warmup_and_shape(rng):
    t = 40
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, t)))
    metrics = {f"m{i}": rng.normal(size=t) for i in range(3)}
    frame = make_frame(closes, metrics)
    refined = refine_features(frame, sorted(metrics), norm_window=5, pca_window=6, variance_target=0.8, epsilon=1e-8,
                              rows=np.arange(t))
    assert len(refined) == t
    assert refined.c_max == 3
    first_valid = (5 - 1) + (6 - 1)
    assert not refined.valid[:first_valid].any()
    assert refined.valid[first_valid:].all()
    assert np.array_equal(refined.timestamps, frame.timestamps)


@pytest.mark.parametrize("chunk", [7, 256])
def test_refine_features_at_rows_equals_whole_frame_refine(rng, monkeypatch, chunk):
    """Refining only the rows to be read fits exactly those the whole-frame
    refine fits among them, to the same bits; every other row is invalid."""
    monkeypatch.setattr(refinery, "_PCA_CHUNK", chunk)
    monkeypatch.setattr(refinery, "_COV_CHUNK", 3)
    t, nw, pw = 120, 5, 8  # a row's windows reach back nw + pw - 2 = 11 rows
    metrics = {f"m{i}": rng.normal(size=t) * (i + 1) for i in range(3)}
    metrics["m2"][90:100] = 1.5
    frame = make_frame(100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, t))), metrics)
    names = ["m2", "m0", "m1"]
    whole = refine_features(frame, names, nw, pw, 0.8, 1e-8, np.arange(t))
    assert np.array_equal(whole.valid, np.arange(t) >= nw + pw - 2)
    # gaps shorter and longer than the warm-up, spans that start inside it,
    # many short spans, unsorted rows, one row, none, and every row
    for rows in ([30, 35], [30, 60], [5, 20], [0, 11, 12], np.arange(40, 119, 3), [3, 110, 40], [119], [],
                 np.arange(t)):
        rows = np.asarray(rows, dtype=np.intp)
        part = refine_features(frame, names, nw, pw, 0.8, 1e-8, rows)
        fitted = np.isin(np.arange(t), rows) & whole.valid
        assert np.array_equal(part.valid, fitted)
        for name in ("components", "n_components", "explained", "rank_flagged"):
            assert np.array_equal(getattr(part, name)[fitted], getattr(whole, name)[fitted]), name
        assert np.array_equal(part.timestamps, frame.timestamps) and part.c_max == whole.c_max


def test_window_rows_covers_each_trailing_window():
    assert refinery.window_rows([4, 5, 12], 3, 14).tolist() == [2, 3, 4, 5, 10, 11, 12]
    assert refinery.window_rows([1, 20], 4, 10).tolist() == [0, 1]
    assert refinery.window_rows([], 4, 10).tolist() == []
    assert refinery.window_rows([0], 4, 0).tolist() == []


def test_refine_features_missing_metric(rng):
    frame = make_frame(np.linspace(100, 120, 30), {"m0": rng.normal(size=30)})
    with pytest.raises(DataError, match="absent"):
        refine_features(frame, ["m0", "absent"], norm_window=4, pca_window=5, variance_target=0.8, epsilon=1e-8,
                        rows=np.arange(30))
