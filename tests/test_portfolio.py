"""Tests for vote composition, fee accounting, registry, backtests, retraining."""

import itertools
import json
import math
import os
import shutil
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainfolio import cli, portfolio
from chainfolio.config import RunConfig
from chainfolio.cryptomodule import (
    CmSettings,
    CryptoModule,
    DataRanges,
    derive_seed,
    save_cm,
    train_cm,
    with_seed,
)
from chainfolio.datastore import AssetId, CsvStore
from chainfolio.errors import ChainfolioError, ConfigError, DataError
from chainfolio.metrics import stats_csv, summarize, write_curves_csv
from chainfolio.portfolio import (
    BacktestConfig,
    BacktestReport,
    CmRegistry,
    REPORT_FILE,
    rebalance,
    retrain_boundaries,
    retrain_module,
    run_backtest,
    vote_weights,
)
from chainfolio.refinery import HorizonConfig, refine_features, select_valid_metrics
from chainfolio.rlcore.network import QNetwork
from chainfolio.rlcore.training import TrainConfig

from _synth import INTERVAL, bar_ts, make_asset, race
from test_cryptomodule import _JSON, _json_paths


def bt_config(assets, start_ts, end_ts, **changes) -> BacktestConfig:
    """The default run's BacktestConfig over a range, with ``changes``."""
    return replace(RunConfig().backtest_config(assets, start_ts, end_ts), **changes)


CASH, CRYPTO = 0, 1


# ---------------------------------------------------------------------------
# Vote averaging


def test_vote_weights_three_modules_exact():
    w = vote_weights([CRYPTO, CASH, CRYPTO])
    assert w.tolist() == [1 / 3, 0.0, 1 / 3, 1 / 3]
    assert w.sum() == 1.0


def test_vote_weights_single_module():
    assert vote_weights([CRYPTO]).tolist() == [1.0, 0.0]
    assert vote_weights([CASH]).tolist() == [0.0, 1.0]


def test_vote_weights_equal_exact_fractions_bit_for_bit():
    """Every vote pattern with m <= 10: each weight is the float of the exact
    rational k/m (and (m - sum k)/m for cash)."""
    patterns = 0
    for m in range(1, 11):
        for votes in itertools.product((CASH, CRYPTO), repeat=m):
            oracle = [float(Fraction(k, m)) for k in votes] + [float(Fraction(m - sum(votes), m))]
            got = vote_weights(np.array(votes))
            assert got.dtype == np.float64 and got.tolist() == oracle
            patterns += 1
    assert patterns == 2046


# ---------------------------------------------------------------------------
# Rebalancing arithmetic


def value_of(units, cash, prices) -> float:
    return cash + float(np.dot(units, prices))


def test_rebalance_noop_charges_nothing():
    units, cash, event = rebalance(1000.0, [0.25, 0.25, 0.5], [0.25, 0.25, 0.5], [10.0, 20.0], 0.001, ts=5)
    assert event.turnover == 0.0 and event.fee == 0.0
    assert event.post_value == 1000.0
    assert units.tolist() == [25.0, 12.5]
    assert cash == 500.0
    assert value_of(units, cash, [10.0, 20.0]) == pytest.approx(1000.0, abs=1e-12)
    assert event.ts == 5


def test_rebalance_full_entry_pays_full_turnover():
    units, cash, event = rebalance(10_000.0, [0.0, 1.0], vote_weights([CRYPTO]), [250.0], 0.001, ts=0)
    assert event.turnover == 1.0
    assert event.fee == pytest.approx(10.0, abs=1e-9)
    assert event.post_value == pytest.approx(9_990.0, abs=1e-9)
    assert cash == 0.0
    assert units[0] == pytest.approx(9_990.0 / 250.0, abs=1e-12)


def test_rebalance_zero_fee_preserves_value(rng):
    for _ in range(20):
        raw = rng.dirichlet(np.ones(3))
        prices = rng.uniform(1, 100, size=2)
        units, cash, event = rebalance(5000.0, raw, [1 / 3, 1 / 6, 1 / 2], prices, 0.0, ts=0)
        assert event.fee == 0.0
        assert event.post_value == 5000.0
        assert value_of(units, cash, prices) == pytest.approx(5000.0, abs=1e-9)


def test_rebalance_fee_cannot_consume_value():
    # flipping fully from one asset to the other doubles the turnover
    with pytest.raises(ConfigError):
        rebalance(100.0, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [10.0, 10.0], 0.6, ts=0)  # turnover 2 at 60%


def test_rebalance_validation():
    half = [0.5, 0.5]
    with pytest.raises(DataError, match="value must be positive"):
        rebalance(0.0, [0.0, 1.0], half, [10.0], 0.001, ts=0)
    with pytest.raises(DataError):
        rebalance(100.0, [0.0, 1.0], half, [10.0, 20.0], 0.001, ts=0)
    with pytest.raises(DataError, match="positive price"):
        rebalance(100.0, [0.0, 1.0], half, [-1.0], 0.001, ts=0)
    with pytest.raises(DataError):
        rebalance(100.0, [0.0, 0.5, 0.5], half, [10.0], 0.001, ts=0)
    # the target: one weight per asset plus cash, nonnegative, summing to 1
    for bad in ([1.0], vote_weights([CASH, CRYPTO]), [0.5, 1 / 3], [-0.25, 1.25], [0.5, 0.5 + 2e-12]):
        with pytest.raises(DataError):
            rebalance(100.0, [0.0, 1.0], bad, [10.0], 0.001, ts=0)
    rebalance(100.0, [0.0, 1.0], [0.4, 0.6 + 5e-13], [10.0], 0.001, ts=0)  # within 1e-12 of 1


# ---------------------------------------------------------------------------
# Fixtures: stores, stub modules, rigged real modules


class ForcedModule:
    """Engine-protocol stub that plays a scripted allocation policy."""

    def __init__(self, policy, interval=INTERVAL):
        self.policy = policy
        self.interval = interval
        self.warmup_bars = 0

    def prepare(self, frame, rows):
        return frame

    def allocate(self, frame, t):
        return self.policy(frame, t)


def always(action):
    return ForcedModule(lambda frame, t: action)


def flip_every(k_bars):
    return ForcedModule(lambda frame, t: CRYPTO if (t // k_bars) % 2 == 0 else CASH)


def seed_store(tmp_path, symbols, n_bars=40, base_seed=11):
    store = CsvStore(tmp_path / "data")
    keys = []
    for i, sym in enumerate(symbols):
        asset = make_asset(store, sym, n_bars, seed=base_seed + i, n_signal=1, n_noise=2)
        keys.append(asset.key)
    return store, keys


def rigged_cm(symbol, bias, seed=0):
    """Real module whose allocation net returns the bias vector exactly."""
    settings = CmSettings(
        horizon=HorizonConfig(horizons=(1, 2, 3), top_per_group=2, final_count=2),
        norm_window=4,
        pca_window=5,
        window=5,
        train=TrainConfig(seed=seed),
    )
    net = QNetwork("sam-4layer", (7, 1, 5), seed)
    net.layers[-1].w[...] = 0.0
    net.layers[-1].b[...] = np.asarray(bias, dtype=np.float64)
    return CryptoModule(
        asset=AssetId(symbol),
        sam_net=net,
        eam_net=None,
        selected_metrics=["noise_00", "noise_01"],
        settings=settings,
        ranges=DataRanges((bar_ts(0), bar_ts(10)), (bar_ts(11), bar_ts(20))),
        interval=INTERVAL,
    )


def simulate(closes: dict, policies: dict, capital, fee_rate, every):
    """Independent scalar-arithmetic oracle for the backtest loop: each bar
    is marked before its trade."""
    keys = list(closes)
    n = len(closes[keys[0]])
    units = {a: 0.0 for a in keys}
    cash = capital
    curve = []
    m = len(keys)
    for k in range(n):
        prices = {a: float(closes[a][k]) for a in keys}
        value = cash + sum(units[a] * prices[a] for a in keys)
        curve.append(value)
        if k % every == 0:
            target = {a: policies[a](k) / m for a in keys}
            turnover = sum(abs(target[a] - units[a] * prices[a] / value) for a in keys)
            fee = fee_rate * turnover * value
            post = value - fee
            units = {a: target[a] * post / prices[a] for a in keys}
            cash = (1.0 - sum(target.values())) * post
    return np.array(curve)


# ---------------------------------------------------------------------------
# Module registry


def test_registry_add_load_remove(tmp_path):
    cm = rigged_cm("AAA", [1.0, 0.0])
    src = tmp_path / "fresh.cm"
    save_cm(cm, src)
    reg = CmRegistry(tmp_path / "reg")
    key = reg.add(src)
    assert key == "AAA-USDT"
    assert "AAA-USDT" in reg and reg.assets() == ["AAA-USDT"]
    assert (tmp_path / "reg" / "AAA-USDT.cm").exists()
    loaded = reg.load("AAA-USDT")
    assert np.array_equal(loaded.sam_net.params, cm.sam_net.params)
    assert reg.status() == [("AAA-USDT", "AAA-USDT.cm", "ok")]
    reg.remove("AAA")
    assert "AAA-USDT" not in reg
    assert not (tmp_path / "reg" / "AAA-USDT.cm").exists()


def test_registry_duplicate_and_wrong_asset(tmp_path):
    src = tmp_path / "fresh.cm"
    save_cm(rigged_cm("AAA", [1.0, 0.0]), src)
    reg = CmRegistry(tmp_path / "reg")
    reg.add(src)
    with pytest.raises(ConfigError, match="already registered"):
        reg.add(src)
    with pytest.raises(ConfigError, match="AAA-USDT"):
        reg.add(src, asset="BBB-USDT")
    with pytest.raises(ConfigError):
        reg.remove("CCC-USDT")
    with pytest.raises(ConfigError):
        reg.load("CCC-USDT")


def test_registry_detects_tampering(tmp_path):
    src = tmp_path / "fresh.cm"
    save_cm(rigged_cm("AAA", [1.0, 0.0]), src)
    reg = CmRegistry(tmp_path / "reg")
    reg.add(src)
    stored = tmp_path / "reg" / "AAA-USDT.cm"
    blob = bytearray(stored.read_bytes())
    blob[-1] ^= 0x01
    stored.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="changed since registration"):
        reg.load("AAA-USDT")
    asset, file, state = reg.status()[0]
    assert state.startswith("error:")


def test_registry_reads_each_file_once(tmp_path, monkeypatch):
    """A writer that replaces the file between validation and copy (add), or
    between hashing and decoding (load), changes nothing: the bytes
    validated are the bytes copied and hashed, and the bytes hashed are the
    bytes decoded."""
    src, other = tmp_path / "fresh.cm", tmp_path / "other.cm"
    save_cm(rigged_cm("AAA", [1.0, 0.0]), src)
    save_cm(rigged_cm("BBB", [0.0, 1.0]), other)
    validated = src.read_bytes()
    real_load_cm = portfolio.load_cm

    def load_then_replace(path, *args):
        cm = real_load_cm(path, *args)
        shutil.copyfile(other, path)
        return cm

    monkeypatch.setattr(portfolio, "load_cm", load_then_replace)
    reg = CmRegistry(tmp_path / "reg")
    assert reg.add(src) == "AAA-USDT"
    stored = tmp_path / "reg" / "AAA-USDT.cm"
    assert stored.read_bytes() == validated
    assert src.read_bytes() == other.read_bytes()

    def replace_then_load(path, *args):
        shutil.copyfile(other, path)
        return real_load_cm(path, *args)

    monkeypatch.setattr(portfolio, "load_cm", replace_then_load)
    assert reg.load("AAA-USDT").asset.key == "AAA-USDT"


#: a child process that registers each module file it is given, each through
#: a fresh CmRegistry, once its parent says go
REGISTRY_RACER = """
import sys
from chainfolio.portfolio import CmRegistry
root, *files = sys.argv[1:]
print("ready", flush=True)
sys.stdin.readline()
for path in files:
    CmRegistry(root).add(path)
"""


@pytest.fixture(scope="module")
def racing_modules(tmp_path_factory):
    """40 module files, for assets P0..P19 and Q0..Q19."""
    root = tmp_path_factory.mktemp("racing_modules")
    paths = {prefix: [root / f"{prefix}{i}.cm" for i in range(20)] for prefix in "PQ"}
    for path in paths["P"] + paths["Q"]:
        save_cm(rigged_cm(path.stem, [1.0, 0.0]), path)
    return paths


@pytest.mark.parametrize("round_", range(3))
def test_concurrent_adds_from_two_processes_keep_every_entry(tmp_path, racing_modules, round_):
    """Two processes register 20 modules each into one registry, starting
    together; every entry must be listed (each add is a read-modify-write
    of the index)."""
    registry = tmp_path / "reg"
    race(REGISTRY_RACER, [[str(registry), *map(str, paths)] for paths in racing_modules.values()])
    keys = sorted(f"{p}{i}-USDT" for p in "PQ" for i in range(20))
    assert CmRegistry(registry).assets() == keys
    assert CmRegistry(registry).status() == [(key, f"{key}.cm", "ok") for key in keys]


def test_registry_persistence_and_readd(tmp_path):
    src = tmp_path / "fresh.cm"
    save_cm(rigged_cm("AAA", [0.0, 1.0], seed=3), src)
    reg = CmRegistry(tmp_path / "reg")
    reg.add(src)
    reopened = CmRegistry(tmp_path / "reg")
    assert reopened.assets() == ["AAA-USDT"]
    first = reopened.load("AAA-USDT").sam_net.params
    reopened.remove("AAA-USDT")
    reopened.add(src)
    assert np.array_equal(reopened.load("AAA-USDT").sam_net.params, first)


# ---------------------------------------------------------------------------
# Backtests with forced policies


def test_backtest_config_validation():
    with pytest.raises(ConfigError):
        bt_config(assets=(), start_ts=0, end_ts=100)
    with pytest.raises(ConfigError):
        bt_config(assets=("AAA", "AAA-USDT"), start_ts=0, end_ts=100)
    with pytest.raises(ConfigError):
        bt_config(assets=("AAA",), start_ts=100, end_ts=100)
    with pytest.raises(ConfigError):
        bt_config(assets=("AAA",), start_ts=0, end_ts=100, fee_rate=0.1)
    with pytest.raises(ConfigError):
        bt_config(assets=("AAA",), start_ts=0, end_ts=100, rebalance_interval=0)
    with pytest.raises(ConfigError):
        bt_config(assets=("AAA",), start_ts=0, end_ts=100, retrain_days=-1)
    with pytest.raises(ConfigError):
        bt_config(assets=("AAA",), start_ts=0, end_ts=100, initial_capital=0.0)
    with pytest.raises(ConfigError, match="must divide one day"):
        bt_config(assets=("AAA",), start_ts=0, end_ts=100, interval=25200)


def test_backtest_always_cash_is_flat(tmp_path):
    store, keys = seed_store(tmp_path, ["AAA", "BBB"])
    cfg = bt_config(assets=keys, start_ts=bar_ts(0), end_ts=bar_ts(30), fee_rate=0.005)
    report = run_backtest({k: always(CASH) for k in keys}, cfg, store)
    assert np.array_equal(report.curves["strategy"], np.full(31, 10_000.0))
    assert all(e.fee == 0.0 for e in report.events)
    assert all(a == "cash" for log in report.action_logs.values() for _, a in log)
    assert report.summary["strategy"].arr == 0.0


def test_backtest_single_crypto_zero_fee_tracks_baseline(tmp_path):
    store, keys = seed_store(tmp_path, ["AAA"])
    cfg = bt_config(assets=keys, start_ts=bar_ts(0), end_ts=bar_ts(30), fee_rate=0.0)
    report = run_backtest({keys[0]: always(CRYPTO)}, cfg, store)
    baseline = report.curves["baseline_AAA"]
    assert np.allclose(report.curves["strategy"], baseline, rtol=1e-9, atol=0)
    assert report.events[0].turnover == 1.0


def test_backtest_matches_independent_simulator(tmp_path):
    store, keys = seed_store(tmp_path, ["AAA", "BBB"])
    cfg = bt_config(assets=keys, start_ts=bar_ts(0), end_ts=bar_ts(30), fee_rate=0.0)
    report = run_backtest({k: always(CRYPTO) for k in keys}, cfg, store)
    closes = {
        k: store.align(AssetId.parse(k), cfg.start_ts, cfg.end_ts, INTERVAL, fill_limit=4).close for k in keys
    }
    oracle = simulate(closes, {k: (lambda k_: 1) for k in keys}, 10_000.0, 0.0, 1)
    assert np.allclose(report.curves["strategy"], oracle, rtol=1e-12, atol=0)


def test_backtest_with_fees_and_sparse_rebalance_matches_simulator(tmp_path):
    store, keys = seed_store(tmp_path, ["AAA", "BBB"])
    cfg = bt_config(
        assets=keys, start_ts=bar_ts(0), end_ts=bar_ts(33),
        fee_rate=0.002, rebalance_interval=3,
    )
    modules = {keys[0]: flip_every(3), keys[1]: flip_every(6)}
    report = run_backtest(modules, cfg, store)
    closes = {
        k: store.align(AssetId.parse(k), cfg.start_ts, cfg.end_ts, INTERVAL, fill_limit=4).close for k in keys
    }
    policies = {
        keys[0]: lambda t: 1 if (t // 3) % 2 == 0 else 0,
        keys[1]: lambda t: 1 if (t // 6) % 2 == 0 else 0,
    }
    oracle = simulate(closes, policies, 10_000.0, 0.002, 3)
    assert np.allclose(report.curves["strategy"], oracle, rtol=1e-12, atol=1e-9)
    # decisions only every third bar, and none at the last bar, 33
    assert len(report.action_logs[keys[0]]) == 11
    decision_ts = [e.ts for e in report.events]
    assert decision_ts == [bar_ts(3 * i) for i in range(11)]
    for e in report.events:
        k = (e.ts - cfg.start_ts) // INTERVAL
        assert report.curves["strategy"][k] == e.pre_value


def test_backtest_makes_no_decision_at_the_last_bar(tmp_path):
    """A trade at the last bar would show in no curve, so at interval 1 the
    decision bars are all but the last: events and action logs stop one bar
    short, and the curve and summary equal those of the simulator, which
    also trades at the last bar.  A one-bar range still has no curve."""
    store, keys = seed_store(tmp_path, ["AAA", "BBB"])
    cfg = bt_config(assets=keys, start_ts=bar_ts(0), end_ts=bar_ts(20), fee_rate=0.002)
    report = run_backtest({keys[0]: flip_every(1), keys[1]: flip_every(2)}, cfg, store)
    decision_ts = [bar_ts(k) for k in range(20)]
    assert [e.ts for e in report.events] == decision_ts
    assert all([ts for ts, _ in report.action_logs[k]] == decision_ts for k in keys)
    closes = {
        k: store.align(AssetId.parse(k), cfg.start_ts, cfg.end_ts, INTERVAL, fill_limit=4).close for k in keys
    }
    policies = {keys[0]: lambda t: 1 - t % 2, keys[1]: lambda t: 1 - (t // 2) % 2}
    oracle = simulate(closes, policies, 10_000.0, 0.002, 1)
    assert np.allclose(report.curves["strategy"], oracle, rtol=1e-12, atol=0)
    expect = summarize(report.timestamps, oracle)
    got = report.summary["strategy"]
    assert (got.arr, got.drr, got.sortino) == pytest.approx((expect.arr, expect.drr, expect.sortino), rel=1e-9)
    with pytest.raises(DataError, match="at least 2 points"):
        run_backtest({k: flip_every(1) for k in keys}, replace(cfg, end_ts=cfg.start_ts + 1), store)


def test_backtest_entry_fee_counts_in_the_strategy_metrics(tmp_path):
    """Buying at bar 0 and holding: the curve starts at the capital, so the
    strategy's ARR is (1 - fee) * P_end / P_0 - 1, and the baseline's has no fee."""
    store, keys = seed_store(tmp_path, ["AAA"])
    fee = 0.001
    cfg = bt_config(assets=keys, start_ts=bar_ts(0), end_ts=bar_ts(30), fee_rate=fee, rebalance_interval=100_000)
    report = run_backtest({keys[0]: always(CRYPTO)}, cfg, store)
    closes = store.align(AssetId.parse(keys[0]), cfg.start_ts, cfg.end_ts, INTERVAL, fill_limit=4).close
    assert report.curves["strategy"][0] == cfg.initial_capital
    assert [e.fee for e in report.events] == [pytest.approx(fee * cfg.initial_capital, rel=1e-12)]
    assert report.summary["strategy"].arr == pytest.approx((1.0 - fee) * closes[-1] / closes[0] - 1.0, abs=1e-12)
    assert report.summary["baseline_AAA"].arr == pytest.approx(closes[-1] / closes[0] - 1.0, abs=1e-12)


def test_backtest_fee_monotonicity(tmp_path):
    store, keys = seed_store(tmp_path, ["AAA"])
    finals = []
    for fee in (0.0, 0.0005, 0.001, 0.005):
        cfg = bt_config(assets=keys, start_ts=bar_ts(0), end_ts=bar_ts(30), fee_rate=fee)
        report = run_backtest({keys[0]: flip_every(2)}, cfg, store)
        finals.append(report.curves["strategy"][-1])
    assert all(a > b for a, b in zip(finals, finals[1:]))


def test_backtest_baseline_arr_identity(tmp_path):
    store, keys = seed_store(tmp_path, ["AAA"])
    cfg = bt_config(assets=keys, start_ts=bar_ts(0), end_ts=bar_ts(30))
    report = run_backtest({keys[0]: always(CASH)}, cfg, store)
    closes = store.align(AssetId.parse(keys[0]), cfg.start_ts, cfg.end_ts, INTERVAL, fill_limit=4).close
    expect = closes[-1] / closes[0] - 1.0
    assert report.summary["baseline_AAA"].arr == pytest.approx(expect, abs=1e-12)


def test_backtest_curve_order_and_returns(tmp_path):
    store, keys = seed_store(tmp_path, ["BBB", "AAA"])
    cfg = bt_config(assets=keys, start_ts=bar_ts(0), end_ts=bar_ts(20))
    report = run_backtest({k: always(CRYPTO) for k in keys}, cfg, store)
    assert list(report.curves) == ["strategy", "baseline_BBB", "baseline_AAA"]
    strategy = report.curves["strategy"]
    assert np.allclose(report.returns, strategy[1:] / strategy[:-1] - 1.0, atol=1e-15)
    assert np.array_equal(
        report.timestamps, cfg.start_ts + INTERVAL * np.arange(21, dtype=np.int64)
    )


def test_backtest_missing_module_and_interval_mismatch(tmp_path):
    store, keys = seed_store(tmp_path, ["AAA", "BBB"])
    cfg = bt_config(assets=keys, start_ts=bar_ts(0), end_ts=bar_ts(20))
    with pytest.raises(ConfigError, match="BBB-USDT"):
        run_backtest({keys[0]: always(CASH)}, cfg, store)
    with pytest.raises(ConfigError, match="AAA-USDT, BBB-USDT"):
        run_backtest({}, cfg, store)
    bad = {keys[0]: always(CASH), keys[1]: ForcedModule(lambda f, t: CASH, interval=INTERVAL * 2)}
    with pytest.raises(ConfigError, match="interval"):
        run_backtest(bad, cfg, store)


def test_backtest_through_registry_with_real_module(tmp_path):
    store, keys = seed_store(tmp_path, ["AAA"])
    cm = rigged_cm("AAA", [0.5, 1.0])  # always crypto
    save_cm(cm, tmp_path / "aaa.cm")
    reg = CmRegistry(tmp_path / "reg")
    reg.add(tmp_path / "aaa.cm")
    cfg = bt_config(assets=keys, start_ts=bar_ts(12), end_ts=bar_ts(30), fee_rate=0.0)
    report = run_backtest({keys[0]: reg.load(keys[0])}, cfg, store)
    assert np.allclose(report.curves["strategy"], report.curves["baseline_AAA"], rtol=1e-9)


# ---------------------------------------------------------------------------
# Report round trip


#: ``report/report.json``, written by :func:`fixture_report`; rewritten
#: once, when the strategy curve began marking each bar before its trade.
REPORT_FIXTURE = Path(__file__).parent / "fixtures" / "report"


def fixture_report(tmp_path) -> BacktestReport:
    """A fee-paying two-asset backtest whose curves are not in name order and
    whose BBB baseline only rises, so its Sortino ratio is infinite."""
    store = CsvStore(tmp_path / "data")
    make_asset(store, "BBB", 40, seed=5, n_signal=1, n_noise=2, drift=0.01, vol=0.0)
    make_asset(store, "AAA", 40, seed=6, n_signal=1, n_noise=2)
    cfg = bt_config(
        assets=("BBB-USDT", "AAA-USDT"), start_ts=bar_ts(0), end_ts=bar_ts(25),
        fee_rate=0.001, rebalance_interval=2,
    )
    return run_backtest({"BBB-USDT": always(CRYPTO), "AAA-USDT": flip_every(4)}, cfg, store)


def test_report_write_and_load_round_trip(tmp_path):
    report = fixture_report(tmp_path)
    out = tmp_path / "out"
    report.write(out)
    assert (out / "report.json").exists() and (out / "curves.csv").exists()
    header = (out / "curves.csv").read_text().splitlines()[0]
    assert header == "ts,strategy_value,baseline_BBB_value,baseline_AAA_value"
    loaded = BacktestReport.load(out)
    assert loaded.to_doc() == report.to_doc()
    assert loaded.timestamps.dtype == np.int64
    assert np.array_equal(loaded.timestamps, report.timestamps)
    assert list(loaded.curves) == list(loaded.summary) == ["strategy", "baseline_BBB", "baseline_AAA"]
    assert loaded.summary["baseline_BBB"].sortino == math.inf
    assert loaded.summary == report.summary


def test_report_fixture_bytes_are_pinned(tmp_path):
    """The pinned report is what this backtest writes, and loading and
    rewriting it gives back the same bytes."""
    pinned = (REPORT_FIXTURE / REPORT_FILE).read_bytes()
    fixture_report(tmp_path).write(tmp_path / "run")
    BacktestReport.load(REPORT_FIXTURE).write(tmp_path / "rewritten")
    assert (tmp_path / "run" / REPORT_FILE).read_bytes() == pinned
    assert (tmp_path / "rewritten" / REPORT_FILE).read_bytes() == pinned


def test_report_bytes_are_reproducible(tmp_path):
    store, keys = seed_store(tmp_path, ["AAA"])
    cfg = bt_config(assets=keys, start_ts=bar_ts(0), end_ts=bar_ts(20), fee_rate=0.002)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_backtest({keys[0]: flip_every(2)}, cfg, store).write(out1)
    run_backtest({keys[0]: flip_every(2)}, cfg, store).write(out2)
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()


# ---------------------------------------------------------------------------
# Damaged JSON artifacts


@pytest.fixture(scope="module")
def json_artifacts(tmp_path_factory):
    """A registry of two modules and a backtest report as the program writes
    them, and a scratch directory that each example overwrites."""
    root = tmp_path_factory.mktemp("json_fuzz")
    registry = CmRegistry(root / "registry")
    for symbol in ("AAA", "BBB"):
        save_cm(rigged_cm(symbol, [1.0, 0.0]), root / f"{symbol}.cm")
        registry.add(root / f"{symbol}.cm")
    store, keys = seed_store(root, ["AAA"])
    cfg = bt_config(assets=keys, start_ts=bar_ts(0), end_ts=bar_ts(6), rebalance_interval=2)
    run_backtest({keys[0]: flip_every(2)}, cfg, store).write(root / "report")
    return root


def damaged_json(data, blob: bytes, values=_JSON) -> bytes:
    """JSON text ``blob`` truncated, byte-flipped, or with one value (picked
    under a top-level key first) replaced by one of ``values`` or deleted."""
    damage = data.draw(st.sampled_from(["truncate", "flip", "value"]))
    if damage == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1))]
    if damage == "flip":
        damaged = bytearray(blob)
        for at, mask in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)),
                                           min_size=1, max_size=4)):
            damaged[at] ^= mask
        return bytes(damaged)
    doc = json.loads(blob)
    top = data.draw(st.sampled_from(sorted(doc)))
    path = data.draw(st.sampled_from([(), *_json_paths(doc[top], (top,))]))
    if not path:
        doc = data.draw(values)
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(values)
    return json.dumps(doc).encode()


#: module file names a damaged registry entry might hold
FILE_NAMES = ["", ".", "..", "../victim.cm", "BBB-USDT.cm", "registry.json"]


@settings(max_examples=400)  # about one example in a hundred puts a file name into an entry
@given(data=st.data())
def test_damaged_registry_index_raises_only_typed_errors(json_artifacts, data):
    """Loading, listing and removing through a damaged registry.json either
    work or raise a ChainfolioError, and touch nothing outside the registry."""
    registry = json_artifacts / "scratch" / "registry"
    shutil.rmtree(registry.parent, ignore_errors=True)
    shutil.copytree(json_artifacts / "registry", registry)
    (registry.parent / "victim.cm").write_text("not the registry's")
    index = registry / "registry.json"
    index.write_bytes(damaged_json(data, index.read_bytes(), st.sampled_from(FILE_NAMES) | _JSON))
    try:
        reg = CmRegistry(registry)
        reg.status()
    except ChainfolioError:
        return
    for asset in ("AAA", "BBB-USDT", "CCC"):
        try:
            reg.remove(asset)
        except ChainfolioError:
            pass
    assert sorted(path.name for path in registry.parent.iterdir()) == ["registry", "victim.cm"]


@given(data=st.data())
def test_damaged_report_raises_only_typed_errors(json_artifacts, data):
    """A damaged report.json either loads and renders in both formats or
    raises a ChainfolioError."""
    out = json_artifacts / "scratch" / "report"
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_bytes(damaged_json(data, (json_artifacts / "report" / "report.json").read_bytes()))
    try:
        report = BacktestReport.load(out)
        report.table()
        stats_csv(report.summary)
    except ChainfolioError:
        pass


# ---------------------------------------------------------------------------
# Scheduled retraining


def test_retrain_boundaries_examples():
    day = 86_400
    assert retrain_boundaries(0, 100 * day, 50) == [50 * day]
    assert retrain_boundaries(0, 100 * day, 0) == []
    assert retrain_boundaries(0, 2 * day, 1) == [day]          # end excluded
    assert retrain_boundaries(0, 90 * day, 30) == [30 * day, 60 * day]


SMALL = CmSettings(
    horizon=HorizonConfig(horizons=(1, 2, 3), top_per_group=2, final_count=3),
    norm_window=8,
    pca_window=12,
    window=8,
    buffer_capacity=512,
    eval_interval=100,
    train=TrainConfig(
        gamma=0.5, lr=1e-3, batch=8, target_sync=50,
        eps_decay_steps=150, max_steps=150, seed=7,
    ),
)

TRAIN_RANGES = DataRanges((bar_ts(0), bar_ts(99)), (bar_ts(100), bar_ts(139)))


def trained_world(tmp_path):
    store = CsvStore(tmp_path / "data")
    asset = make_asset(store, "AAA", 240, seed=3, n_signal=1, n_noise=2)
    cm = train_cm(store, asset, TRAIN_RANGES, SMALL, use_eam=False, interval=INTERVAL, fill_limit=4)
    return store, asset, cm


def test_retrain_module_expands_windows_deterministically(tmp_path):
    store, asset, cm = trained_world(tmp_path)
    assert retrain_boundaries(bar_ts(160), bar_ts(223), 8) == [bar_ts(192)]
    boundary = bar_ts(192)
    fresh = retrain_module(cm, store, boundary, fill_limit=4)
    val_span = TRAIN_RANGES.validation[1] - TRAIN_RANGES.validation[0]
    assert fresh.ranges.validation == (boundary - val_span, boundary)
    assert fresh.ranges.train == (TRAIN_RANGES.train[0], boundary - val_span - INTERVAL)
    # the retrained module records the seed the boundary derived from the original's
    assert fresh.settings == with_seed(cm.settings, derive_seed(cm.settings.train.seed, asset.key, boundary))
    p1, p2 = tmp_path / "m1.cm", tmp_path / "m2.cm"
    save_cm(fresh, p1)
    save_cm(retrain_module(cm, store, boundary, fill_limit=4), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert not np.array_equal(fresh.sam_net.params, cm.sam_net.params)


def test_backtest_retrain_cadence_half_range_fires_once(tmp_path):
    store, asset, cm = trained_world(tmp_path)
    base_cfg = dict(assets=[asset.key], start_ts=bar_ts(160), end_ts=bar_ts(223), fee_rate=0.001)
    static = run_backtest({asset.key: cm}, bt_config(**base_cfg), store)
    assert static.retrain_events == []
    cfg = bt_config(**base_cfg, retrain_days=8)
    report = run_backtest({asset.key: cm}, cfg, store)
    assert report.retrain_events == [
        {"ts": bar_ts(192), "asset": "AAA-USDT", "status": "retrained"}
    ]
    # identical decisions and values strictly before the boundary
    cut = (bar_ts(192) - cfg.start_ts) // INTERVAL
    assert report.action_logs[asset.key][:cut] == static.action_logs[asset.key][:cut]
    assert np.array_equal(report.curves["strategy"][:cut], static.curves["strategy"][:cut])


def trained_pair(tmp_path):
    """trained_world's store and module plus a second asset, BBB, and its module."""
    store, asset, cm = trained_world(tmp_path)
    other = make_asset(store, "BBB", 240, seed=4, n_signal=1, n_noise=2)
    other_cm = train_cm(store, other, TRAIN_RANGES, SMALL, use_eam=False, interval=INTERVAL, fill_limit=4)
    return store, {asset.key: cm, other.key: other_cm}


def test_backtest_preparing_query_rows_equals_preparing_whole_frames(tmp_path, monkeypatch):
    """Modules that refine and decide only the rows the backtest queries give
    the report bytes of modules that prepare the whole frame every time."""
    store, modules = trained_pair(tmp_path)
    aaa, bbb = modules
    cases = [
        # one asset at rebalance interval 6: both boundaries fall on decision bars
        (bt_config(assets=[aaa], start_ts=bar_ts(160), end_ts=bar_ts(223), fee_rate=0.001,
                   rebalance_interval=6, retrain_days=6), [184, 208]),
        # decision bars 160, 180 and 200: boundaries 168 and 176 take effect at
        # 180, 184 to 200 at 200, and 208 and 216 come after the last decision
        (bt_config(assets=[aaa, bbb], start_ts=bar_ts(160), end_ts=bar_ts(219), fee_rate=0.001,
                   rebalance_interval=20, retrain_days=2), [168, 176, 184, 192, 200]),
    ]
    for i, (cfg, boundaries) in enumerate(cases):
        queried = run_backtest(modules, cfg, store)
        assert queried.retrain_events == [
            {"ts": bar_ts(b), "asset": key, "status": "retrained"} for b in boundaries for key in cfg.assets
        ]
        assert {a for key in cfg.assets for _, a in queried.action_logs[key]} == {"cash", "crypto"}
        queried.write(tmp_path / f"queried{i}")
    prepare = CryptoModule.prepare
    monkeypatch.setattr(CryptoModule, "prepare", lambda self, frame, rows: prepare(self, frame, np.arange(len(frame))))
    for i, (cfg, _) in enumerate(cases):
        run_backtest(modules, cfg, store).write(tmp_path / f"whole{i}")
        assert (tmp_path / f"queried{i}" / REPORT_FILE).read_bytes() == (tmp_path / f"whole{i}" / REPORT_FILE).read_bytes()


def test_each_module_in_force_is_prepared_over_only_the_rows_it_decides(tmp_path, monkeypatch):
    """Decision bars 160, 180 and 200 with retrains taking effect at 180 and
    200: each asset's three modules are each prepared at their one bar."""
    store, modules = trained_pair(tmp_path)
    cfg = bt_config(assets=list(modules), start_ts=bar_ts(160), end_ts=bar_ts(219), fee_rate=0.001,
                    rebalance_interval=20, retrain_days=2)
    calls = []  # (module, context, rows prepared, rows allocated) per prepare call
    prepare, allocate = CryptoModule.prepare, CryptoModule.allocate

    def spy_prepare(self, frame, rows):
        ctx = prepare(self, frame, rows)
        calls.append((self, ctx, [int(r) for r in rows], []))
        return ctx

    def spy_allocate(self, ctx, t):
        next(call for call in calls if call[1] is ctx)[3].append(t)
        return allocate(self, ctx, t)

    monkeypatch.setattr(CryptoModule, "prepare", spy_prepare)
    monkeypatch.setattr(CryptoModule, "allocate", spy_allocate)
    report = run_backtest(modules, cfg, store)
    assert len(report.retrain_events) == 2 * 5
    assert [call[0] for call in calls[::3]] == list(modules.values())
    assert len({id(call[0]) for call in calls}) == 6
    for _, _, prepared, allocated in calls:
        assert prepared == allocated and len(prepared) == 1


def test_each_boundary_retrains_the_original_module(tmp_path, monkeypatch):
    """Boundaries 184 and 208 both take effect: the module in force after the
    second is the original module retrained at 208, whatever 184 gave."""
    store, asset, cm = trained_world(tmp_path)
    cfg = bt_config(assets=[asset.key], start_ts=bar_ts(160), end_ts=bar_ts(223), fee_rate=0.001,
                    rebalance_interval=6, retrain_days=6)
    in_force = []
    prepare = CryptoModule.prepare

    def spy_prepare(self, frame, rows):
        in_force.append(self)
        return prepare(self, frame, rows)

    monkeypatch.setattr(CryptoModule, "prepare", spy_prepare)
    report = run_backtest({asset.key: cm}, cfg, store)
    assert [ev["ts"] for ev in report.retrain_events] == [bar_ts(184), bar_ts(208)]
    assert len(in_force) == 3 and in_force[0] is cm
    save_cm(in_force[2], tmp_path / "in_force.cm")
    save_cm(retrain_module(cm, store, bar_ts(208), fill_limit=4), tmp_path / "direct.cm")
    assert (tmp_path / "in_force.cm").read_bytes() == (tmp_path / "direct.cm").read_bytes()
    assert in_force[2].sam_net.params.tobytes() != in_force[1].sam_net.params.tobytes()


def test_backtest_oversized_cadence_equals_static_run(tmp_path):
    store, asset, cm = trained_world(tmp_path)
    base_cfg = dict(assets=[asset.key], start_ts=bar_ts(160), end_ts=bar_ts(223))
    static = run_backtest({asset.key: cm}, bt_config(**base_cfg), store)
    lazy = run_backtest({asset.key: cm}, bt_config(**base_cfg, retrain_days=100), store)
    assert lazy.retrain_events == []
    assert np.array_equal(lazy.curves["strategy"], static.curves["strategy"])
    assert lazy.action_logs == static.action_logs


# ---------------------------------------------------------------------------
# Atomic artifact writes


def test_artifact_writes_that_fail_keep_the_previous_file(tmp_path, monkeypatch):
    store, keys = seed_store(tmp_path, ["AAA"])
    cfg = bt_config(assets=keys, start_ts=bar_ts(0), end_ts=bar_ts(20))
    report = run_backtest({keys[0]: always(CASH)}, cfg, store)
    out = tmp_path / "out"
    report.write(out)
    module = tmp_path / "m.cm"
    save_cm(rigged_cm("AAA", [0.5, 1.0]), module)
    reg = CmRegistry(tmp_path / "reg")
    reg.add(module)
    frame = store.align(AssetId.parse(keys[0]), bar_ts(0), bar_ts(39), INTERVAL, fill_limit=4)
    horizon = HorizonConfig(horizons=(1, 2, 3), top_per_group=2, final_count=2)
    selected = select_valid_metrics(frame, horizon)
    table, refined = tmp_path / "table.csv", tmp_path / "refined.csv"  # refine --table / --out
    cli._write_table_csv(str(table), selected.table)
    cli._write_refined_csv(str(refined), refine_features(frame, selected.names, 4, 5, 0.8, 1e-8, np.arange(len(frame))))
    artifacts = [out / "report.json", out / "curves.csv", module, reg.root / "registry.json", table, refined]
    before = {p: p.read_bytes() for p in artifacts}

    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    monkeypatch.setattr(os, "replace", interrupted)
    changed = run_backtest({keys[0]: always(CRYPTO)}, cfg, store)
    shorter = select_valid_metrics(frame.slice(bar_ts(0), bar_ts(30)), horizon)
    writes = [
        lambda: changed.write(out),
        lambda: write_curves_csv(out / "curves.csv", changed.timestamps, changed.curves),
        lambda: save_cm(rigged_cm("AAA", [1.0, 0.5]), module),
        lambda: reg.remove("AAA"),
        lambda: cli._write_table_csv(str(table), shorter.table),
        lambda: cli._write_refined_csv(str(refined), refine_features(frame, selected.names, 6, 8, 0.8, 1e-8, np.arange(len(frame)))),
    ]
    for write in writes:
        with pytest.raises(OSError, match="interrupted"):
            write()
    monkeypatch.undo()
    assert {p: p.read_bytes() for p in artifacts} == before
    leftovers = [p.name for d in (out, tmp_path, reg.root) for p in d.iterdir() if p.name.endswith(".tmp")]
    assert leftovers == []
