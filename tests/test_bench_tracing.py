"""The benchmark's traced mode still finds every name it wraps.

``bench/tracing.py`` patches chainfolio functions and methods by name; a
rename or a changed call pattern would silently zero its per-layer
metrics.  The file is loaded here read-only, outside the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from chainfolio import portfolio
from chainfolio.cryptomodule import train_cm_from_frame

from _synth import bar_ts
from test_cryptomodule import RANGES, SMALL, walk_frame
from test_portfolio import bt_config, trained_pair

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    if not TRACING.exists():
        pytest.skip("benchmark harness not present")
    spec = importlib.util.spec_from_file_location("chainfolio_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(tracing):
    for mod_name, attr, _ in tracing.FUNCTIONS + tracing.COUNTED:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)
    for mod_name, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert callable(cls.__dict__[attr]), (mod_name, cls_name, attr)


def test_traced_training_run_fills_the_rl_metrics(tracing, tmp_path, rng):
    frame = walk_frame(rng)
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        tracer.command_span("train-cm", lambda: train_cm_from_frame(frame, RANGES, SMALL, use_eam=True))
    finally:
        tracer.uninstall()
    agg, samples = tracer.summarize(range(0, 1))
    metrics = tracing.layer_metrics(agg, tracer.counts)

    cfg = SMALL.train
    updates = cfg.max_steps - cfg.batch + 1  # one train_step per step once the buffer holds a batch
    assert metrics["cryptomodule.env_steps"] == 2 * cfg.max_steps
    assert agg["rlcore.train_step.eam-1d"]["calls"] == updates
    assert agg["rlcore.train_step.sam-4layer"]["calls"] == updates
    assert agg["rlcore.replay.sample"]["calls"] == 2 * updates
    # eam-1d has one conv layer, sam-4layer two; each trained batch runs backward once
    assert agg["rlcore.conv1d.backward"]["calls"] == 3 * updates
    assert metrics["rlcore.conv1d.flops"] > 0 and metrics["rlcore.conv1d.gflop_per_s"] > 0
    assert metrics["rlcore.qnet.forward_b1.calls"] == 2 * cfg.max_steps
    assert metrics["cryptomodule.build_state.calls"] > 0
    assert len(samples["rlcore.train_step.sam-4layer"]) == updates


def test_traced_retrain_backtest_fills_the_portfolio_metrics(tracing, tmp_path):
    """Bars 160-223 decide every 12 bars (6 decision bars) and retrain every
    2 days: 7 boundaries, each before a decision bar, for 2 assets."""
    store, modules = trained_pair(tmp_path)
    cfg = bt_config(assets=list(modules), start_ts=bar_ts(160), end_ts=bar_ts(223),
                    rebalance_interval=12, retrain_days=2)
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        report = tracer.command_span("backtest", lambda: portfolio.run_backtest(modules, cfg, store))
    finally:
        tracer.uninstall()
    agg, _ = tracer.summarize(range(0, 1))
    metrics = tracing.layer_metrics(agg, tracer.counts)

    assert len(report.retrain_events) == 14
    assert metrics["portfolio.retrain_module.calls"] == len(report.retrain_events)
    assert metrics["cryptomodule.allocate.calls"] == 6 * 2
    assert metrics["portfolio.rebalance.calls"] == agg["portfolio.vote_weights"]["calls"] == 6
