"""The benchmark's traced mode still finds every name it wraps.

``bench/tracing.py`` patches chainfolio functions and methods by name; a
rename or a changed call pattern would silently zero its per-layer
metrics.  The file is loaded here read-only, outside the package.
"""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chainfolio import portfolio
from chainfolio.cryptomodule import derive_seed, train_cm_from_frame
from chainfolio.rlcore.training import epsilon_at

from _synth import bar_ts
from test_cryptomodule import RANGES, SMALL, walk_frame
from test_portfolio import bt_config, diverge_at, trained_pair

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


# (step budget, refits, state-builder calls) of a training run on walk_frame.
# 250 steps reach every training row: rows 18-139 are fitted, every row past
# the 8 + 12 - 2 warm-up.  40 steps reach 42 training rows per agent, so
# only the 15-bar windows (signals included) of the training rows 25-73 and
# the validation rows 100-139 are fitted: rows 18-73 and 86-139.  States are built 32 rows at a time: the
# signal agent's training (75 or 42 rows) and validation (40) episodes, its
# signals (115 or 96 rows), the allocation agent's episodes (68 or 42, and 40).
def greedy_steps(cfg, role, n_actions):
    """Steps at which the exploration generator of agent ``role`` (1 signal,
    4 allocation) takes the greedy action, replayed as epsilon_greedy draws."""
    rng = np.random.default_rng(derive_seed(cfg.seed, role))
    explored = 0
    for step in range(cfg.max_steps):
        eps = epsilon_at(cfg, step)
        if eps > 0.0 and rng.random() < eps:
            rng.integers(n_actions)
            explored += 1
    return cfg.max_steps - explored


TRAINING_COUNTS = [(250, 122, 3 + 2 + 4 + 3 + 2), (40, 56 + 54, 2 + 2 + 3 + 2 + 2)]


@pytest.mark.parametrize("max_steps, refits, builds", TRAINING_COUNTS)
def test_traced_training_run_fills_the_rl_metrics(tracing, tmp_path, rng, max_steps, refits, builds):
    frame = walk_frame(rng)
    settings = replace(SMALL, train=replace(SMALL.train, max_steps=max_steps))
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        tracer.command_span("train-cm", lambda: train_cm_from_frame(frame, RANGES, settings, use_eam=True))
    finally:
        tracer.uninstall()
    agg, samples = tracer.summarize(range(0, 1))
    metrics = tracing.layer_metrics(agg, tracer.counts)

    cfg = settings.train
    updates = cfg.max_steps - cfg.batch + 1  # one train_step per step once the buffer holds a batch
    assert metrics["cryptomodule.env_steps"] == 2 * cfg.max_steps
    assert agg["rlcore.train_step.eam-1d"]["calls"] == updates
    assert agg["rlcore.train_step.sam-4layer"]["calls"] == updates
    assert agg["rlcore.replay.sample"]["calls"] == 2 * updates
    # eam-1d has one conv layer, sam-4layer two; each trained batch runs backward once
    assert agg["rlcore.conv1d.backward"]["calls"] == 3 * updates
    assert metrics["rlcore.conv1d.flops"] > 0 and metrics["rlcore.conv1d.gflop_per_s"] > 0
    # an acting forward runs only on greedy steps
    assert metrics["rlcore.qnet.forward_b1.calls"] == greedy_steps(cfg, 1, 3) + greedy_steps(cfg, 4, 2)
    assert metrics["refinery.rolling_pca.refits"] == refits
    assert metrics["cryptomodule.build_state.calls"] == builds
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
    # each retrain's 150-step budget reaches its whole training episode, so
    # it fits rows 18 to b of the frame that ends at its boundary b; each of
    # the 6 modules in force decides one bar and fits only its 8-bar window.
    # States come 32 rows at a time: each retrain's training rows 25 to
    # b - 41 and its 40 validation rows, then one batch per module in force
    boundaries = range(168, 217, 8)  # bar indices
    assert metrics["refinery.rolling_pca.refits"] == 2 * (sum(b - 17 for b in boundaries) + 6 * 8)
    assert metrics["cryptomodule.build_state.calls"] == 2 * (sum(-(-(b - 65) // 32) + 2 for b in boundaries) + 6)


def test_traced_retrain_backtest_counts_a_diverged_cell(tracing, tmp_path, monkeypatch):
    """Boundaries 184 and 208 for 2 assets, and BBB's retrain at 184
    diverges: every cell of the grid is one traced retrain call."""
    store, modules = trained_pair(tmp_path)
    cfg = bt_config(assets=list(modules), start_ts=bar_ts(160), end_ts=bar_ts(223),
                    rebalance_interval=6, retrain_days=6)
    diverge_at(monkeypatch, "BBB-USDT", bar_ts(184))
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        report = tracer.command_span("backtest", lambda: portfolio.run_backtest(modules, cfg, store))
    finally:
        tracer.uninstall()
    agg, _ = tracer.summarize(range(0, 1))
    metrics = tracing.layer_metrics(agg, tracer.counts)

    assert [ev.status for ev in report.retrain_events].count("diverged-kept-previous") == 1
    assert metrics["portfolio.retrain_diverged"] == 1
    assert metrics["portfolio.retrain_module.calls"] == len(report.retrain_events) == 4
