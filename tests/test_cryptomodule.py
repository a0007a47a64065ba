"""Tests for per-asset trading modules: observations, rewards, training, IO."""

import hashlib
import json
import math
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chainfolio import cryptomodule
from chainfolio.cryptomodule import (
    SIGNAL_ACTIONS,
    SIGNAL_VALUES,
    ALLOCATION_ACTIONS,
    CmSettings,
    CryptoModule,
    DataRanges,
    RewardConfig,
    WarmupError,
    build_eam_state,
    build_sam_state,
    derive_seed,
    load_cm,
    net_specs,
    save_cm,
    train_cm,
    train_cm_from_frame,
    with_seed,
)
from chainfolio.datastore import AlignedFrame, AssetId
from chainfolio.errors import ChainfolioError, ConfigError, DataError
from chainfolio.refinery import HorizonConfig, full_windows, refine_features, select_valid_metrics
from chainfolio.rlcore.container import (
    ChecksumMismatchError,
    ContainerFormatError,
    UnsupportedVersionError,
    decode_container,
    write_container,
)
from chainfolio.rlcore.network import QNetwork, param_shapes
from chainfolio.rlcore.replay import ReplayBuffer
from chainfolio.rlcore.training import TrainConfig

from _synth import INTERVAL, T0, bar_ts, make_asset

SMALL = CmSettings(
    horizon=HorizonConfig(horizons=(1, 2, 3), top_per_group=2, final_count=3),
    norm_window=8,
    pca_window=12,
    window=8,
    buffer_capacity=512,
    eval_interval=100,
    train=TrainConfig(
        gamma=0.5, lr=1e-3, batch=8, target_sync=50,
        eps_decay_steps=200, max_steps=250, seed=7,
    ),
)

RANGES = DataRanges((bar_ts(0), bar_ts(99)), (bar_ts(100), bar_ts(139)))


def make_frame(closes, metrics: dict[str, np.ndarray], volume=7.0) -> AlignedFrame:
    closes = np.asarray(closes, dtype=np.float64)
    t = len(closes)
    ohlcv = np.column_stack([closes, closes, closes, closes, np.full(t, float(volume))])
    names = sorted(metrics)
    mat = np.column_stack([np.asarray(metrics[n], dtype=np.float64) for n in names])
    return AlignedFrame(
        asset=AssetId("AAA"),
        timestamps=T0 + INTERVAL * np.arange(t, dtype=np.int64),
        ohlcv=ohlcv,
        metrics=mat,
        metric_names=names,
        interval=INTERVAL,
    )


def walk_frame(rng, t=140, n_metrics=5):
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, t)))
    metrics = {f"m{i}": rng.normal(size=t) for i in range(n_metrics)}
    return make_frame(closes, metrics)


# ---------------------------------------------------------------------------
# Value types


def test_signal_action_conventions():
    assert SIGNAL_ACTIONS == ("buy", "sell", "hold")
    assert SIGNAL_VALUES == {"buy": 1.0, "hold": 0.0, "sell": -1.0}


def test_allocation_action_conventions():
    assert ALLOCATION_ACTIONS == ("cash", "crypto")  # index 0 is cash: argmax ties go to cash


def test_reward_config_bounds():
    with pytest.raises(ConfigError):
        RewardConfig(fee_rate=0.1)
    with pytest.raises(ConfigError):
        RewardConfig(fee_rate=-0.001)


def test_data_ranges_must_be_ordered():
    with pytest.raises(ConfigError):
        DataRanges((10, 5), (20, 30))
    with pytest.raises(ConfigError):
        DataRanges((0, 20), (15, 30))


def test_cm_settings_validation():
    with pytest.raises(ConfigError):
        CmSettings(window=4)
    with pytest.raises(ConfigError):
        CmSettings(eval_interval=0)


def test_cm_settings_refuse_a_replay_buffer_smaller_than_a_batch():
    """Training steps only once the buffer holds a batch, which a smaller ring never does."""
    with pytest.raises(ConfigError, match=r"cm\.buffer_capacity \(4\) must be at least train\.batch \(8\)"):
        CmSettings(buffer_capacity=4, train=TrainConfig(batch=8))
    assert CmSettings(buffer_capacity=8, train=TrainConfig(batch=8)).buffer_capacity == 8


# ---------------------------------------------------------------------------
# Observations


def refine_every_row(frame, names, norm_window, pca_window):
    """Features of every frame row, at CmSettings' variance target and epsilon."""
    s = CmSettings()
    return refine_features(frame, names, norm_window, pca_window, s.variance_target, s.epsilon, np.arange(len(frame)))


def test_sam_state_constant_prices_are_ones(rng):
    frame = make_frame(np.full(40, 50.0), {"m0": rng.normal(size=40), "m1": rng.normal(size=40)})
    refined = refine_every_row(frame, ["m0", "m1"], 4, 5)
    states = build_sam_state(frame, refined, [20], 5, None)
    # f = 5 OHLCV channels + 2 padded component channels; one asset row, the crypto
    assert states.shape == (1, 7, 1, 5)
    crypto = states[0, :, 0, :]
    assert np.allclose(crypto[:4], 1.0, atol=1e-12)          # flat prices
    assert np.allclose(crypto[4], 7.0 / (7.0 + 1e-8), atol=1e-12)


def test_sam_state_price_normalization_oracle(rng):
    frame = walk_frame(rng, t=60)
    refined = refine_every_row(frame, sorted(frame.metric_names), 8, 12)
    t, n = 40, 8
    state = build_sam_state(frame, refined, [t], n, None)[0]
    rows = frame.ohlcv[t - n + 1 : t + 1]
    expect_prices = (rows[:, :4] / rows[-1, 3]).T
    assert np.allclose(state[:4, 0, :], expect_prices, atol=1e-12)
    expect_vol = rows[:, 4] / (rows[:, 4].mean() + 1e-8)
    assert np.allclose(state[4, 0, :], expect_vol, atol=1e-12)
    assert np.allclose(state[5:, 0, :], refined.components[t - n + 1 : t + 1].T, atol=1e-12)


def test_sam_state_signal_channel(rng):
    frame = walk_frame(rng, t=60)
    refined = refine_every_row(frame, sorted(frame.metric_names), 8, 12)
    t, n = 40, 8
    expect = np.array([1.0, 0.0, -1.0] * 3)[:n]
    signals = np.full(len(frame), np.nan)
    signals[t - n + 1 : t + 1] = expect
    state = build_sam_state(frame, refined, [t], n, signals)[0]
    assert state.shape == (5 + refined.c_max + 1, 1, n)
    assert np.array_equal(state[-1, 0, :], expect)
    # a hole in the signal series inside a window is a warm-up problem,
    # also when only one row of a batch sees it
    signals[t - n] = 1.0
    assert build_sam_state(frame, refined, [t - 1, t], n, signals).shape[0] == 2
    signals[t] = np.nan
    with pytest.raises(WarmupError, match=f"index {t}$"):
        build_sam_state(frame, refined, [t - 1, t], n, signals)


def test_observation_warmup_errors(rng):
    frame = walk_frame(rng, t=60)
    refined = refine_every_row(frame, sorted(frame.metric_names), 8, 12)
    first_valid = int(np.flatnonzero(refined.valid)[0])
    with pytest.raises(WarmupError):
        build_sam_state(frame, refined, [first_valid + 2], 8, None)
    with pytest.raises(WarmupError):
        build_eam_state(frame, refined, [4], 8)
    # one warm-up row fails its whole batch
    with pytest.raises(WarmupError, match=f"index {first_valid + 2}$"):
        build_sam_state(frame, refined, [40, first_valid + 2, 41], 8, None)
    with pytest.raises(DataError, match="beyond frame"):
        build_sam_state(frame, refined, [len(frame)], 8, None)
    with pytest.raises(DataError, match="beyond frame"):
        build_eam_state(frame, refined, [40, len(frame)], 8)
    # a non-finite component inside an otherwise valid window
    refined.components[38, 0] = np.inf
    assert np.isfinite(build_eam_state(frame, refined, [37], 8)).all()
    with pytest.raises(DataError, match="non-finite"):
        build_eam_state(frame, refined, [37, 40], 8)
    with pytest.raises(DataError, match="non-finite"):
        build_sam_state(frame, refined, [40], 8, None)


def test_eam_state_shape(rng):
    frame = walk_frame(rng, t=60)
    refined = refine_every_row(frame, sorted(frame.metric_names), 8, 12)
    states = build_eam_state(frame, refined, [40, 41, 45], 8)
    assert states.shape == (3, 5 + refined.c_max, 1, 8)
    sam = build_sam_state(frame, refined, [40, 41, 45], 8, None)
    # the signal agent sees the allocation agent's crypto row
    assert np.array_equal(states[:, :, 0], sam[:, :, 0])


# ---------------------------------------------------------------------------
# Rewards


def test_eam_rewards_examples():
    cfg = RewardConfig(eam_hold_reward=0.001)
    buy, sell, hold = (SIGNAL_ACTIONS.index(a) for a in ("buy", "sell", "hold"))
    table = cryptomodule._eam_rewards(np.array([1.05, 0.98]), cfg)
    assert table.shape == (2, 3, 3)
    assert table[0, hold, buy] == math.log(1.05)
    assert table[0, buy, sell] == -math.log(1.05)
    assert table[1, sell, sell] == -math.log(0.98) > 0
    assert (table[:, :, hold] == 0.001).all()
    assert (table == table[:, :1]).all()  # the same for every previous action
    for ratios in ([float("nan")], [1.2, 0.0], [float("inf")], [1.1, -0.5]):
        with pytest.raises(DataError, match="price ratio"):
            cryptomodule._eam_rewards(np.array(ratios), cfg)


def sam_growth(prev: int, action: int, ratio: float, cfg: RewardConfig) -> float:
    """One allocation step's wealth growth from action prev to action (0 cash,
    1 crypto), written out in scalars."""
    cash, crypto = 1.0 - action, float(action)
    turnover = abs(action - prev)
    return (1.0 - cfg.fee_rate * turnover) * (cash + crypto * ratio)


def test_sam_rewards_examples():
    free = RewardConfig(fee_rate=0.0)
    fee = RewardConfig(fee_rate=0.001)
    cash, crypto = 0, 1
    assert cryptomodule._sam_rewards(np.array([1.3]), fee)[0, cash, cash] == 0.0
    r = cryptomodule._sam_rewards(np.array([1.10]), free)[0, crypto, crypto]
    assert r == pytest.approx(math.log(1.10), abs=1e-15)
    r = cryptomodule._sam_rewards(np.array([1.0]), fee)[0, cash, crypto]
    assert r == pytest.approx(math.log(0.999), abs=1e-15)
    r = cryptomodule._sam_rewards(np.array([0.5]), RewardConfig(fee_rate=0.002))[0, crypto, cash]
    assert r == pytest.approx(math.log(0.998), abs=1e-15)
    for ratios in ([0.0], [1.2, -0.5], [1.1, 0.0, 0.9]):
        with pytest.raises(DataError, match="price ratio"):
            cryptomodule._sam_rewards(np.array(ratios), free)


@given(st.integers(0, 2**31 - 1), st.sampled_from([0.0, 0.001, 0.05]) | st.floats(0.0, 0.0999))
def test_sam_rewards_equal_the_log_of_each_step_growth(seed, fee_rate):
    """Each table entry is math.log of the scalar growth, bit for bit."""
    ratios = np.exp(np.random.default_rng(seed).normal(0, 0.2, 30))
    cfg = RewardConfig(fee_rate=fee_rate)
    table = cryptomodule._sam_rewards(ratios, cfg)
    assert table.shape == (30, 2, 2)
    for j, ratio in enumerate(ratios.tolist()):
        for prev in range(2):
            for a in range(2):
                growth = sam_growth(prev, a, ratio, cfg)
                assert table[j, prev, a] == math.log(growth)


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=40),
    st.integers(0, 2**31 - 1),
)
def test_sam_rewards_telescope_to_log_wealth(actions, seed):
    """With zero fees the summed rewards equal the log of final wealth."""
    rng = np.random.default_rng(seed)
    ratios = np.exp(rng.normal(0, 0.05, len(actions)))
    cfg = RewardConfig(fee_rate=0.0)
    table = cryptomodule._sam_rewards(ratios, cfg)
    wealth, total = 1.0, 0.0
    prev = 0
    for j, (a, ratio) in enumerate(zip(actions, ratios)):
        wealth *= sam_growth(prev, a, float(ratio), cfg)
        total += table[j, prev, a]
        prev = a
    assert total == pytest.approx(math.log(wealth), abs=1e-12)


# ---------------------------------------------------------------------------
# Inference with a rigged head


def rigged_module(frame, bias, seed=0):
    """Module whose allocation net ignores inputs: q == bias exactly."""
    settings = CmSettings(
        horizon=HorizonConfig(horizons=(1, 2, 3), top_per_group=2, final_count=2),
        norm_window=4,
        pca_window=5,
        window=5,
        train=TrainConfig(seed=seed),
    )
    names = sorted(frame.metric_names)[:2]
    net = QNetwork("sam-4layer", (5 + len(names), 1, 5), seed)
    head = net.layers[-1]
    head.w[...] = 0.0
    head.b[...] = np.asarray(bias, dtype=np.float64)
    return CryptoModule(
        asset=frame.asset,
        sam_net=net,
        eam_net=None,
        selected_metrics=names,
        settings=settings,
        ranges=DataRanges((bar_ts(0), bar_ts(10)), (bar_ts(11), bar_ts(20))),
        interval=frame.interval,
    )


def first_decision(ctx) -> int:
    """The first frame row that ``prepare`` took an action at."""
    return int(np.flatnonzero(ctx.actions >= 0)[0])


def test_infer_allocation_greedy_and_tie_to_cash(rng):
    frame = walk_frame(rng, t=40, n_metrics=2)
    cash_cm = rigged_module(frame, [1.0, 0.5])
    crypto_cm = rigged_module(frame, [0.5, 1.0])
    tie_cm = rigged_module(frame, [1.0, 1.0])
    ctx = cash_cm.prepare(frame, np.arange(len(frame)))
    t = first_decision(ctx)
    assert cash_cm.allocate(ctx, t) == 0 and type(cash_cm.allocate(ctx, t)) is int
    assert crypto_cm.allocate(crypto_cm.prepare(frame, np.arange(len(frame))), t) == 1
    assert tie_cm.allocate(tie_cm.prepare(frame, np.arange(len(frame))), t) == 0
    assert cash_cm.allocate(ctx, t) == cash_cm.allocate(ctx, t)
    with pytest.raises(WarmupError):
        cash_cm.allocate(ctx, t - 1)


@pytest.mark.parametrize("use_eam", [False, True])
def test_batched_prepare_matches_single_state_forwards(rng, monkeypatch, use_eam):
    """prepare's batched greedy actions (and signals) equal the argmax of a
    forward of each row's state on its own; rows before the first decision
    raise WarmupError."""
    monkeypatch.setattr(cryptomodule, "_DECISION_BATCH", 7)  # many uneven batches
    frame = walk_frame(rng)
    cm = train_cm_from_frame(frame, RANGES, SMALL, use_eam=use_eam)
    ctx = cm.prepare(frame, np.arange(len(frame)))
    n = SMALL.window
    if use_eam:
        encode = np.array([SIGNAL_VALUES[a] for a in SIGNAL_ACTIONS])
        for t in range(int(np.flatnonzero(ctx.refined.valid)[0]) + n - 1, len(frame)):
            q = cm.eam_net.forward(build_eam_state(frame, ctx.refined, [t], n))[0]
            assert ctx.signals[t] == encode[np.argmax(q)]
    first = first_decision(ctx)
    assert first == cm.warmup_bars
    for t in range(first):
        with pytest.raises(WarmupError):
            cm.allocate(ctx, t)
    for t in range(first, len(frame)):
        q = cm.sam_net.forward(build_sam_state(frame, ctx.refined, [t], n, ctx.signals))[0]
        assert cm.allocate(ctx, t) == int(np.argmax(q))
    with pytest.raises(DataError):
        cm.allocate(ctx, len(frame))


@pytest.mark.parametrize("use_eam", [False, True])
def test_prepare_at_query_rows_equals_full_frame_prepare(rng, use_eam):
    """Given rows, prepare decides exactly those past the warm-up, as a
    full-frame prepare does, and refits only the rows inside their
    observation windows: n bars, 2n - 1 with the signal agent."""
    frame = walk_frame(rng)
    cm = train_cm_from_frame(frame, RANGES, SMALL, use_eam=use_eam)
    full = cm.prepare(frame, np.arange(len(frame)))
    first = first_decision(full)
    width = 2 * SMALL.window - 1 if use_eam else SMALL.window
    for rows in (np.arange(first, len(frame), 6), np.arange(first + 20, len(frame)), np.array([len(frame) - 1]),
                 np.array([first - 1, first + 3]), np.array([first, first + 60]), np.array([], dtype=np.intp)):
        ctx = cm.prepare(frame, rows)
        decided = np.flatnonzero(ctx.actions >= 0)
        assert np.array_equal(decided, rows[rows >= first])
        assert np.array_equal(ctx.actions[decided], full.actions[decided])
        fitted = ctx.refined.valid
        read = np.zeros(len(frame), dtype=bool)
        for t in rows:
            read[max(0, t - width + 1) : t + 1] = True
        assert np.array_equal(fitted, read & full.refined.valid)
        assert np.array_equal(ctx.refined.components[fitted], full.refined.components[fitted])
        if use_eam:
            signalled = ~np.isnan(ctx.signals)
            assert np.array_equal(ctx.signals[signalled], full.signals[signalled])


def test_warmup_bars_accounting(rng):
    frame = walk_frame(rng, t=40, n_metrics=2)
    cm = rigged_module(frame, [1.0, 0.0])
    assert cm.warmup_bars == (4 - 1) + (5 - 1) + (5 - 1)
    assert first_decision(cm.prepare(frame, np.arange(len(frame)))) == cm.warmup_bars
    # the signal agent's window adds n - 1 bars before its first signal
    assert replace(cm, eam_net=QNetwork("eam-1d", (7, 1, 5), 0)).warmup_bars == cm.warmup_bars + 4


def test_allocate_has_no_lookahead(rng):
    frame = walk_frame(rng, t=60, n_metrics=2)
    cm = rigged_module(frame, [1.0, 0.5])
    ctx = cm.prepare(frame, np.arange(len(frame)))
    t = first_decision(ctx) + 3
    base = cm.allocate(ctx, t)
    ohlcv = frame.ohlcv.copy()
    metrics = frame.metrics.copy()
    ohlcv[t + 1 :] *= 3.0
    metrics[t + 1 :] += 100.0
    altered = AlignedFrame(
        asset=frame.asset,
        timestamps=frame.timestamps,
        ohlcv=ohlcv,
        metrics=metrics,
        metric_names=list(frame.metric_names),
        interval=frame.interval,
    )
    ctx2 = cm.prepare(altered, np.arange(len(altered)))
    assert cm.allocate(ctx2, t) == base
    # the rigged head hides state differences, so compare the tensors too
    s1 = build_sam_state(frame, ctx.refined, [t], 5, None)
    s2 = build_sam_state(altered, ctx2.refined, [t], 5, None)
    assert np.array_equal(s1, s2)


# ---------------------------------------------------------------------------
# Training


def test_train_cm_from_frame_deterministic(tmp_path, rng):
    frame = walk_frame(rng)
    cm1 = train_cm_from_frame(frame, RANGES, SMALL, use_eam=False)
    cm2 = train_cm_from_frame(frame, RANGES, SMALL, use_eam=False)
    p1, p2 = tmp_path / "a.cm", tmp_path / "b.cm"
    save_cm(cm1, p1)
    save_cm(cm2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    cm3 = train_cm_from_frame(frame, RANGES, with_seed(SMALL, 8), use_eam=False)
    assert not np.array_equal(cm3.sam_net.params, cm1.sam_net.params)


def test_train_cm_with_signal_agent(rng):
    frame = walk_frame(rng)
    cm = train_cm_from_frame(frame, RANGES, SMALL, use_eam=True)
    assert cm.use_eam and cm.eam_net is not None
    # each agent's network seed is role 0 (signal) or 3 (allocation) of the module seed
    assert cm.eam_net.seed == derive_seed(SMALL.train.seed, 0)
    assert cm.sam_net.seed == derive_seed(SMALL.train.seed, 3)
    assert cm.warmup_bars == 7 + 11 + 7 + 7
    ctx = cm.prepare(frame, np.arange(len(frame)))
    first = first_decision(ctx)
    assert first == cm.warmup_bars
    assert not np.isnan(ctx.signals[first - SMALL.window + 1 :]).any()
    action = cm.allocate(ctx, first)
    assert action in (0, 1)
    # signal channel widens the observation
    state = build_sam_state(frame, ctx.refined, [first], SMALL.window, ctx.signals)[0]
    assert state.shape[0] == 5 + ctx.refined.c_max + 1
    # the net's input is the state's one crypto row
    assert cm.sam_net.input_shape == (state.shape[0], 1, SMALL.window)


@pytest.mark.parametrize("max_steps", [SMALL.train.max_steps, 20])
@pytest.mark.parametrize("use_eam", [False, True])
def test_training_episodes_equal_one_row_builds(rng, monkeypatch, use_eam, max_steps):
    """Each validation episode, and each training episode up to the
    max_steps + 2 states its walk can reach, filled batch by batch, equals
    a stack of the states of its decision rows built one row at a time."""
    monkeypatch.setattr(cryptomodule, "_DECISION_BATCH", 7)  # many uneven batches
    episodes = {}

    def record(net, train, val, settings, seeds):
        episodes[net.arch] = (train[0], val[0])
        return net  # untrained is enough here

    monkeypatch.setattr(cryptomodule, "_run_dqn", record)
    frame = walk_frame(rng)
    settings = replace(SMALL, train=replace(SMALL.train, max_steps=max_steps))
    cm = train_cm_from_frame(frame, RANGES, settings, use_eam=use_eam)
    ctx = cm.prepare(frame, np.arange(len(frame)))  # the training features, and the signals of the same signal net
    n = SMALL.window
    builds = {"sam-4layer": (use_eam, lambda t: build_sam_state(frame, ctx.refined, [t], n, ctx.signals)[0])}
    if use_eam:
        builds["eam-1d"] = (False, lambda t: build_eam_state(frame, ctx.refined, [t], n)[0])
    assert sorted(episodes) == sorted(builds)
    for arch, (after_eam, build) in builds.items():
        # the first row whose window of features (and of signals) is valid
        first = int(np.flatnonzero(ctx.refined.valid)[0]) + (n - 1) * (1 + after_eam)
        for states, (lo, hi), keep in zip(episodes[arch], (RANGES.train, RANGES.validation), (max_steps + 2, None)):
            rows = [t for t in range(first, len(frame)) if lo <= frame.timestamps[t] <= hi][:keep]
            assert np.array_equal(states, np.stack([build(t) for t in rows]))


def whole_episode_train_cm(frame, ranges, settings, use_eam):
    """Reference training that refines every bar and builds every state of
    both episodes, whatever the step budget."""
    selected = select_valid_metrics(frame.slice(*ranges.train), settings.horizon)
    refined = refine_features(frame, selected.names, settings.norm_window, settings.pca_window,
                              settings.variance_target, settings.epsilon, np.arange(len(frame)))
    seeds = [derive_seed(settings.train.seed, role) for role in (1, 2, 4, 5)]
    nets = [QNetwork(*spec) for spec in net_specs(len(selected.names), settings, use_eam)]
    n = settings.window

    def episodes(observable, states_of, reward_table):
        rows = full_windows(observable, n)
        ts = frame.timestamps[rows]
        return [cryptomodule._episode(states_of, rows[(ts >= lo) & (ts <= hi)], frame.close, reward_table,
                                      settings.reward) for lo, hi in (ranges.train, ranges.validation)]

    eam_net = signals = None
    observable = refined.valid
    if use_eam:
        eam_net = cryptomodule._run_dqn(
            nets[1], *episodes(observable, lambda rows: build_eam_state(frame, refined, rows, n),
                               cryptomodule._eam_rewards), settings, seeds[:2])
        signals = cryptomodule._greedy_signal_array(eam_net, frame, refined, n)
        observable = observable & ~np.isnan(signals)
    sam_net = cryptomodule._run_dqn(
        nets[0], *episodes(observable, lambda rows: build_sam_state(frame, refined, rows, n, signals),
                           cryptomodule._sam_rewards), settings, seeds[2:])
    return CryptoModule(frame.asset, sam_net, eam_net, list(selected.names), settings, ranges, frame.interval)


@pytest.mark.parametrize("use_eam", [False, True])
def test_short_budget_training_equals_whole_episode_training(tmp_path, rng, monkeypatch, use_eam):
    """Budgets around each agent's training episode length L, where L - 3
    cuts the episode to max_steps + 2 states and L - 2 is the longest
    budget that does not cut it, push the transitions and give the module
    bytes of whole-episode training, and so does a budget that wraps the
    episode."""
    pushed = []
    push = ReplayBuffer.push
    monkeypatch.setattr(ReplayBuffer, "push", lambda self, *step: (pushed.append(step), push(self, *step)))
    frame = walk_frame(rng)
    n = SMALL.window
    first = SMALL.norm_window + SMALL.pca_window - 2 + n - 1  # the signal agent's first decision row
    in_train = frame.timestamps <= RANGES.train[1]
    lengths = [int(in_train[first:].sum())]  # the allocation agent's without a signal agent
    if use_eam:
        lengths.append(int(in_train[first + n - 1 :].sum()))
    budgets = sorted({length + d for length in lengths for d in (-3, -2, -1, 0)} | {3 * lengths[0]})
    for max_steps in budgets:
        settings = replace(SMALL, train=replace(SMALL.train, max_steps=max_steps))
        runs = []
        for train in (train_cm_from_frame, whole_episode_train_cm):
            pushed.clear()
            save_cm(train(frame, RANGES, settings, use_eam), tmp_path / "module.cm")
            runs.append((list(pushed), (tmp_path / "module.cm").read_bytes()))
        assert runs[0] == runs[1], max_steps  # the transitions, terminal flags included, and the bytes


@pytest.mark.parametrize("max_steps,scores", [(20, 2), (25, 3)])
def test_each_parameter_set_is_scored_once(rng, monkeypatch, max_steps, scores):
    """Training checkpoints every eval_interval steps, and after its last
    step only when that step was not a checkpoint already."""
    calls = []
    score = cryptomodule._greedy_score
    monkeypatch.setattr(cryptomodule, "_greedy_score", lambda *args: (calls.append(1), score(*args))[1])
    states, rewards = rng.normal(size=(40, 4, 1, 8)), rng.normal(size=(39, 2, 2))
    settings = replace(SMALL, eval_interval=10, train=replace(SMALL.train, max_steps=max_steps))
    net = QNetwork("sam-4layer", states.shape[1:], 1)
    cryptomodule._run_dqn(net, (states, rewards), (states[:12], rewards[:11]), settings, (2, 3))
    assert len(calls) == scores


def test_train_cm_requires_enough_decisions(rng):
    frame = walk_frame(rng)
    tight = DataRanges((bar_ts(0), bar_ts(25)), (bar_ts(26), bar_ts(139)))
    with pytest.raises(DataError, match="decision bars"):
        train_cm_from_frame(frame, tight, SMALL, use_eam=False)


def test_train_cm_from_store(tmp_path, rng):
    from chainfolio.datastore import CsvStore

    store = CsvStore(tmp_path)
    asset = make_asset(store, "AAA", 140, seed=5)
    cm = train_cm(store, asset, RANGES, SMALL, use_eam=False, interval=INTERVAL, fill_limit=4)
    assert cm.asset == asset
    assert cm.interval == INTERVAL
    assert len(cm.selected_metrics) == SMALL.horizon.final_count


# ---------------------------------------------------------------------------
# Serialization

#: the ``settings`` header a .cm of CmSettings() carries
DEFAULT_SETTINGS_JSON = (
    '{"buffer_capacity":10000,"epsilon":1e-08,"eval_interval":500,'
    '"horizon":{"final_count":10,"forward_returns":true,"horizons":[12,24,48],"top_per_group":5},'
    '"norm_window":50,"pca_window":200,"reward":{"eam_hold_reward":0.0,"fee_rate":0.001},'
    '"train":{"batch":32,"eps_decay_steps":5000,"eps_end":0.05,"eps_start":1.0,"gamma":0.99,'
    '"grad_clip":10.0,"lr":0.001,"max_steps":20000,"seed":0,"target_sync":200},'
    '"variance_target":0.8,"window":32}'
)


def test_default_settings_header_bytes_are_pinned(tmp_path, rng):
    cm = replace(rigged_module(walk_frame(rng, t=40, n_metrics=2), [1.0, 0.5]), settings=CmSettings(),
                 sam_net=QNetwork("sam-4layer", (7, 1, CmSettings().window), 0))
    path = tmp_path / "module.cm"
    save_cm(cm, path)
    assert b'"settings":' + DEFAULT_SETTINGS_JSON.encode() + b"," in path.read_bytes()
    assert load_cm(path).settings == CmSettings()


def test_save_load_round_trip_preserves_actions(tmp_path, rng):
    frame = walk_frame(rng)
    cm = train_cm_from_frame(frame, RANGES, SMALL, use_eam=False)
    path = tmp_path / "module.cm"
    save_cm(cm, path)
    loaded = load_cm(path)
    assert loaded.asset == cm.asset
    assert loaded.selected_metrics == cm.selected_metrics
    assert loaded.settings == cm.settings
    assert loaded.ranges == cm.ranges
    assert np.array_equal(loaded.sam_net.params, cm.sam_net.params)
    ctx_a = cm.prepare(frame, np.arange(len(frame)))
    ctx_b = loaded.prepare(frame, np.arange(len(frame)))
    first = first_decision(ctx_a)
    for t in range(first, len(frame)):
        assert cm.allocate(ctx_a, t) == loaded.allocate(ctx_b, t)


def test_save_load_round_trip_with_eam(tmp_path, rng):
    frame = walk_frame(rng)
    cm = train_cm_from_frame(frame, RANGES, SMALL, use_eam=True)
    path = tmp_path / "module.cm"
    save_cm(cm, path)
    loaded = load_cm(path)
    assert np.array_equal(loaded.eam_net.params, cm.eam_net.params)
    ctx_a, ctx_b = cm.prepare(frame, np.arange(len(frame))), loaded.prepare(frame, np.arange(len(frame)))
    assert np.array_equal(ctx_a.signals, ctx_b.signals, equal_nan=True)


def test_load_cm_detects_corruption(tmp_path, rng):
    frame = walk_frame(rng)
    cm = train_cm_from_frame(frame, RANGES, SMALL, use_eam=False)
    path = tmp_path / "module.cm"
    save_cm(cm, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 3] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumMismatchError):
        load_cm(path)


@pytest.mark.parametrize("version", [1, 2, 4])
def test_load_cm_refuses_a_file_of_another_version(tmp_path, rng, version):
    """Only format 3 is read; every module file written before it carries
    version 1 and must be retrained."""
    cm = rigged_module(walk_frame(rng, t=40, n_metrics=2), [1.0, 0.5])
    path = tmp_path / "module.cm"
    save_cm(cm, path)
    prefix = bytearray(path.read_bytes()[:-32])
    struct.pack_into("<H", prefix, 4, version)
    path.write_bytes(bytes(prefix) + hashlib.sha256(bytes(prefix)).digest())
    with pytest.raises(UnsupportedVersionError, match=f"version {version} unsupported"):
        load_cm(path)


@pytest.mark.parametrize("drop", ["selected_metrics", "settings", "use_eam"])
def test_load_cm_missing_header_key_is_format_error(tmp_path, rng, drop):
    frame = walk_frame(rng)
    cm = train_cm_from_frame(frame, RANGES, SMALL, use_eam=False)
    path = tmp_path / "module.cm"
    save_cm(cm, path)
    header, body = decode_container(path.read_bytes())
    del header[drop]
    write_container(path, header, body)  # valid checksum, broken schema
    with pytest.raises(ContainerFormatError, match=drop):
        load_cm(path)


@pytest.mark.parametrize("use_eam", [False, True])
def test_derived_nets_are_the_nets_training_builds(rng, use_eam):
    """A module's header gives the architecture, input shape and seed of
    each of its trained nets, the allocation net first."""
    cm = train_cm_from_frame(walk_frame(rng), RANGES, SMALL, use_eam=use_eam)
    nets = [net for net in (cm.sam_net, cm.eam_net) if net is not None]
    specs = net_specs(len(cm.selected_metrics), SMALL, use_eam)
    assert [(net.arch, net.input_shape, net.seed) for net in nets] == specs
    assert specs[0] == ("sam-4layer", (5 + 3 + use_eam, 1, SMALL.window), derive_seed(SMALL.train.seed, 3))
    assert specs[1:] == ([("eam-1d", (5 + 3, 1, SMALL.window), derive_seed(SMALL.train.seed, 0))] if use_eam else [])


def test_save_cm_refuses_nets_its_header_does_not_give(tmp_path, rng):
    """Every file save_cm writes loads: a net of another architecture or
    input shape than the module's settings, metrics and signal agent give
    is refused before anything is written."""
    cm = rigged_module(walk_frame(rng, t=40, n_metrics=2), [1.0, 0.5])
    path = tmp_path / "module.cm"
    misfits = [
        replace(cm, selected_metrics=cm.selected_metrics[:1]),
        replace(cm, settings=replace(cm.settings, window=6)),
        replace(cm, sam_net=QNetwork("eam-1d", (7, 1, 5), 0)),
        replace(cm, eam_net=QNetwork("eam-1d", (7, 1, 5), 0)),  # the allocation net lacks the signal channel
    ]
    for misfit in misfits:
        with pytest.raises(ConfigError, match="its settings give"):
            save_cm(misfit, path)
        assert not path.exists()


# ---------------------------------------------------------------------------
# Stored modules

#: ``sam.cm`` (no signal agent) and ``sam_eam.cm`` (signal agent, so the
#: allocation states carry the signal channel): ``save_cm`` of
#: ``train_cm_from_frame(walk_frame(np.random.default_rng(20231)), RANGES,
#: SMALL, use_eam)`` in format 3.
FIXTURES = Path(__file__).parent / "fixtures"


def test_body_holds_each_net_as_it_lies_in_memory(tmp_path, rng):
    """A .cm body is the allocation net's ``params`` and then the signal
    net's, as float64 little-endian bytes, with no reordering."""
    cm = train_cm_from_frame(walk_frame(rng), RANGES, SMALL, use_eam=True)
    save_cm(cm, tmp_path / "module.cm")
    _, body = decode_container((tmp_path / "module.cm").read_bytes())
    assert body == cm.sam_net.params.astype("<f8").tobytes() + cm.eam_net.params.astype("<f8").tobytes()


def reference_q(arch: str, params: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Q-values of a stored parameter vector, read as the format lays it
    out: ``param_shapes`` order, valid convolutions tap by tap, ReLU after
    every hidden layer, and the first dense columns in (row, interval,
    channel) order."""
    shapes = param_shapes(arch, states.shape[1:])
    ends = np.cumsum([math.prod(s) for s in shapes])
    arrays = [a.reshape(s) for a, s in zip(np.split(params, ends[:-1]), shapes)]
    x = states
    for j in range(0, len(arrays), 2):
        w, b = arrays[j], arrays[j + 1]
        if w.ndim == 3:  # conv (C_out, C_in, k) over the interval axis
            k, length = w.shape[2], x.shape[3] - w.shape[2] + 1
            x = sum(np.einsum("oc,bcml->boml", w[:, :, t], x[..., t : t + length]) for t in range(k))
            x = x + b[None, :, None, None]
        else:
            if x.ndim == 4:
                x = x.transpose(0, 2, 3, 1).reshape(len(x), -1)
            x = x @ w.T + b
        if j + 2 < len(arrays):
            x = np.maximum(x, 0.0)
    return x


@pytest.mark.parametrize("name", ["sam", "sam_eam"])
def test_modules_written_earlier_keep_their_q_values(name):
    """Each stored net computes the Q-values its parameter bytes define."""
    cm = load_cm(FIXTURES / f"{name}.cm")
    _, body = decode_container((FIXTURES / f"{name}.cm").read_bytes())
    stored = np.frombuffer(body, dtype="<f8")
    rng = np.random.default_rng(6)
    for net in (cm.sam_net, cm.eam_net)[: 1 + cm.use_eam]:  # in body order
        states = rng.normal(size=(6, *net.input_shape))
        params, stored = stored[: net.n_params], stored[net.n_params :]
        np.testing.assert_allclose(net.forward(states), reference_q(net.arch, params, states), rtol=1e-10, atol=1e-12)
    assert stored.size == 0


@pytest.mark.parametrize("name", ["sam", "sam_eam"])
def test_modules_written_earlier_save_back_to_the_same_bytes(tmp_path, name):
    """The framing, the header and the body keep their format."""
    save_cm(load_cm(FIXTURES / f"{name}.cm"), tmp_path / "module.cm")
    assert (tmp_path / "module.cm").read_bytes() == (FIXTURES / f"{name}.cm").read_bytes()


# ---------------------------------------------------------------------------
# Damaged module files


def header_of(blob: bytes) -> dict:
    """The header JSON of container ``blob``, after its 10-byte prefix."""
    (length,) = struct.unpack("<I", blob[6:10])
    return json.loads(blob[10 : 10 + length])


def reseal(blob: bytes, header: bytes) -> bytes:
    """Container ``blob`` with its header JSON replaced by ``header`` and a
    valid SHA-256 trailer."""
    (length,) = struct.unpack("<I", blob[6:10])
    prefix = blob[:6] + struct.pack("<I", len(header)) + header + blob[10 + length : -32]
    return prefix + hashlib.sha256(prefix).digest()


def _json_paths(node, at=()):
    yield at
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, (*at, key))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "module.cm"


@given(data=st.data())
def test_damaged_module_files_raise_only_typed_errors(fuzz_path, data):
    """Truncated, byte-flipped, or re-sealed with a mutated header: load_cm
    either loads the file or raises a ChainfolioError."""
    blob = (FIXTURES / "sam_eam.cm").read_bytes()
    damage = data.draw(st.sampled_from(["truncate", "flip", "header"]))
    if damage == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
    elif damage == "flip":
        damaged = bytearray(blob)
        for at, mask in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)),
                                           min_size=1, max_size=4)):
            damaged[at] ^= mask
        blob = bytes(damaged)
        if data.draw(st.booleans()):  # past the checksum, into the parser
            blob = blob[:-32] + hashlib.sha256(blob[:-32]).digest()
    else:
        header = header_of(blob)
        path = data.draw(st.sampled_from(list(_json_paths(header))))
        if not path:
            header = data.draw(_JSON)
        else:
            parent = header
            for key in path[:-1]:
                parent = parent[key]
            if data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(_JSON)
        blob = reseal(blob, json.dumps(header).encode())
    fuzz_path.write_bytes(blob)
    try:
        load_cm(fuzz_path)
    except ChainfolioError:
        pass
