"""Tests for config parsing/layering and the command-line interface."""

import csv
import hashlib
import json
import logging
import math
import os
import struct
import subprocess
import sys
from dataclasses import fields
from datetime import datetime, timezone
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from chainfolio import cli
from chainfolio.cli import _inclusive_end, main
from chainfolio.config import (
    CONFIG_KEYS,
    ENV_DATA_DIR,
    RunConfig,
    Splits,
    config_values,
    load_config,
    parse_config_text,
    parse_ts,
)
from chainfolio.container import ContainerFormatError, decode_container
from chainfolio.cryptomodule import CmSettings, CryptoModule, DataRanges, derive_seed, load_cm, save_cm, with_seed
from chainfolio.datastore import AssetId, CsvStore, MetricTable
from chainfolio.errors import ConfigError
from chainfolio.refinery import HorizonConfig
from chainfolio.rlcore.network import QNetwork
from chainfolio.rlcore.training import TrainConfig
from chainfolio.serial import Float64Array, Int64Array, from_doc, to_doc

from _synth import INTERVAL, bar_ts, make_asset
from test_cryptomodule import FIXTURES, header_of, reseal


def epoch(y, m, d):
    return int(datetime(y, m, d, tzinfo=timezone.utc).timestamp())


# ---------------------------------------------------------------------------
# Timestamp parsing


def test_parse_ts_epoch_and_date_forms():
    assert parse_ts(123) == 123
    assert parse_ts("123") == 123
    assert parse_ts(" 456 ") == 456
    assert parse_ts("2020-10-01") == epoch(2020, 10, 1)
    assert parse_ts("2022-03-01T06:00:00Z") == epoch(2022, 3, 1) + 6 * 3600
    # naive ISO timestamps are taken as UTC
    assert parse_ts("2022-03-01T06:00:00") == epoch(2022, 3, 1) + 6 * 3600
    assert parse_ts("2022-03-01T06:00:00+02:00") == epoch(2022, 3, 1) + 4 * 3600


@pytest.mark.parametrize("bad", ["never", "2020-13-01", "2020/10/01", "03-01-2022"])
def test_parse_ts_rejects_garbage(bad):
    with pytest.raises(ConfigError):
        parse_ts(bad)


def test_default_splits_match_calendar():
    cfg = RunConfig()
    assert cfg.split.train == (epoch(2020, 10, 1), epoch(2022, 1, 1))
    assert cfg.split.validation == (epoch(2022, 1, 1), epoch(2022, 3, 1))
    assert cfg.split.backtest == (epoch(2022, 3, 1), epoch(2022, 10, 1))
    for f in fields(Splits):
        lo, hi = getattr(cfg.split, f.name)
        assert lo < hi


def test_inclusive_end_extends_bare_dates_only():
    assert _inclusive_end("2022-03-05", INTERVAL) == parse_ts("2022-03-06") - INTERVAL
    assert _inclusive_end(str(bar_ts(5)), INTERVAL) == bar_ts(5)
    assert _inclusive_end("2022-03-05T00:00:00Z", INTERVAL) == parse_ts("2022-03-05")


# ---------------------------------------------------------------------------
# key=value parsing


def test_parse_config_text_happy_path():
    text = "\n".join(
        [
            "# a comment line",
            "",
            "seed = 5  # inline comment",
            "interval=21600",
            "cm.use_eam = on",
            "horizon.horizons = 1, 2,3",
            "train.lr = 1e-3",
            "split.train = 2020-10-01:2021-01-01",
        ]
    )
    got = parse_config_text(text)
    assert got == {
        "seed": 5,
        "interval": 21600,
        "cm.use_eam": True,
        "horizon.horizons": (1, 2, 3),
        "train.lr": 1e-3,
        "split.train": (epoch(2020, 10, 1), epoch(2021, 1, 1)),
    }


def test_parse_config_text_unknown_key_names_source_and_line():
    text = "seed = 1\ninterval = 21600\nbogus.key = 3\n"
    with pytest.raises(ConfigError, match=r"myfile\.cfg:3: unknown config key 'bogus\.key'"):
        parse_config_text(text, source="myfile.cfg")


def test_parse_config_text_bad_value_names_key():
    with pytest.raises(ConfigError, match=r"<config>:1: bad value for interval"):
        parse_config_text("interval = ten")
    with pytest.raises(ConfigError, match="comma-separated integers"):
        parse_config_text("horizon.horizons = 1,two")


def test_parse_config_text_requires_assignment():
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config_text("just words\n")


@pytest.mark.parametrize("text,expect", [("true", True), ("yes", True), ("1", True), ("on", True),
                                         ("false", False), ("no", False), ("0", False), ("off", False)])
def test_bool_values(text, expect):
    assert parse_config_text(f"cm.use_eam = {text}") == {"cm.use_eam": expect}


def test_bool_rejects_other_words():
    with pytest.raises(ConfigError, match="expected a boolean"):
        parse_config_text("cm.use_eam = maybe")


def test_range_values_validate_order_and_shape():
    with pytest.raises(ConfigError, match="START:END"):
        parse_config_text("split.train = 2022-01-01")
    with pytest.raises(ConfigError, match="start must precede end"):
        parse_config_text("split.train = 2022-01-02:2022-01-01")


# ---------------------------------------------------------------------------
# The key table

#: every config key and its default; users' config files name these keys
DEFAULT_KEYS = {
    "data_dir": "data",
    "interval": 21600,
    "fill_limit": 4,
    "seed": 0,
    "cm.use_eam": False,
    "horizon.horizons": (12, 24, 48),
    "horizon.top_per_group": 5,
    "horizon.final_count": 10,
    "horizon.forward_returns": True,
    "refine.norm_window": 50,
    "refine.pca_window": 200,
    "refine.variance_target": 0.8,
    "refine.epsilon": 1e-08,
    "cm.window": 32,
    "cm.buffer_capacity": 10000,
    "cm.eval_interval": 500,
    "train.gamma": 0.99,
    "train.lr": 0.001,
    "train.batch": 32,
    "train.target_sync": 200,
    "train.eps_start": 1.0,
    "train.eps_end": 0.05,
    "train.eps_decay_steps": 5000,
    "train.max_steps": 20000,
    "train.grad_clip": 10.0,
    "reward.fee_rate": 0.001,
    "reward.eam_hold_reward": 0.0,
    "backtest.initial_capital": 10000.0,
    "backtest.rebalance_interval": 1,
    "backtest.retrain_days": 0,
    "split.train": (1601510400, 1640995200),
    "split.validation": (1640995200, 1646092800),
    "split.backtest": (1646092800, 1664582400),
}


def test_config_keys_and_defaults_are_pinned():
    assert list(CONFIG_KEYS) == list(DEFAULT_KEYS)
    got = config_values(RunConfig())
    assert {k: (type(v), v) for k, v in got.items()} == {k: (type(v), v) for k, v in DEFAULT_KEYS.items()}


def test_every_key_parses_its_default_back():
    for key, value in DEFAULT_KEYS.items():
        if key.startswith("split."):
            text = "%d:%d" % value
        elif isinstance(value, tuple):
            text = ",".join(map(str, value))
        else:
            text = str(value)
        assert parse_config_text(f"{key} = {text}") == {key: value}


def test_readme_key_table_names_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Configuration keys", 1)[1].split("```")[1]
    named = [line.split()[0] for line in table.splitlines() if line.strip()]
    assert sorted(named) == sorted(CONFIG_KEYS)


# ---------------------------------------------------------------------------
# Layering


def test_load_config_defaults():
    cfg = load_config()
    assert cfg.data_dir == "data"
    assert cfg.interval == 21600
    assert cfg.fill_limit == 4
    assert cfg.seed == 0 and cfg.use_eam is False


def test_load_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("data_dir = fromfile\nseed = 9\n")
    env = {ENV_DATA_DIR: "fromenv"}

    cfg = load_config(path)
    assert (cfg.data_dir, cfg.seed) == ("fromfile", 9)
    cfg = load_config(path, env=env)
    assert (cfg.data_dir, cfg.seed) == ("fromenv", 9)  # env wins for data_dir only
    cfg = load_config(path, overrides={"data_dir": "fromcli"}, env=env)
    assert cfg.data_dir == "fromcli"
    cfg = load_config(path, overrides={"data_dir": None}, env=env)
    assert cfg.data_dir == "fromenv"  # unset overrides are skipped
    cfg = load_config(path, env={})
    assert cfg.data_dir == "fromfile"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        load_config(tmp_path / "nope.cfg")


def test_load_config_validation():
    with pytest.raises(ConfigError, match="interval must be positive"):
        load_config(overrides={"interval": -1})
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        load_config(overrides={"seed": -1})
    with pytest.raises(ConfigError, match=r"split\.train is shorter than one bar"):
        load_config(overrides={"split.train": (100, 200)})
    with pytest.raises(ConfigError, match="unknown config key 'split_train'"):
        load_config(overrides={"split_train": (100, 200)})


#: the config keys whose values are floats
FLOAT_KEYS = [key for key, value in config_values(RunConfig()).items() if type(value) is float]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_float_keys_refuse_non_finite_values(key, text):
    assert len(FLOAT_KEYS) == 10
    with pytest.raises(ConfigError, match=rf"run\.conf:2: bad value for {key}: expected a finite number"):
        parse_config_text(f"seed = 1\n{key} = {text}\n", source="run.conf")


def test_cli_refuses_a_replay_buffer_smaller_than_a_batch(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("cm.buffer_capacity = 4\ntrain.batch = 8\n")
    assert main(["-c", str(conf), "--data-dir", str(tmp_path / "d"), "train-cm", "--assets", "AAA"]) == 1
    assert "cm.buffer_capacity (4) must be at least train.batch (8)" in error_line(capsys.readouterr().err)


# ---------------------------------------------------------------------------
# Builders


def test_run_config_builders_propagate_fields():
    cfg = RunConfig()
    hc = cfg.cm.horizon
    assert (hc.horizons, hc.top_per_group, hc.final_count) == ((12, 24, 48), 5, 10)

    tc = cfg.cm.train
    assert tc.seed == cfg.seed
    assert with_seed(cfg.cm, 123).train.seed == 123
    assert (tc.gamma, tc.lr, tc.batch) == (0.99, 1e-3, 32)

    cfg = load_config(overrides={"cm.window": 9, "reward.fee_rate": 0.002, "train.batch": 8, "horizon.final_count": 4})
    assert cfg.cm.window == 9 and cfg.cm.reward.fee_rate == 0.002
    assert cfg.cm.train.batch == 8 and cfg.cm.horizon.final_count == 4
    assert cfg.backtest_config(("AAA",)).fee_rate == 0.002
    # one nested dataclass is rebuilt once, so its checks see every new value
    cfg = load_config(overrides={"horizon.top_per_group": 1, "horizon.final_count": 6})
    assert (cfg.cm.horizon.top_per_group, cfg.cm.horizon.final_count) == (1, 6)
    with pytest.raises(ConfigError, match="observation window"):
        load_config(overrides={"cm.window": 2})


def test_data_ranges_are_end_inclusive():
    cfg = RunConfig()
    dr = cfg.data_ranges()
    assert dr.train == (epoch(2020, 10, 1), epoch(2022, 1, 1) - cfg.interval)
    assert dr.validation == (epoch(2022, 1, 1), epoch(2022, 3, 1) - cfg.interval)


def test_backtest_config_defaults_and_overrides():
    cfg = RunConfig()
    bt = cfg.backtest_config(("btc", "STORJ"))
    assert bt.assets == ("BTC-USDT", "STORJ-USDT")
    assert bt.start_ts == epoch(2022, 3, 1)
    assert bt.end_ts == epoch(2022, 10, 1) - cfg.interval
    assert bt.fee_rate == cfg.cm.reward.fee_rate
    assert bt.rebalance_interval == 1 and bt.retrain_days == 0

    cfg = load_config(overrides={"reward.fee_rate": 0.002, "backtest.rebalance_interval": 3,
                                 "backtest.retrain_days": 7})
    bt = cfg.backtest_config(("BTC",), start_ts=0, end_ts=INTERVAL * 4)
    assert (bt.start_ts, bt.end_ts, bt.fee_rate) == (0, INTERVAL * 4, 0.002)
    assert (bt.rebalance_interval, bt.retrain_days) == (3, 7)


def test_to_doc_is_json_ready_and_complete():
    cfg = RunConfig()
    doc = to_doc(cfg)
    again = json.loads(json.dumps(doc, sort_keys=True))
    assert again["cm"]["horizon"]["horizons"] == [12, 24, 48]
    assert again["split"]["train"] == [epoch(2020, 10, 1), epoch(2022, 1, 1)]
    assert set(doc) == {f.name for f in fields(RunConfig)}
    assert from_doc(RunConfig, again) == cfg


@pytest.mark.parametrize(
    "tp, value",
    [(int, True), (int, 1.0), (int, "1"), (float, False), (float, "inf"), (float, None), (str, 1), (bool, 0),
     (dict, []), (list, {}), (tuple[int, int], [1]), (tuple[int, int], [1, 2, 3]), (tuple[int, ...], [1, 2.0]),
     (list[str], "ab"), (dict[str, float], {"a": True}), (Int64Array, [1, 2.5]), (Int64Array, [[1]]),
     (Float64Array, [1.0, False]), (Float64Array, [1.0, "+inf"]), (HorizonConfig, [])],
)
def test_from_doc_rejects_another_type(tp, value):
    with pytest.raises(TypeError):
        from_doc(tp, value)


def test_from_doc_checks_nested_fields_and_names_them():
    doc = to_doc(CmSettings())
    doc["train"]["lr"] = True
    with pytest.raises(TypeError, match="train: lr: True is not a number"):
        from_doc(CmSettings, doc)


def test_from_doc_reads_numbers_inf_and_arrays():
    assert from_doc(float, 2) == 2.0 and type(from_doc(float, 2)) is float
    assert to_doc(math.inf) == "+inf" and from_doc(float, "+inf") == math.inf
    ts = from_doc(Int64Array, [1, 2])
    assert ts.dtype == np.int64 and to_doc(ts) == [1, 2]
    assert from_doc(Float64Array, [1, 0.5]).dtype == np.float64
    doc = {"a": [[1, "x"]]}
    assert from_doc(dict[str, list[tuple[int, str]]], doc) == {"a": [(1, "x")]}
    assert to_doc({"a": [(1, "x")]}) == doc


def test_derive_asset_seed_matches_digest_oracle():
    want = int.from_bytes(hashlib.sha256(b"7:AAA-USDT").digest()[:8], "big")
    assert derive_seed(7, "AAA-USDT") == want
    assert derive_seed(7, "BBB-USDT") != want
    assert derive_seed(8, "AAA-USDT") != want
    assert 0 <= want < 2**64
    # the retrain seed: (module seed, asset, boundary ts)
    retrain = int.from_bytes(hashlib.sha256(b"7:AAA-USDT:1646092800").digest()[:8], "big")
    assert derive_seed(7, "AAA-USDT", 1646092800) == retrain


# ---------------------------------------------------------------------------
# CLI plumbing


def allocation_stub(symbol, bias, seed=0):
    """Real module file whose allocation net always returns `bias`."""
    settings = CmSettings(
        horizon=HorizonConfig(horizons=(1, 2, 3), top_per_group=2, final_count=2),
        norm_window=4,
        pca_window=5,
        window=5,
        train=TrainConfig(seed=seed),
    )
    net = QNetwork("sam-4layer", (7, 1, 5), seed)
    net.layers[-1].w[...] = 0.0
    net.layers[-1].b[...] = [float(bias[0]), float(bias[1])]
    return CryptoModule(
        asset=AssetId(symbol),
        sam_net=net,
        eam_net=None,
        selected_metrics=["noise_00", "noise_01"],
        settings=settings,
        ranges=DataRanges((bar_ts(0), bar_ts(10)), (bar_ts(11), bar_ts(20))),
        interval=INTERVAL,
    )


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["definitely-not-a-command"]) == 2
    assert main(["registry"]) == 2
    assert main(["backtest", "--portfolio", "A"]) == 2  # --out is required
    assert main(["ingest", "--asset", "AAA", "--bogus-flag"]) == 2
    capsys.readouterr()


def test_cli_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "chainfolio" in capsys.readouterr().out


def test_cli_domain_errors_exit_1(tmp_path, capsys):
    d = str(tmp_path / "d")
    assert main(["--data-dir", d, "ingest", "--asset", "AAA"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--ohlcv" in err

    assert main(["--config", str(tmp_path / "nope.cfg"), "registry", "list"]) == 1
    assert "config file not found" in capsys.readouterr().err

    bad = tmp_path / "bad.cfg"
    bad.write_text("wat = 1\n")
    assert main(["--config", str(bad), "registry", "list"]) == 1
    assert "unknown config key" in capsys.readouterr().err


def error_line(err: str) -> str:
    """The one ``error:`` line of a failed command's stderr; no traceback."""
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1, err
    return lines[0]


def test_cli_missing_input_files_exit_1(tmp_path, capsys):
    d = str(tmp_path / "d")
    missing = str(tmp_path / "missing.csv")
    for flag in ("--ohlcv", "--metrics"):
        assert main(["--data-dir", d, "ingest", "--asset", "AAA", flag, missing]) == 1
        assert missing in error_line(capsys.readouterr().err)

    assert main(["report", "--report", str(tmp_path / "no-report")]) == 1
    assert "report.json" in error_line(capsys.readouterr().err)


def test_cli_corrupt_manifest_exit_1(tmp_path, capsys):
    d = tmp_path / "d"
    d.mkdir()
    (d / "manifest.json").write_text('{"assets": {')
    bars = tmp_path / "bars.csv"
    bars.write_text("ts,open,high,low,close,volume\n%d,1,1,1,1,1\n" % bar_ts(0))
    assert main(["--data-dir", str(d), "ingest", "--asset", "AAA", "--ohlcv", str(bars)]) == 1
    assert "manifest" in error_line(capsys.readouterr().err)


@pytest.mark.parametrize("flag", ["--ohlcv", "--metrics"])
def test_cli_bad_manifest_entry_leaves_the_store_csv_alone(tmp_path, capsys, flag):
    """An asset entry that is not an object fails the ingest before it
    rewrites the asset's CSV."""
    d = tmp_path / "d"
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    if flag == "--ohlcv":
        stored = d / "AAA-USDT" / "ohlcv.csv"
        first.write_text("ts,open,high,low,close,volume\n%d,1,1,1,1,1\n" % bar_ts(0))
        second.write_text("ts,open,high,low,close,volume\n%d,2,2,2,2,2\n" % bar_ts(1))
    else:
        stored = d / "AAA-USDT" / "metrics.csv"
        first.write_text("ts,name,value\n%d,mm,1.0\n" % bar_ts(0))
        second.write_text("ts,name,value\n%d,mm,2.0\n" % bar_ts(1))
    assert main(["--data-dir", str(d), "ingest", "--asset", "AAA", flag, str(first)]) == 0
    before = stored.read_bytes()
    (d / "manifest.json").write_text('{"version": 1, "assets": {"AAA-USDT": ["x"]}}')
    capsys.readouterr()
    assert main(["--data-dir", str(d), "ingest", "--asset", "AAA", flag, str(second)]) == 1
    assert "manifest" in error_line(capsys.readouterr().err)
    assert stored.read_bytes() == before


@pytest.mark.parametrize("flag", ["--ohlcv", "--metrics"])
@pytest.mark.parametrize("version", ["99", "true", "1.0"])
def test_cli_ingest_rejects_another_manifest_version(tmp_path, capsys, version, flag):
    """Only the int 1 is manifest version 1: not JSON true or 1.0, which
    equal 1 in Python.  Another version fails before any store CSV is written."""
    d = tmp_path / "d"
    d.mkdir()
    (d / "manifest.json").write_text('{"version": %s, "assets": {}}' % version)
    source = tmp_path / "in.csv"
    if flag == "--ohlcv":
        source.write_text("ts,open,high,low,close,volume\n%d,1,1,1,1,1\n" % bar_ts(0))
    else:
        source.write_text("ts,name,value\n%d,mm,1.0\n" % bar_ts(0))
    assert main(["--data-dir", str(d), "ingest", "--asset", "AAA", flag, str(source)]) == 1
    assert "manifest version" in error_line(capsys.readouterr().err)
    assert sorted(path.name for path in d.rglob("*")) == ["manifest.json"]


def test_cli_undecodable_input_exit_1(tmp_path, capsys):
    """Input CSVs and config files are UTF-8; other bytes give one error line naming the file."""
    d = str(tmp_path / "d")
    metrics = tmp_path / "metrics.csv"
    metrics.write_bytes(b"ts,name,value\n%d,d\xe9bit,1.0\n" % bar_ts(0))
    assert main(["--data-dir", d, "ingest", "--asset", "AAA", "--metrics", str(metrics)]) == 1
    assert str(metrics) in error_line(capsys.readouterr().err)
    conf = tmp_path / "run.conf"
    conf.write_bytes(b"# caf\xe9\nseed = 1\n")
    assert main(["-c", str(conf), "--data-dir", d, "registry", "list"]) == 1
    assert str(conf) in error_line(capsys.readouterr().err)


def test_cli_store_is_utf8_whatever_the_locale(tmp_path):
    """A non-ASCII metric name ingests under an ASCII locale, the store
    reads back there, and its bytes equal those written in UTF-8 mode."""
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("ts,name,value\n%d,d\u00e9bit,1.0\n" % bar_ts(0), encoding="utf-8")

    def ingest(store, **env):
        argv = [sys.executable, "-m", "chainfolio.cli", "--data-dir", str(store), "ingest", "--asset", "AAA",
                "--metrics", str(metrics)]
        proc = subprocess.run(argv, capture_output=True, env={**os.environ, **env})
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")

    ingest(tmp_path / "ascii", PYTHONUTF8="0", LC_ALL="C")
    ingest(tmp_path / "utf8", PYTHONUTF8="1")
    stored = (tmp_path / "ascii" / "AAA-USDT" / "metrics.csv").read_bytes()
    assert stored == (tmp_path / "utf8" / "AAA-USDT" / "metrics.csv").read_bytes()
    assert "d\u00e9bit".encode("utf-8") in stored
    # without its sidecar the store CSV is parsed, still as UTF-8
    (tmp_path / "ascii" / "AAA-USDT" / "metrics.csv.cols").unlink()
    ingest(tmp_path / "ascii", PYTHONUTF8="0", LC_ALL="C")


#: the config document of a one-bar report
REPORT_CONFIG = to_doc(RunConfig().backtest_config(("AAA",), bar_ts(0), bar_ts(1)))


def report_with_summary(**stats) -> str:
    """A well-formed one-curve report.json whose summary holds ``stats``."""
    doc = {"version": 1, "config": REPORT_CONFIG, "curve_order": ["strategy"], "timestamps": [0],
           "curves": {"strategy": [1.0]}, "returns": [0.0], "events": [], "action_logs": {}, "retrain_events": [],
           "summary": {"strategy": {"arr": 0.5, "drr": 0.001, "sortino": "+inf", **stats}}}
    return json.dumps(doc)


def report_with(**fields) -> str:
    """``report_with_summary()`` with the top-level ``fields`` replaced."""
    return json.dumps({**json.loads(report_with_summary()), **fields})


@pytest.mark.parametrize(
    "text",
    ['{"version": 1, "curve_order": [', '{"version": 1}', "[1, 2]", b"\xff\xfe",
     '{"version": 1, "curve_order": ["strategy"], "curves": {}}',
     report_with_summary(arr="x"), report_with_summary(arr=None), report_with_summary(drr=True),
     report_with_summary(drr=[0.1]), report_with_summary(sortino="-inf"), report_with_summary(sortino={}),
     report_with_summary(arr=10**400),
     report_with_summary().replace('"version": 1,', '"version": true,'),
     report_with_summary().replace('"version": 1,', '"version": 1.0,'),
     report_with(retrain_events=[{"ts": "yesterday", "asset": "AAA-USDT", "status": "retrained"}]),
     report_with(retrain_events=[{"ts": bar_ts(0), "asset": "AAA-USDT"}]),
     report_with(config={**REPORT_CONFIG, "fee_rate": 0.5}),
     report_with(config={key: value for key, value in REPORT_CONFIG.items() if key != "assets"})],
)
def test_cli_corrupt_report_exit_1(tmp_path, capsys, text):
    out = tmp_path / "report"
    out.mkdir()
    path = out / "report.json"
    path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    for fmt in ("text", "csv"):
        assert main(["report", "--report", str(out), "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert "report" in error_line(captured.err) and captured.out == ""


def test_cli_report_reads_a_well_formed_summary(tmp_path, capsys):
    out = tmp_path / "report"
    out.mkdir()
    (out / "report.json").write_text(report_with_summary(arr=1, sortino=2.5))
    assert main(["report", "--report", str(out), "--format", "csv"]) == 0
    assert capsys.readouterr().out == "metric,strategy\narr,1.0\ndrr,0.001\nsortino,2.5\n"
    (out / "report.json").write_text(report_with_summary())
    assert main(["report", "--report", str(out)]) == 0
    assert "+inf" in capsys.readouterr().out


#: a registry entry whose module file lies outside the registry
ESCAPING_ENTRY = '{"version": 1, "entries": {"AAA-USDT": {"file": "../victim.txt", "sha256": "0"}}}'


@pytest.mark.parametrize(
    "text", ['{"version": 1, "entries": {', '{"version": 1}', '"registry"', '{"version": 1, "entries": {"A": 3}}',
             ESCAPING_ENTRY,
             '{"version": 1, "entries": {"../AAA-USDT": {"file": "../AAA-USDT.cm", "sha256": "0"}}}',
             '{"version": 1, "entries": {"AAA-../../USDT": {"file": "AAA-../../USDT.cm", "sha256": "0"}}}',
             '{"version": true, "entries": {}}', '{"version": 1.0, "entries": {}}']
)
def test_cli_corrupt_registry_exit_1(tmp_path, capsys, text):
    registry = tmp_path / "registry"
    registry.mkdir()
    (registry / "registry.json").write_text(text)
    assert main(["--data-dir", str(tmp_path / "d"), "registry", "list", "--registry", str(registry)]) == 1
    assert "registry" in error_line(capsys.readouterr().err)


def test_cli_registry_remove_keeps_files_outside_the_registry(tmp_path, capsys):
    registry = tmp_path / "registry"
    registry.mkdir()
    (registry / "registry.json").write_text(ESCAPING_ENTRY)
    victim = tmp_path / "victim.txt"
    victim.write_text("keep me")
    assert main(["--data-dir", str(tmp_path / "d"), "registry", "remove", "AAA", "--registry", str(registry)]) == 1
    assert "registry" in error_line(capsys.readouterr().err)
    assert victim.read_text() == "keep me"


def test_cli_registry_remove_of_an_unregistered_asset_creates_nothing(tmp_path, capsys):
    """Refused before the registry's lock is taken, so no registry or data directory appears."""
    assert main(["--data-dir", str(tmp_path / "d"), "registry", "remove", "AAA"]) == 1
    assert "no module registered for AAA-USDT" in error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


#: container headers that a valid SHA-256 trailer does not make readable
BROKEN_HEADERS = {
    "not an object": lambda h: [h],
}


@pytest.mark.parametrize("broken", list(BROKEN_HEADERS))
def test_cli_registry_add_rejects_a_sealed_module_with_a_broken_header(tmp_path, capsys, broken):
    path = tmp_path / "AAA.cm"
    save_cm(allocation_stub("AAA", (0.0, 1.0)), path)
    blob = path.read_bytes()
    header = BROKEN_HEADERS[broken](header_of(blob))
    path.write_bytes(reseal(blob, json.dumps(header).encode()))
    with pytest.raises(ContainerFormatError):
        load_cm(path)
    assert main(["--data-dir", str(tmp_path / "d"), "registry", "add", str(path),
                 "--registry", str(tmp_path / "registry")]) == 1
    assert "not a JSON object" in error_line(capsys.readouterr().err)


#: a field of a re-sealed module header, as a path in it, and a value of the wrong JSON type for it
MISTYPED_SETTINGS = {
    "window": (("settings", "window"), 8.0),
    "lr": (("settings", "train", "lr"), True),
    "horizons": (("settings", "horizon", "horizons"), [1.0, 2, 3]),
}


@pytest.mark.parametrize("field", list(MISTYPED_SETTINGS))
def test_cli_registry_add_rejects_mistyped_settings(tmp_path, capsys, field):
    """A header scalar of the wrong type fails at ``registry add``, not later
    as a raw TypeError in a backtest."""
    path = tmp_path / "AAA.cm"
    save_cm(allocation_stub("AAA", (0.0, 1.0)), path)
    blob = path.read_bytes()
    header = header_of(blob)
    (*parents, name), value = MISTYPED_SETTINGS[field]
    reduce(dict.__getitem__, parents, header)[name] = value
    path.write_bytes(reseal(blob, json.dumps(header).encode()))
    registry = tmp_path / "registry"
    assert main(["--data-dir", str(tmp_path / "d"), "registry", "add", str(path), "--registry", str(registry)]) == 1
    assert f"{': '.join([*parents, name])}: " in error_line(capsys.readouterr().err)
    assert not (registry / "AAA-USDT.cm").exists()


#: a change to a module's header that its body of parameters no longer fits
MISFIT_HEADERS = {
    "a metric more": lambda h: h["selected_metrics"].append("extra"),
    "a metric fewer": lambda h: h["selected_metrics"].pop(),
    "a wider window": lambda h: h["settings"].update(window=h["settings"]["window"] + 1),
    "use_eam flipped": lambda h: h.update(use_eam=not h["use_eam"]),
}


@pytest.mark.parametrize("name", ["sam", "sam_eam"])
@pytest.mark.parametrize("misfit", list(MISFIT_HEADERS))
def test_cli_registry_add_rejects_a_header_its_body_does_not_fit(tmp_path, capsys, misfit, name):
    """The nets' shapes follow from the header, so a header that implies
    another parameter count than the body holds is refused."""
    blob = (FIXTURES / f"{name}.cm").read_bytes()
    header = header_of(blob)
    MISFIT_HEADERS[misfit](header)
    path, registry = tmp_path / "AAA.cm", tmp_path / "registry"
    path.write_bytes(reseal(blob, json.dumps(header).encode()))
    assert main(["--data-dir", str(tmp_path / "d"), "registry", "add", str(path), "--registry", str(registry)]) == 1
    _, body = decode_container(blob)
    assert f"its body holds {len(body)} bytes" in error_line(capsys.readouterr().err)
    assert not (registry / "AAA-USDT.cm").exists()


def test_cli_refuses_a_version_1_module(tmp_path, capsys):
    """A module file written before format 3 carries container version 1:
    ``registry add`` refuses it, and so does a backtest of a registry that
    holds it, each with one error line that names the version."""
    blob = (FIXTURES / "sam.cm").read_bytes()
    prefix = bytearray(blob[:-32])
    struct.pack_into("<H", prefix, 4, 1)
    v1 = bytes(prefix) + hashlib.sha256(bytes(prefix)).digest()
    path, registry = tmp_path / "AAA.cm", tmp_path / "registry"
    path.write_bytes(v1)
    argv = ["--data-dir", str(tmp_path / "d")]
    assert main([*argv, "registry", "add", str(path), "--registry", str(registry)]) == 1
    assert "version 1 unsupported" in error_line(capsys.readouterr().err)
    assert not (registry / "AAA-USDT.cm").exists()
    # a registry whose format 3 module file was replaced by its version 1 bytes, digest included
    path.write_bytes(blob)
    assert main([*argv, "registry", "add", str(path), "--registry", str(registry)]) == 0
    (registry / "AAA-USDT.cm").write_bytes(v1)
    index = json.loads((registry / "registry.json").read_text())
    index["entries"]["AAA-USDT"]["sha256"] = hashlib.sha256(v1).hexdigest()
    (registry / "registry.json").write_text(json.dumps(index))
    capsys.readouterr()
    assert main([*argv, "backtest", "--portfolio", "AAA", "--from", str(bar_ts(12)), "--to", str(bar_ts(39)),
                 "--registry", str(registry), "--out", str(tmp_path / "report")]) == 1
    assert "version 1 unsupported" in error_line(capsys.readouterr().err)
    assert not (tmp_path / "report").exists()


def test_cli_train_flag_validation(tmp_path, capsys):
    d = str(tmp_path / "d")
    assert main(["--data-dir", d, "train-cm", "--assets", "AAA", "--seed", "-3"]) == 1
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert main(["--data-dir", d, "train-cm", "--assets", "AAA", "--jobs", "0"]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert main(["--data-dir", d, "train-cm", "--assets", ","]) == 1
    assert "no assets" in capsys.readouterr().err


def logged_config(caplog, argv) -> dict:
    """The effective config that a successful command logs."""
    caplog.clear()
    with caplog.at_level(logging.INFO):
        assert main(argv) == 0
    blob = next(r.getMessage() for r in caplog.records if r.getMessage().startswith("effective config: "))
    return json.loads(blob.split(": ", 1)[1])


def test_cli_env_var_sets_data_dir(tmp_path, monkeypatch, caplog, capsys):
    envd, clid = str(tmp_path / "envd"), str(tmp_path / "clid")
    monkeypatch.setenv(ENV_DATA_DIR, envd)
    assert logged_config(caplog, ["registry", "list"])["data_dir"] == envd
    assert logged_config(caplog, ["--data-dir", clid, "registry", "list"])["data_dir"] == clid
    assert "asset\tfile\tstatus" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code", [(["report", "--report", "missing"], 1), (["registry", "list"], 0)])
def test_commands_that_read_no_store_leave_no_data_dir(tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_DATA_DIR, raising=False)
    assert main(argv) == code
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("argv", [
    ["ingest", "--asset", "B@D", "--ohlcv", "bars.csv"],
    ["refine", "--asset", "B@D"],
    ["--config", "run.cfg", "backtest", "--portfolio", "AAA", "--out", "r"],
])
def test_refused_commands_leave_no_data_dir(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("interval = 25200\n")
    assert main(["--data-dir", "d", *argv]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_cli_logs_effective_config(tmp_path, caplog):
    d = str(tmp_path / "d")
    doc = logged_config(caplog, ["--data-dir", d, "registry", "list"])
    assert doc["data_dir"] == d and doc["seed"] == 0
    assert any(r.getMessage() == "seed: 0" for r in caplog.records)


def test_cli_subprocess_logs_to_stderr(tmp_path):
    env = dict(os.environ)
    env.pop(ENV_DATA_DIR, None)
    proc = subprocess.run(
        [sys.executable, "-m", "chainfolio.cli", "--data-dir", str(tmp_path / "d"), "registry", "list"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "effective config:" in proc.stderr
    assert "asset\tfile\tstatus" in proc.stdout


# ---------------------------------------------------------------------------
# Ingest and refine round trips


def write_source_csvs(tmp_path, n=40):
    """Raw OHLCV and metric CSV files on the canonical bar grid."""
    ohlcv = tmp_path / "bars.csv"
    with open(ohlcv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ts", "open", "high", "low", "close", "volume"])
        for i in range(n):
            c = 100.0 + i
            w.writerow([bar_ts(i), c, c * 1.01, c * 0.99, c, 7.0])
    metrics = tmp_path / "metrics.csv"
    with open(metrics, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ts", "name", "value"])
        for i in range(n):
            w.writerow([bar_ts(i), "m1", float(i)])
            w.writerow([bar_ts(i), "m2", float(n - i)])
    return ohlcv, metrics


def test_cli_ingest_loads_store(tmp_path, capsys):
    d = tmp_path / "store"
    ohlcv, metrics = write_source_csvs(tmp_path, n=40)
    rc = main(["--data-dir", str(d), "ingest", "--asset", "AAA",
               "--ohlcv", str(ohlcv), "--metrics", str(metrics)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "AAA-USDT: 40 new bars" in out
    assert "AAA-USDT: 80 metric points across 2 metrics" in out

    frame = CsvStore(d).align(AssetId("AAA"), bar_ts(0), bar_ts(39), INTERVAL, 4)
    assert frame.metric_names == ["m1", "m2"]
    assert frame.close[0] == 100.0 and frame.close[39] == 139.0


SMALL_CFG = """\
horizon.horizons = 1,2,3
horizon.top_per_group = 2
horizon.final_count = 3
refine.norm_window = 8
refine.pca_window = 12
cm.window = 8
cm.buffer_capacity = 512
cm.eval_interval = 100
train.gamma = 0.5
train.lr = 0.001
train.batch = 8
train.target_sync = 50
train.eps_decay_steps = 120
train.max_steps = 150
split.train = {t0}:{t1}
split.validation = {t1}:{t2}
"""


def small_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CFG.format(t0=bar_ts(0), t1=bar_ts(100), t2=bar_ts(140)))
    return str(path)


def test_cli_refine_writes_table_and_features(tmp_path, capsys):
    store = CsvStore(tmp_path / "store")
    make_asset(store, "AAA", 140, seed=5)
    cfg = small_config(tmp_path)
    table = tmp_path / "new" / "table.csv"
    refined = tmp_path / "newer" / "deeper" / "refined.csv"
    rc = main(["--config", cfg, "--data-dir", str(tmp_path / "store"), "refine",
               "--asset", "AAA", "--from", str(bar_ts(0)), "--to", str(bar_ts(139)),
               "--table", str(table), "--out", str(refined)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("frequency=") == 3  # final_count selections printed

    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "horizon", "r", "rank"]
    assert len(rows) == 1 + 11 * 3  # every metric at every horizon
    for name, h, r, rank in rows[1:]:
        assert int(h) in (1, 2, 3)
        assert abs(float(r)) <= 1.0 + 1e-12
        assert 1 <= int(rank) <= 11

    with open(refined, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[:2] == ["ts", "n_components"]
    assert all(h == f"c{i+1}" for i, h in enumerate(header[2:]))
    first_valid = (8 - 1) + (12 - 1)
    assert len(rows) == 1 + (140 - first_valid)
    assert int(rows[1][0]) == bar_ts(first_valid)
    for row in rows[1:]:
        assert 1 <= int(row[1]) <= len(header) - 2
        assert all(float(x) == float(x) for x in row[2:])  # finite values only


def test_cli_refine_out_refuses_a_range_inside_the_warm_up(tmp_path, capsys):
    """--out over fewer bars than the 19-bar warm-up (norm_window 8 +
    pca_window 12 - 1) exits 1 with one error naming both counts and
    writes neither file; 19 bars refine one row."""
    store = CsvStore(tmp_path / "store")
    make_asset(store, "AAA", 140, seed=5)
    table, refined = tmp_path / "table.csv", tmp_path / "refined.csv"

    def refine(last_bar):
        return main(["--config", small_config(tmp_path), "--data-dir", str(tmp_path / "store"), "refine",
                     "--asset", "AAA", "--from", str(bar_ts(0)), "--to", str(bar_ts(last_bar)),
                     "--table", str(table), "--out", str(refined)])

    assert refine(17) == 1
    err = error_line(capsys.readouterr().err)
    assert "18 bars" in err and "19-bar warm-up" in err
    assert not table.exists() and not refined.exists()
    assert refine(18) == 0
    assert len(refined.read_text().splitlines()) == 2  # the header and one row


def test_cli_output_the_locale_cannot_encode_is_escaped(tmp_path):
    """Under an ASCII locale a selected non-ASCII metric name prints
    backslash-escaped, and the command succeeds without a traceback."""
    store = CsvStore(tmp_path / "store")
    asset = make_asset(store, "AAA", 140, seed=5, n_signal=1, n_noise=0)
    ts, values = store.load_metrics(asset)["sig_00"]
    store.ingest_metrics(asset, MetricTable.from_series({"d\u00e9bit": (ts, values)}))
    argv = [sys.executable, "-m", "chainfolio.cli", "--config", small_config(tmp_path),
            "--data-dir", str(tmp_path / "store"), "refine", "--asset", "AAA",
            "--from", str(bar_ts(0)), "--to", str(bar_ts(139))]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    proc = subprocess.run(argv, capture_output=True, env={**env, "PYTHONUTF8": "0", "LC_ALL": "C"})
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert b"d\\xe9bit\tfrequency=3\n" in proc.stdout
    assert b"Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# Training via the CLI


def test_cli_train_cm_is_deterministic_and_parallel_safe(tmp_path, capsys):
    data = tmp_path / "store"
    store = CsvStore(data)
    make_asset(store, "AAA", 140, seed=5)
    make_asset(store, "BBB", 140, seed=6)
    cfg = small_config(tmp_path)

    def run(out, assets, jobs):
        rc = main(["--config", cfg, "--data-dir", str(data), "train-cm",
                   "--assets", assets, "--seed", "7", "--jobs", str(jobs),
                   "--out-dir", str(tmp_path / out)])
        assert rc == 0
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted((tmp_path / out).glob("*.cm"))}

    one = run("out1", "AAA", 1)
    two = run("out2", "AAA", 1)
    assert one == two  # byte-identical artifacts for a fixed seed
    assert list(one) == ["AAA-USDT.cm"]

    both = run("out3", "AAA,BBB", 2)
    assert both["AAA-USDT.cm"] == one["AAA-USDT.cm"]  # worker processes agree
    assert set(both) == {"AAA-USDT.cm", "BBB-USDT.cm"}
    assert both["AAA-USDT.cm"] != both["BBB-USDT.cm"]

    out = capsys.readouterr().out
    assert "AAA-USDT\t" in out and "BBB-USDT\t" in out


def test_cli_train_asset_list_is_stripped_canonical_and_unrepeated(tmp_path, monkeypatch, capsys):
    trained = []

    def train_worker(payload):
        _, key, _ = payload
        trained.append(key)
        return key, "m.cm"

    monkeypatch.setattr(cli, "_train_worker", train_worker)
    d = str(tmp_path / "d")
    assert main(["--data-dir", d, "train-cm", "--assets", " aaa, ,BBB-usdt ,"]) == 0
    assert trained == ["AAA-USDT", "BBB-USDT"]
    assert capsys.readouterr().out == "AAA-USDT\tm.cm\nBBB-USDT\tm.cm\n"
    assert main(["--data-dir", d, "train-cm", "--assets", "BTC,btc", "--jobs", "2"]) == 1
    assert "--assets names BTC-USDT more than once" in error_line(capsys.readouterr().err)
    assert trained == ["AAA-USDT", "BBB-USDT"]


# ---------------------------------------------------------------------------
# Registry management via the CLI


def test_cli_registry_flow(tmp_path, capsys):
    d = str(tmp_path / "d")
    reg = str(tmp_path / "registry")
    module = tmp_path / "m.cm"
    save_cm(allocation_stub("AAA", (0.0, 1.0)), module)

    assert main(["--data-dir", d, "registry", "add", str(module), "--registry", reg]) == 0
    assert "registered AAA-USDT" in capsys.readouterr().out

    assert main(["--data-dir", d, "registry", "add", str(module), "--registry", reg]) == 1
    assert "already registered" in capsys.readouterr().err

    assert main(["--data-dir", d, "registry", "add", str(module),
                 "--asset", "BBB", "--registry", reg]) == 1
    assert "not BBB" in capsys.readouterr().err

    assert main(["--data-dir", d, "registry", "list", "--registry", reg]) == 0
    out = capsys.readouterr().out
    assert "AAA-USDT\tAAA-USDT.cm\tok" in out

    assert main(["--data-dir", d, "registry", "remove", "AAA", "--registry", reg]) == 0
    assert "removed AAA-USDT" in capsys.readouterr().out
    assert main(["--data-dir", d, "registry", "remove", "AAA", "--registry", reg]) == 1
    assert "no module registered" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Backtest and report via the CLI


def seeded_backtest_world(tmp_path):
    data = tmp_path / "store"
    store = CsvStore(data)
    for i, sym in enumerate(("AAA", "BBB")):
        make_asset(store, sym, 40, seed=11 + i, n_signal=1, n_noise=2)
    reg = tmp_path / "registry"
    for sym, bias in (("AAA", (0.0, 1.0)), ("BBB", (1.0, 0.0))):
        path = tmp_path / f"{sym}.cm"
        save_cm(allocation_stub(sym, bias), path)
        assert main(["--data-dir", str(data), "registry", "add", str(path),
                     "--registry", str(reg)]) == 0
    return data, reg


def test_cli_backtest_writes_report_and_renders(tmp_path, capsys):
    data, reg = seeded_backtest_world(tmp_path)
    out = tmp_path / "report"
    rc = main(["--data-dir", str(data), "backtest", "--portfolio", "AAA,BBB",
               "--from", str(bar_ts(12)), "--to", str(bar_ts(39)),
               "--fee", "0.001", "--rebalance-interval", "1", "--retrain-days", "0",
               "--registry", str(reg), "--out", str(out)])
    assert rc == 0
    shown = capsys.readouterr().out
    assert "ARR (%)" in shown and f"report written to {out}" in shown
    assert (out / "report.json").is_file()

    curves = (out / "curves.csv").read_text().splitlines()
    assert curves[0] == "ts,strategy_value,baseline_AAA_value,baseline_BBB_value"
    assert len(curves) == 1 + 28  # bars 12..39 inclusive

    assert main(["--data-dir", str(data), "report", "--report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "Sortino" in text and "strategy" in text

    assert main(["--data-dir", str(data), "report", "--report", str(out),
                 "--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["metric", "strategy", "baseline_AAA", "baseline_BBB"]
    stats = {row[0]: row[1:] for row in rows[1:]}
    assert set(stats) == {"arr", "drr", "sortino"}
    for value in stats["arr"]:
        float(value)


def test_cli_backtest_missing_module_names_asset(tmp_path, capsys):
    data, reg = seeded_backtest_world(tmp_path)
    rc = main(["--data-dir", str(data), "backtest", "--portfolio", "AAA,CCC,DDD",
               "--from", str(bar_ts(12)), "--to", str(bar_ts(39)),
               "--registry", str(reg), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "CCC-USDT, DDD-USDT" in error_line(capsys.readouterr().err)


def test_cli_backtest_portfolio_is_stripped_canonical_and_unrepeated(tmp_path, capsys):
    data, reg = seeded_backtest_world(tmp_path)
    out = tmp_path / "report"
    argv = ["--data-dir", str(data), "backtest", "--from", str(bar_ts(12)), "--to", str(bar_ts(39)),
            "--registry", str(reg), "--out", str(out), "--portfolio"]
    assert main([*argv, "aaa, BBB-usdt, "]) == 0
    capsys.readouterr()
    assert json.loads((out / "report.json").read_text())["config"]["assets"] == ["AAA-USDT", "BBB-USDT"]
    assert main([*argv, "AAA, BBB, aaa-USDT"]) == 1
    assert "--portfolio names AAA-USDT more than once" in error_line(capsys.readouterr().err)
    assert main([*argv, " , "]) == 1
    assert "no assets given in --portfolio" in error_line(capsys.readouterr().err)


def test_cli_backtest_interval_must_divide_a_day_before_any_read(tmp_path, monkeypatch, capsys):
    """A bar interval that does not divide a day fails when the backtest is
    configured, before the registry or the store is read."""

    def no_read(*args, **kwargs):
        raise AssertionError("read before the config was checked")

    monkeypatch.setattr(cli, "CmRegistry", no_read)
    monkeypatch.setattr(CsvStore, "align", no_read)
    config = tmp_path / "run.cfg"
    config.write_text("interval = 25200\n")
    rc = main(["--config", str(config), "--data-dir", str(tmp_path / "d"), "backtest", "--portfolio", "AAA",
               "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "bar interval 25200s must divide one day" in error_line(capsys.readouterr().err)
    assert not (tmp_path / "r").exists()
