"""Command-line entry point wiring ingestion, refinement, training,
registry management, backtesting, and reporting.

Exit codes: 0 on success, 1 on domain errors, 2 on usage errors.
Every run logs the effective configuration and seed to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .config import ENV_DATA_DIR, RunConfig, config_values, load_config, parse_ts
from .cryptomodule import WarmupError, derive_seed, save_cm, train_cm, with_seed
from .datastore import AssetId, CsvStore, atomic_write, csv_text, parse_metrics_csv, parse_ohlcv_csv
from .errors import ChainfolioError, ConfigError
from .metrics import SECONDS_PER_DAY, stats_csv
from .portfolio import BacktestReport, CmRegistry, run_backtest
from .refinery import refine_features, select_valid_metrics

log = logging.getLogger(__name__)

#: destination of each command-line flag that sets a config key
FLAG_KEYS = {
    "data_dir": "data_dir",
    "seed": "seed",
    "use_eam": "cm.use_eam",
    "fee": "reward.fee_rate",
    "rebalance_interval": "backtest.rebalance_interval",
    "retrain_days": "backtest.retrain_days",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainfolio",
        description="Offline crypto portfolio pipeline: ingest, refine, train, backtest, report.",
    )
    parser.add_argument("-c", "--config", help="key=value config file")
    parser.add_argument("--data-dir", help=f"data directory (overrides config and ${ENV_DATA_DIR})")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load OHLCV and metric CSV files into the store")
    p.add_argument("--asset", required=True, help="asset symbol, e.g. BTC or BTC-USDT")
    p.add_argument("--ohlcv", help="OHLCV CSV: ts,open,high,low,close,volume")
    p.add_argument("--metrics", help="metric CSV: ts,name,value")

    p = sub.add_parser("refine", help="select metrics and emit refined features")
    p.add_argument("--asset", required=True)
    p.add_argument("--from", dest="start", help="range start (date or epoch), default: train split")
    p.add_argument("--to", dest="end", help="range end, inclusive date or epoch")
    p.add_argument("--table", help="write the correlation table CSV (metric,horizon,r,rank) here")
    p.add_argument("--out", help="write refined components CSV here")

    p = sub.add_parser("train-cm", help="train one module per asset")
    p.add_argument("--assets", required=True, help="comma-separated asset list")
    p.add_argument("--seed", type=int, help="base seed (per-asset seeds derive from it)")
    p.add_argument("--use-eam", action="store_true", default=None, help="train the signal agent too")
    p.add_argument("--jobs", type=int, default=1, help="parallel training processes")
    p.add_argument("--out-dir", help="module output directory, default <data>/models")

    p = sub.add_parser("registry", help="manage the trained-module registry")
    reg = p.add_subparsers(dest="registry_command", required=True)
    q = reg.add_parser("list", help="list registered modules and their status")
    q.add_argument("--registry", help="registry directory, default <data>/registry")
    q = reg.add_parser("add", help="validate and register a module file")
    q.add_argument("file")
    q.add_argument("--asset", help="expected asset key (checked against the file)")
    q.add_argument("--registry")
    q = reg.add_parser("remove", help="unregister a module")
    q.add_argument("asset")
    q.add_argument("--registry")

    p = sub.add_parser("backtest", help="run the fee-aware portfolio backtest")
    p.add_argument("--portfolio", required=True, help="comma-separated asset list, e.g. BTC,STORJ,BLZ")
    p.add_argument("--from", dest="start", help="range start, default: backtest split")
    p.add_argument("--to", dest="end", help="range end (inclusive date), default: backtest split")
    p.add_argument("--fee", type=float, help="proportional fee rate")
    p.add_argument("--rebalance-interval", type=int, help="bars between reallocations")
    p.add_argument("--retrain-days", type=int, help="retrain cadence in days, 0 disables")
    p.add_argument("--registry", help="registry directory, default <data>/registry")
    p.add_argument("--out", required=True, help="report output directory")

    p = sub.add_parser("report", help="render a stored backtest report")
    p.add_argument("--report", required=True, help="directory holding report.json")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    return parser


def main(argv=None) -> int:
    # text the locale cannot encode (a metric name, an asset symbol) prints
    # backslash-escaped rather than raising mid-command
    reconfigure = getattr(sys.stdout, "reconfigure", None)
    if reconfigure is not None:
        reconfigure(errors="backslashreplace")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    _setup_logging(args.verbose)
    try:
        overrides = {key: getattr(args, dest, None) for dest, key in FLAG_KEYS.items()}
        cfg = load_config(args.config, overrides=overrides, env=os.environ)
        log.info("effective config: %s", json.dumps(config_values(cfg), sort_keys=True))
        log.info("seed: %d", cfg.seed)
        return _dispatch(args, cfg)
    except (ChainfolioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _setup_logging(verbose: bool) -> None:
    if not logging.getLogger().handlers:
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.DEBUG if verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )


def _dispatch(args, cfg: RunConfig) -> int:
    if args.command == "ingest":
        return _cmd_ingest(args, CsvStore(cfg.data_dir))
    if args.command == "refine":
        return _cmd_refine(args, cfg, CsvStore(cfg.data_dir))
    if args.command == "train-cm":
        return _cmd_train(args, cfg)
    if args.command == "registry":
        return _cmd_registry(args, cfg)
    if args.command == "backtest":
        return _cmd_backtest(args, cfg, CsvStore(cfg.data_dir))
    if args.command == "report":
        return _cmd_report(args)
    raise ConfigError(f"unknown command {args.command!r}")


def _registry_dir(args, cfg: RunConfig) -> Path:
    if getattr(args, "registry", None):
        return Path(args.registry)
    return Path(cfg.data_dir) / "registry"


def _asset_keys(text: str, flag: str) -> tuple[str, ...]:
    """Canonical keys of a comma-separated asset list; entries are stripped,
    empty ones skipped, and an asset named twice is an error."""
    keys = tuple(AssetId.parse(a.strip()).key for a in text.split(",") if a.strip())
    if not keys:
        raise ConfigError(f"no assets given in {flag}")
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    if repeated:
        raise ConfigError(f"{flag} names {', '.join(repeated)} more than once")
    return keys


def _inclusive_end(text: str, interval: int) -> int:
    """A bare date means 'through the end of that UTC day'."""
    ts = parse_ts(text)
    stripped = text.strip()
    # ten-digit epoch strings are not dates, even though both are 10 chars
    if len(stripped) == 10 and not stripped.lstrip("-").isdigit():
        ts += SECONDS_PER_DAY - interval
    return ts


def _cmd_ingest(args, store: CsvStore) -> int:
    if not args.ohlcv and not args.metrics:
        raise ConfigError("ingest needs --ohlcv and/or --metrics")
    asset = AssetId.parse(args.asset)
    if args.ohlcv:
        added = store.ingest_ohlcv(asset, parse_ohlcv_csv(args.ohlcv))
        print(f"{asset.key}: {added} new bars")
    if args.metrics:
        counts = store.ingest_metrics(asset, parse_metrics_csv(args.metrics))
        total = sum(counts.values())
        print(f"{asset.key}: {total} metric points across {len(counts)} metrics")
    return 0


def _cmd_refine(args, cfg: RunConfig, store: CsvStore) -> int:
    asset = AssetId.parse(args.asset)
    start = parse_ts(args.start) if args.start else cfg.data_ranges().train[0]
    end = _inclusive_end(args.end, cfg.interval) if args.end else cfg.data_ranges().train[1]
    frame = store.align(asset, start, end, cfg.interval, cfg.fill_limit)
    warmup = cfg.cm.norm_window + cfg.cm.pca_window - 1
    if args.out and len(frame) < warmup:
        raise WarmupError(f"refine range covers {len(frame)} bars, within the {warmup}-bar warm-up "
                          "(norm_window + pca_window - 1): no bar to refine")
    selected = select_valid_metrics(frame, cfg.cm.horizon)
    for name in selected.names:
        freq = selected.frequency[name]
        print(f"{name}\tfrequency={freq}")
    if selected.shortfall:
        print("note: fewer qualifying metrics than requested", file=sys.stderr)
    if args.table:
        _write_table_csv(args.table, selected.table)
        print(f"correlation table written to {args.table}")
    if args.out:
        cm = cfg.cm
        refined = refine_features(frame, selected.names, cm.norm_window, cm.pca_window, cm.variance_target,
                                  cm.epsilon, np.arange(len(frame)))
        _write_refined_csv(args.out, refined)
        print(f"refined features written to {args.out}")
    return 0


def _write_table_csv(path: str, table) -> None:
    rows = ([name, horizon, "" if r is None else repr(r), "" if rank is None else rank]
            for name, horizon, r, rank in table.rows())
    atomic_write(path, [csv_text([["metric", "horizon", "r", "rank"], *rows])])


def _write_refined_csv(path: str, refined) -> None:
    rows = ([int(refined.timestamps[i]), int(refined.n_components[i]), *map(repr, refined.components[i].tolist())]
            for i in range(len(refined.timestamps)) if refined.valid[i])
    atomic_write(path, [csv_text([["ts", "n_components"] + [f"c{i+1}" for i in range(refined.c_max)], *rows])])


def _train_worker(payload) -> tuple[str, str]:
    cfg, key, out_dir = payload
    store = CsvStore(cfg.data_dir)
    asset = AssetId.parse(key)
    settings = with_seed(cfg.cm, derive_seed(cfg.seed, asset.key))
    cm = train_cm(store, asset, cfg.data_ranges(), settings, cfg.use_eam, cfg.interval, cfg.fill_limit)
    path = Path(out_dir) / f"{asset.key}.cm"
    save_cm(cm, path)
    return asset.key, str(path)


def _cmd_train(args, cfg: RunConfig) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    keys = _asset_keys(args.assets, "--assets")
    out_dir = Path(args.out_dir) if args.out_dir else Path(cfg.data_dir) / "models"
    payloads = [(cfg, key, str(out_dir)) for key in keys]
    if args.jobs == 1 or len(keys) == 1:
        results = [_train_worker(p) for p in payloads]
    else:
        # imported here only: at module level it adds ~15-20 ms to every command's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_train_worker, payloads))
    for key, path in sorted(results):
        print(f"{key}\t{path}")
    return 0


def _cmd_registry(args, cfg: RunConfig) -> int:
    registry = CmRegistry(_registry_dir(args, cfg))
    if args.registry_command == "list":
        print("asset\tfile\tstatus")
        for asset, filename, status in registry.status():
            print(f"{asset}\t{filename}\t{status}")
        return 0
    if args.registry_command == "add":
        key = registry.add(args.file, args.asset)
        print(f"registered {key}")
        return 0
    if args.registry_command == "remove":
        registry.remove(args.asset)
        print(f"removed {AssetId.parse(args.asset).key}")
        return 0
    raise ConfigError(f"unknown registry command {args.registry_command!r}")


def _cmd_backtest(args, cfg: RunConfig, store: CsvStore) -> int:
    assets = _asset_keys(args.portfolio, "--portfolio")
    start = parse_ts(args.start) if args.start else None
    end = _inclusive_end(args.end, cfg.interval) if args.end else None
    bt_cfg = cfg.backtest_config(assets, start_ts=start, end_ts=end)
    registry = CmRegistry(_registry_dir(args, cfg))
    modules = {a: registry.load(a) for a in bt_cfg.assets if a in registry}
    report = run_backtest(modules, bt_cfg, store)  # names every unregistered asset
    report.write(args.out)
    print(report.table())
    print(f"report written to {args.out}")
    return 0


def _cmd_report(args) -> int:
    report = BacktestReport.load(args.report)
    if args.format == "csv":
        sys.stdout.write(stats_csv(report.summary))
    else:
        print(report.table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
