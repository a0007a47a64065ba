"""In-memory spans around calls into each chainfolio layer.

The benchmark's traced mode installs wrappers from here onto the public
functions and methods of every module, runs the CLI in-process, and
derives per-layer metrics from the recorded spans.  Nothing under
``src/`` changes: a wrapper replaces each name wherever the package
bound it, including the names ``cli`` and the other modules imported
directly (``from .datastore import parse_metrics_csv``).

A span is ``(name, start, end, parent, command)``; ``parent`` indexes the
enclosing span (-1 for a command's root span).  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

_F64 = 8  # bytes per float64 element

#: (module, attribute, span name) of wrapped module-level functions
FUNCTIONS = [
    ("chainfolio.datastore", "parse_metrics_csv", "datastore.parse_metrics_csv"),
    ("chainfolio.datastore", "parse_ohlcv_csv", "datastore.parse_ohlcv_csv"),
    ("chainfolio.refinery", "select_valid_metrics", "refinery.select_valid_metrics"),
    ("chainfolio.refinery", "rolling_normalize", "refinery.rolling_normalize"),
    ("chainfolio.refinery", "rolling_pca", "refinery.rolling_pca"),
    ("chainfolio.rlcore.training", "train_step", None),  # named by architecture
    ("chainfolio.cryptomodule", "train_cm", "cryptomodule.train_cm"),
    ("chainfolio.cryptomodule", "build_eam_state", "cryptomodule.build_state"),
    ("chainfolio.cryptomodule", "build_sam_state", "cryptomodule.build_state"),
    ("chainfolio.cryptomodule", "save_cm", "cryptomodule.save_cm"),
    ("chainfolio.cryptomodule", "load_cm", "cryptomodule.load_cm"),
    ("chainfolio.portfolio", "run_backtest", "portfolio.run_backtest"),
    ("chainfolio.portfolio", "rebalance", "portfolio.rebalance"),
    ("chainfolio.portfolio", "vote_weights", "portfolio.vote_weights"),
    ("chainfolio.portfolio", "retrain_module", "portfolio.retrain_module"),
    ("chainfolio.metrics", "summarize", "metrics.summarize"),
]

#: (module, class, method, span name) of wrapped methods
METHODS = [
    ("chainfolio.datastore", "CsvStore", "align", "datastore.align"),
    ("chainfolio.datastore", "CsvStore", "ingest_ohlcv", "datastore.ingest"),
    ("chainfolio.datastore", "CsvStore", "ingest_metrics", "datastore.ingest"),
    ("chainfolio.rlcore.network", "Conv1D", "forward", "rlcore.conv1d.forward"),
    ("chainfolio.rlcore.network", "Conv1D", "backward", "rlcore.conv1d.backward"),
    ("chainfolio.rlcore.network", "Dense", "forward", "rlcore.dense"),
    ("chainfolio.rlcore.network", "Dense", "backward", "rlcore.dense"),
    ("chainfolio.rlcore.network", "QNetwork", "forward", None),  # named by batch size
    ("chainfolio.rlcore.replay", "ReplayBuffer", "sample", "rlcore.replay.sample"),
    ("chainfolio.cryptomodule", "CryptoModule", "prepare", "cryptomodule.prepare"),
    ("chainfolio.cryptomodule", "CryptoModule", "allocate", "cryptomodule.allocate"),
    ("chainfolio.portfolio", "CmRegistry", "load", "portfolio.registry_load"),
    ("chainfolio.portfolio", "BacktestReport", "write", "portfolio.report_write"),
]

#: (module, attribute, counter) of functions that are counted, not spanned
COUNTED = [
    ("chainfolio.cryptomodule", "epsilon_greedy", "cryptomodule.env_steps"),
]

#: the timed commands that get a root span ``cli.<command>.s``
COMMANDS = ("ingest", "refine", "train-cm", "backtest", "report")

#: span names whose per-call durations feed a median metric
SAMPLED = ("rlcore.train_step.eam-1d", "rlcore.train_step.sam-4layer",
           "rlcore.qnet.forward_b1", "cryptomodule.allocate")


class _RejectCounter(logging.Handler):
    """Counts the datastore's per-row rejection warnings."""

    def __init__(self, counts: Counter):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        if record.name == "chainfolio.datastore" and str(record.msg).startswith("row %d: rejected"):
            self.counts["datastore.rows_rejected"] += 1


def conv_forward_cost(x_shape, w_shape) -> tuple[int, int]:
    """Computed (flops, bytes) of one valid conv along the last axis."""
    b, c_in, m, n = x_shape
    c_out, _, k = w_shape
    length = n - k + 1
    flops = 2 * b * c_out * m * length * c_in * k
    moved = b * c_in * m * n + c_out * c_in * k + c_out + b * c_out * m * length
    return flops, moved * _F64


def conv_backward_cost(dy_shape, w_shape) -> tuple[int, int]:
    """Computed (flops, bytes) of the weight and input gradients."""
    b, c_out, m, length = dy_shape
    _, c_in, k = w_shape
    n = length + k - 1
    flops = 2 * b * c_out * m * length * c_in * k + 2 * b * c_in * m * n * c_out * k
    moved = b * c_out * m * length + b * c_in * m * n + 2 * c_out * c_in * k + b * c_in * m * n
    return flops, moved * _F64


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self, store_root: Path):
        self.store_root = Path(store_root).resolve()
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.command = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._store_parses: dict[str, list[int]] = {}
        self._handler = _RejectCounter(self.counts)

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name, after=None, on_error=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (span_name, start, end, parent, self.command)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def command_span(self, command: str, run):
        """Run ``run()`` as the root span of one CLI command."""
        self.command += 1
        self._store_parses = {}
        try:
            return self._wrap(run, f"cli.{command}")()
        finally:
            for rows in self._store_parses.values():
                self.counts["datastore.store_rows_parsed"] += sum(rows)
                self.counts["datastore.store_rows_distinct"] += rows[0]

    # -- counters fed by results ---------------------------------------------

    def _after_parse_metrics(self, args, result) -> None:
        self.counts["datastore.parse_metrics_csv.rows"] += len(result)
        source = args[0]
        if isinstance(source, (str, Path)):
            path = Path(source).resolve()
            if path.is_relative_to(self.store_root):
                self._store_parses.setdefault(str(path), []).append(len(result))

    def _after_pca(self, args, result) -> None:
        self.counts["refinery.rolling_pca.refits"] += int(result.valid.sum())
        self.counts["refinery.rank_flagged"] += int(result.rank_flagged.sum())

    def _after_conv_forward(self, args, result) -> None:
        flops, moved = conv_forward_cost(args[1].shape, args[0].w.shape)
        self.counts["rlcore.conv1d.flops"] += flops
        self.counts["rlcore.conv1d.bytes"] += moved

    def _after_conv_backward(self, args, result) -> None:
        flops, moved = conv_backward_cost(args[1].shape, args[0].w.shape)
        self.counts["rlcore.conv1d.flops"] += flops
        self.counts["rlcore.conv1d.bytes"] += moved

    def _on_retrain_error(self, exc: Exception) -> None:
        from chainfolio.rlcore import DivergenceError

        if isinstance(exc, DivergenceError):
            self.counts["portfolio.retrain_diverged"] += 1

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function and method wherever chainfolio bound it."""
        importlib.import_module("chainfolio.cli")
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("chainfolio") and m is not None]
        after = {
            "datastore.parse_metrics_csv": self._after_parse_metrics,
            "refinery.rolling_pca": self._after_pca,
            "rlcore.conv1d.forward": self._after_conv_forward,
            "rlcore.conv1d.backward": self._after_conv_backward,
        }
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            on_error = self._on_retrain_error if span == "portfolio.retrain_module" else None
            if span is None:
                span = _train_step_span
            self._rebind(modules, original, self._wrap(original, span, after.get(span), on_error))
        for mod_name, attr, counter in COUNTED:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(modules, original, self._count(original, counter))
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            if span is None:
                span = _qnet_span
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, span, after.get(span)))
        logging.getLogger().addHandler(self._handler)

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        logging.getLogger().removeHandler(self._handler)

    # -- results ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for name, start, end, parent, command in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "command": command}) + "\n")

    def summarize(self, commands: range) -> tuple[dict[str, dict], dict[str, list[float]]]:
        """Per span name: calls, busy and self seconds over the given commands;
        plus the per-call durations of the sampled names."""
        lo, hi = commands.start, commands.stop
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, command in self.spans:
            if lo <= command < hi and parent >= 0:
                child_time[parent] += end - start
        agg: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        samples: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, parent, command) in enumerate(self.spans):
            if not lo <= command < hi:
                continue
            entry = agg[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time.get(i, 0.0)
            if name in SAMPLED:
                samples[name].append(end - start)
        return agg, samples


def _train_step_span(args) -> str:
    return f"rlcore.train_step.{args[0].arch}"


def _qnet_span(args) -> str:
    return "rlcore.qnet.forward_b1" if args[1].shape[0] == 1 else "rlcore.qnet.forward_batch"


def layer_metrics(agg: dict[str, dict], counts: Counter) -> dict[str, float]:
    """The per-layer metric values of one repetition."""
    def s(name):
        return agg[name]["s"] if name in agg else 0.0

    def self_s(name):
        return agg[name]["self_s"] if name in agg else 0.0

    def calls(name):
        return agg[name]["calls"] if name in agg else 0

    def prefixed(prefix, key):
        return sum(v[key] for n, v in agg.items() if n.startswith(prefix))

    conv_s = s("rlcore.conv1d.forward") + s("rlcore.conv1d.backward")
    distinct = counts["datastore.store_rows_distinct"]
    out = {
        "datastore.parse_metrics_csv.s": s("datastore.parse_metrics_csv"),
        "datastore.parse_metrics_csv.rows": counts["datastore.parse_metrics_csv.rows"],
        "datastore.parse_ohlcv_csv.s": s("datastore.parse_ohlcv_csv"),
        "datastore.align.calls": calls("datastore.align"),
        "datastore.align.self_s": self_s("datastore.align"),
        "datastore.ingest.self_s": self_s("datastore.ingest"),
        "datastore.rows_rejected": counts["datastore.rows_rejected"],
        "datastore.reparse_ratio": counts["datastore.store_rows_parsed"] / distinct if distinct else 1.0,
        "refinery.select_valid_metrics.s": s("refinery.select_valid_metrics"),
        "refinery.rolling_normalize.s": s("refinery.rolling_normalize"),
        "refinery.rolling_pca.s": s("refinery.rolling_pca"),
        "refinery.rolling_pca.refits": counts["refinery.rolling_pca.refits"],
        "refinery.rank_flagged": counts["refinery.rank_flagged"],
        "rlcore.train_step.calls": prefixed("rlcore.train_step.", "calls"),
        "rlcore.train_step.self_s": prefixed("rlcore.train_step.", "self_s"),
        "rlcore.conv1d.forward_s": s("rlcore.conv1d.forward"),
        "rlcore.conv1d.backward_s": s("rlcore.conv1d.backward"),
        "rlcore.dense.s": s("rlcore.dense"),
        "rlcore.replay.sample_s": s("rlcore.replay.sample"),
        "rlcore.conv1d.flops": counts["rlcore.conv1d.flops"],
        "rlcore.conv1d.bytes": counts["rlcore.conv1d.bytes"],
        "rlcore.conv1d.gflop_per_s": counts["rlcore.conv1d.flops"] / conv_s / 1e9 if conv_s else 0.0,
        "rlcore.qnet.forward_b1.calls": calls("rlcore.qnet.forward_b1"),
        "rlcore.qnet.forward_batch.s": s("rlcore.qnet.forward_batch"),
        "cryptomodule.train_cm.calls": calls("cryptomodule.train_cm"),
        "cryptomodule.train_cm.self_s": self_s("cryptomodule.train_cm"),
        "cryptomodule.env_steps": counts["cryptomodule.env_steps"],
        "cryptomodule.build_state.calls": calls("cryptomodule.build_state"),
        "cryptomodule.build_state.s": s("cryptomodule.build_state"),
        "cryptomodule.prepare.s": s("cryptomodule.prepare"),
        "cryptomodule.allocate.calls": calls("cryptomodule.allocate"),
        "cryptomodule.allocate.self_s": self_s("cryptomodule.allocate"),
        "cryptomodule.save_cm.s": s("cryptomodule.save_cm"),
        "cryptomodule.load_cm.s": s("cryptomodule.load_cm"),
        "portfolio.run_backtest.self_s": self_s("portfolio.run_backtest"),
        "portfolio.rebalance.calls": calls("portfolio.rebalance"),
        "portfolio.rebalance.s": s("portfolio.rebalance"),
        "portfolio.vote_weights.s": s("portfolio.vote_weights"),
        "portfolio.registry_load.s": s("portfolio.registry_load"),
        "portfolio.report_write.s": s("portfolio.report_write"),
        "portfolio.retrain_module.calls": calls("portfolio.retrain_module"),
        "portfolio.retrain_module.s": s("portfolio.retrain_module"),
        "portfolio.retrain_diverged": counts["portfolio.retrain_diverged"],
        "metrics.summarize.s": s("metrics.summarize"),
        "cli.unspanned_s": sum(self_s(f"cli.{c}") for c in COMMANDS),
    }
    for command in COMMANDS:
        out[f"cli.{command}.s"] = s(f"cli.{command}")
    return out


#: counts that must repeat exactly across repetitions of the same code and seed
EXACT_COUNTS = (
    "cryptomodule.env_steps",
    "rlcore.train_step.calls",
    "datastore.align.calls",
    "datastore.parse_metrics_csv.rows",
    "cryptomodule.allocate.calls",
    "rlcore.conv1d.flops",
)
