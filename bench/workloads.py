"""The four benchmark workloads and the output checks of each.

Every workload has an untimed preparation (config files and generated
inputs), a set-up (the CLI commands that put the store and registry into
the state the timed phase needs; its wall time is ``setup_s``) and a
repetition: the fixed list of CLI commands that is timed.  ``run`` is a
callable that executes one CLI command (in a child process, or in-process
when traced) and returns a :class:`Cmd`.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen

INTERVAL = gen.INTERVAL
CAPITAL = 10_000.0  # the default backtest.initial_capital


@dataclass
class Cmd:
    """One finished CLI command."""

    argv: list[str]
    code: int
    out: str
    err: str
    wall: float
    rss_mb: float = 0.0


@dataclass(frozen=True)
class Profile:
    """Input scale and program settings shared by every workload."""

    scale: gen.Scale
    norm_window: int
    pca_window: int
    window: int
    final_count: int
    train: tuple[str, str]           # split dates, end exclusive
    validation: tuple[str, str]
    backtest: tuple[str, str]
    train_steps: int                 # train.max_steps of the `train` workload
    module_steps: int                # budget of the modules trained in set-up
    module_batch: int
    retrain_days: int                # gives two boundaries inside the backtest split
    sweep: tuple[tuple[float, int], ...]   # (fee, rebalance interval) per backtest

    def bars(self, split: tuple[str, str]) -> int:
        return (gen.epoch(split[1]) - gen.epoch(split[0])) // INTERVAL

    def config(self, **extra) -> str:
        keys = {
            "refine.norm_window": self.norm_window,
            "refine.pca_window": self.pca_window,
            "cm.window": self.window,
            "horizon.final_count": self.final_count,
            "split.train": ":".join(self.train),
            "split.validation": ":".join(self.validation),
            "split.backtest": ":".join(self.backtest),
            **extra,
        }
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


PAPER = Profile(
    scale=gen.Scale(),
    norm_window=50,
    pca_window=200,
    window=32,
    final_count=10,
    train=("2020-10-01", "2022-01-01"),
    validation=("2022-01-01", "2022-03-01"),
    backtest=("2022-03-01", "2022-10-01"),
    train_steps=200,
    module_steps=40,
    module_batch=16,
    retrain_days=90,
    sweep=((0.001, 1), (0.0025, 6)),
)

SMOKE = Profile(
    scale=gen.Scale(n_bars=480, n_noise=4, n_daily=3, update_overlap_bars=20, update_bars=40),
    norm_window=10,
    pca_window=30,
    window=8,
    final_count=4,
    train=("2020-10-01", "2020-12-20"),
    validation=("2020-12-20", "2021-01-09"),
    backtest=("2021-01-09", "2021-01-29"),
    train_steps=40,
    module_steps=24,
    module_batch=8,
    retrain_days=7,
    sweep=((0.001, 1), (0.0025, 4)),
)


@dataclass
class Rep:
    """One timed repetition: its commands, work items and check outcomes."""

    cmds: list[Cmd]
    wall: float = 0.0
    items: int = 0
    items_wall: float = 0.0
    rates: dict[str, float] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _data_rows(text: str) -> int:
    return text.count("\n") - 1


def _accepted(metrics_text: str) -> tuple[int, int]:
    """(accepted rows, distinct names) of a metrics CSV text."""
    rows = 0
    names = set()
    for line in metrics_text.splitlines()[1:]:
        _, name, value = line.split(",")
        if value not in gen.NONFINITE_TEXT:
            rows += 1
            names.add(name)
    return rows, len(names)


class Workload:
    name = ""

    def __init__(self, profile: Profile, seed: int, work: Path):
        self.p = profile
        self.seed = seed
        self.work = work
        self.conf = work / "conf"
        self.inputs = work / "inputs"
        self.store = work / "store"

    # set-up helpers ----------------------------------------------------------

    def _write_conf(self, name: str, **extra) -> None:
        self.conf.mkdir(parents=True, exist_ok=True)
        (self.conf / name).write_text(self.p.config(**extra))

    def _generate(self, symbols) -> dict[str, gen.AssetInputs]:
        made = {s: gen.make_asset(self.p.scale, self.seed, s) for s in symbols}
        for inputs in made.values():
            gen.write_asset(inputs, self.inputs)
        return made

    def _base(self, *argv) -> list[str]:
        return ["--data-dir", str(self.store), "-c", str(self.conf / "base.conf"), *argv]

    def _ingest_all(self, run, symbols) -> list[Cmd]:
        return [
            run(self._base("ingest", "--asset", s,
                           "--ohlcv", str(self.inputs / f"{s}_ohlcv.csv"),
                           "--metrics", str(self.inputs / f"{s}_metrics.csv")))
            for s in symbols
        ]

    def _modules(self, run, symbols) -> list[Cmd]:
        """Train SAM-only modules on the set-up budget and register them."""
        models = self.work / "models"
        cmds = [run(["--data-dir", str(self.store), "-c", str(self.conf / "module.conf"), "train-cm",
                     "--assets", ",".join(symbols), "--seed", str(self.seed),
                     "--jobs", "1", "--out-dir", str(models)])]
        for s in symbols:
            cmds.append(run(self._base("registry", "add", str(models / f"{s}-USDT.cm"),
                                       "--registry", str(self.work / "registry"))))
        return cmds

    # interface ---------------------------------------------------------------

    def prepare(self) -> None:
        """Write the config files and generate the inputs (not timed)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Remove everything the set-up commands wrote."""
        for path in (self.store, self.work / "models", self.work / "registry"):
            wipe(path)

    def setup(self, run) -> list[Cmd]:
        raise NotImplementedError

    def advance(self) -> None:
        """Move to the next repetition's input, for workloads that rotate."""

    def before_rep(self, rep_dir: Path) -> None:
        rep_dir.mkdir(parents=True, exist_ok=True)

    def rep(self, run, rep_dir: Path) -> Rep:
        raise NotImplementedError

    def check(self, rep: Rep, rep_dir: Path, child) -> None:
        raise NotImplementedError


def _expect(rep: Rep, name: str, ok: bool, detail: str = "") -> None:
    rep.checks.append((name, bool(ok), "" if ok else detail))


# ---------------------------------------------------------------------------


class IngestRefine(Workload):
    """Set-up ingests the three assets' base files into one store.  Each
    repetition then ingests, updates and refines one asset on a fresh store;
    the asset rotates through the three at each ``advance``."""

    name = "ingest_refine"
    symbols = ("BTC", "ETH", "SOL")
    turn = 0

    def prepare(self) -> None:
        self._write_conf("base.conf")
        s = self.p.scale
        cut = gen.T0 + INTERVAL * (s.n_bars - s.update_bars)
        overlap = cut - INTERVAL * s.update_overlap_bars
        self.expect = {}
        for sym in self.symbols:
            full = gen.make_asset(s, self.seed, sym)
            parts = {}
            for kind, text in (("ohlcv", full.ohlcv), ("metrics", full.metrics)):
                parts[kind] = gen.split_text(text, cut, overlap)
            self.inputs.mkdir(parents=True, exist_ok=True)
            for i, phase in enumerate(("base", "update")):
                (self.inputs / f"{sym}_{phase}_ohlcv.csv").write_text(parts["ohlcv"][i])
                (self.inputs / f"{sym}_{phase}_metrics.csv").write_text(parts["metrics"][i])
            base_bars = _data_rows(parts["ohlcv"][0])
            self.expect[sym] = {
                "base": (base_bars, *_accepted(parts["metrics"][0])),
                "update": (s.n_bars - base_bars, *_accepted(parts["metrics"][1])),
                "rows": {ph: _data_rows(parts["ohlcv"][i]) + _data_rows(parts["metrics"][i])
                         for i, ph in enumerate(("base", "update"))},
                "stored": full.stored,
                "kept": len(full.metric_names) - 1,  # the gappy metric is dropped
            }

    def setup(self, run) -> list[Cmd]:
        return [
            run(self._base("ingest", "--asset", sym,
                           "--ohlcv", str(self.inputs / f"{sym}_base_ohlcv.csv"),
                           "--metrics", str(self.inputs / f"{sym}_base_metrics.csv")))
            for sym in self.symbols
        ]

    def advance(self) -> None:
        self.turn += 1

    def before_rep(self, rep_dir: Path) -> None:
        super().before_rep(rep_dir)
        wipe(self.store)

    def rep(self, run, rep_dir: Path) -> Rep:
        sym = self.symbols[self.turn % len(self.symbols)]
        cmds = []
        for phase in ("base", "update"):
            cmds.append(run(self._base(
                "ingest", "--asset", sym,
                "--ohlcv", str(self.inputs / f"{sym}_{phase}_ohlcv.csv"),
                "--metrics", str(self.inputs / f"{sym}_{phase}_metrics.csv"))))
        cmds.append(run(self._base(
            "refine", "--asset", sym,
            "--table", str(rep_dir / f"{sym}_table.csv"),
            "--out", str(rep_dir / f"{sym}_refined.csv"))))
        ingest_rows = sum(self.expect[sym]["rows"].values())
        refine_bars = self.p.bars(self.p.train)
        ingest_wall = cmds[0].wall + cmds[1].wall
        refine_wall = cmds[2].wall
        return Rep(
            cmds,
            items=ingest_rows + refine_bars,
            items_wall=ingest_wall + refine_wall,
            rates={"ingest_rows_per_s": ingest_rows / ingest_wall,
                   "refine_bars_per_s": refine_bars / refine_wall},
        )

    def check(self, rep: Rep, rep_dir: Path, child) -> None:
        sym = rep.cmds[0].argv[rep.cmds[0].argv.index("--asset") + 1]
        for i, phase in enumerate(("base", "update")):
            bars, points, names = self.expect[sym][phase]
            want = (f"{sym}-USDT: {bars} new bars\n"
                    f"{sym}-USDT: {points} metric points across {names} metrics\n")
            got = rep.cmds[i].out
            _expect(rep, f"ingest counts {phase} {sym}", got == want, f"printed {got!r}, want {want!r}")
        manifest = json.loads((self.store / "manifest.json").read_text())
        entry = manifest["assets"].get(f"{sym}-USDT", {})
        _expect(rep, f"manifest bars {sym}", entry.get("bars") == self.p.scale.n_bars,
                f"manifest bars {entry.get('bars')}")
        _expect(rep, f"manifest metrics {sym}", entry.get("metrics") == self.expect[sym]["stored"],
                "manifest metric counts differ from the generated rows")
        valid = self.p.bars(self.p.train) - (self.p.norm_window - 1) - (self.p.pca_window - 1)
        table = rep_dir / f"{sym}_table.csv"
        refined = rep_dir / f"{sym}_refined.csv"
        rows = _data_rows(table.read_text())
        _expect(rep, f"table rows {sym}", rows == self.expect[sym]["kept"] * 3, f"{rows} table rows")
        rows = _data_rows(refined.read_text())
        _expect(rep, f"refined rows {sym}", rows == valid, f"{rows} refined rows, want {valid}")
        rep.digests[f"{sym}_table.csv"] = sha256(table)
        rep.digests[f"{sym}_refined.csv"] = sha256(refined)


class Train(Workload):
    name = "train"
    symbol = "BTC"

    def prepare(self) -> None:
        self._write_conf("base.conf")
        self._write_conf("train.conf", **{"train.max_steps": self.p.train_steps})
        self._generate([self.symbol])

    def setup(self, run) -> list[Cmd]:
        return self._ingest_all(run, [self.symbol])

    def rep(self, run, rep_dir: Path) -> Rep:
        cmd = run(["--data-dir", str(self.store), "-c", str(self.conf / "train.conf"),
                   "train-cm", "--assets", self.symbol, "--use-eam", "--seed", str(self.seed),
                   "--jobs", "1", "--out-dir", str(rep_dir / "models")])
        steps = 2 * self.p.train_steps  # signal agent plus allocation agent
        return Rep([cmd], items=steps, items_wall=cmd.wall,
                   rates={"train_steps_per_s": steps / cmd.wall})

    def check(self, rep: Rep, rep_dir: Path, child) -> None:
        from chainfolio.cryptomodule import load_cm

        path = rep_dir / "models" / f"{self.symbol}-USDT.cm"
        _expect(rep, "train-cm output line", rep.cmds[0].out == f"{self.symbol}-USDT\t{path}\n",
                f"printed {rep.cmds[0].out!r}")
        cm = load_cm(path)
        _expect(rep, "load_cm", cm.eam_net is not None and cm.use_eam, "module lacks the signal agent")
        add = child(["--data-dir", str(self.store), "registry", "add", str(path),
                     "--registry", str(rep_dir / "registry")])
        _expect(rep, "registry add", add.code == 0 and add.out == f"registered {self.symbol}-USDT\n",
                f"exit {add.code}: {add.err[-300:]}")
        rep.digests[path.name] = sha256(path)


class _BacktestBase(Workload):
    symbols: tuple[str, ...] = ()

    def prepare(self) -> None:
        self._write_conf("base.conf")
        self._write_conf("module.conf", **{
            "train.max_steps": self.p.module_steps, "train.batch": self.p.module_batch})
        self.made = self._generate(self.symbols)

    def setup(self, run) -> list[Cmd]:
        return self._ingest_all(run, self.symbols) + self._modules(run, self.symbols)

    def _backtest(self, run, out: Path, fee: float, interval: int, retrain_days: int) -> list[Cmd]:
        bt = run(self._base("backtest", "--portfolio", ",".join(self.symbols),
                            "--fee", repr(fee), "--rebalance-interval", str(interval),
                            "--retrain-days", str(retrain_days),
                            "--registry", str(self.work / "registry"), "--out", str(out)))
        report = run(self._base("report", "--report", str(out), "--format", "csv"))
        return [bt, report]

    def _runs(self) -> list[tuple[str, float, int, int]]:
        raise NotImplementedError

    def rep(self, run, rep_dir: Path) -> Rep:
        cmds = []
        for label, fee, interval, days in self._runs():
            cmds += self._backtest(run, rep_dir / label, fee, interval, days)
        asset_bars = self.p.bars(self.p.backtest) * len(self.symbols) * len(self._runs())
        bt_wall = sum(c.wall for c in cmds[0::2])
        return Rep(cmds, items=asset_bars, items_wall=bt_wall,
                   rates={"backtest_bars_per_s": asset_bars / bt_wall})

    def check(self, rep: Rep, rep_dir: Path, child) -> None:
        start = gen.epoch(self.p.backtest[0])
        end = gen.epoch(self.p.backtest[1]) - INTERVAL
        n = self.p.bars(self.p.backtest)
        o = (start - gen.T0) // INTERVAL
        for i, (label, _, _, days) in enumerate(self._runs()):
            out = rep_dir / label
            doc = json.loads((out / "report.json").read_text())
            curves = doc["curves"]
            _expect(rep, f"{label} curve length", all(len(v) == n for v in curves.values()),
                    "curves do not span the backtest split")
            for sym in self.symbols:
                closes = self.made[sym].closes
                want = CAPITAL * (closes[o : o + n] / closes[o])
                got = np.asarray(curves.get(f"baseline_{sym}", []))
                ok = got.shape == want.shape and np.allclose(got, want, rtol=1e-12, atol=0.0)
                _expect(rep, f"{label} baseline {sym}", ok, "baseline != capital x close ratio")
            _expect(rep, f"{label} report csv", _csv_matches(rep.cmds[2 * i + 1].out, doc["summary"]),
                    "report --format csv disagrees with report.json")
            step = days * 86_400
            boundaries = len(range(start + step, end, step)) if days else 0
            got = len(doc["retrain_events"])
            _expect(rep, f"{label} retrain events", got == boundaries * len(self.symbols),
                    f"{got} retrain events, want {boundaries} x {len(self.symbols)}")
            rep.digests[f"{label}/report.json"] = sha256(out / "report.json")
            rep.digests[f"{label}/curves.csv"] = sha256(out / "curves.csv")


def _csv_matches(text: str, summary: dict) -> bool:
    lines = text.splitlines()
    names = lines[0].split(",")[1:]
    if sorted(names) != sorted(summary):
        return False
    for line in lines[1:]:
        metric, *cells = line.split(",")
        for name, cell in zip(names, cells):
            want = summary[name][metric]
            want = math.inf if want == "+inf" else want
            if float(cell) != want:
                return False
    return len(lines) == 4


class Backtest(_BacktestBase):
    name = "backtest"
    symbols = ("BTC", "ETH", "SOL")

    def _runs(self):
        return [(f"fee{fee}_every{interval}", fee, interval, 0) for fee, interval in self.p.sweep]


class Retrain(_BacktestBase):
    name = "retrain"
    symbols = ("BTC", "ETH")

    def _runs(self):
        return [(f"retrain{self.p.retrain_days}d", 0.001, 1, self.p.retrain_days)]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (IngestRefine, Train, Backtest, Retrain)
}


def wipe(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)
