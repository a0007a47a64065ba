"""chainfolio benchmark: the real CLI, one command at a time.

Usage (from the repository root):

    python3 bench/run.py --workload train --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload backtest --seed 1 --seconds 10 --trace 1 --smoke

With ``--trace 0`` every command runs in its own child process, as a user
would run it, and the end-to-end metrics are reported.  With ``--trace 1``
the same commands run in-process through ``chainfolio.cli.main`` with
wrappers around every layer, and the per-layer metrics are reported.
The last line of standard output is one JSON object; see bench/README.md.
"""

from __future__ import annotations

import os

# single-threaded BLAS in this process and every child, set before numpy loads
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import logging
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import Cmd  # noqa: E402

#: wall-clock budget of one workload's run; commands are killed past it
DEADLINE_S = 170.0
SETUP_REPEATS = 3
STARTUP_SAMPLES = 5
MIN_TRACED_REPS = 2

def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit of one list in BENCHMARK.json, in its order."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


# ---------------------------------------------------------------------------
# Running CLI commands


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CHAINFOLIO_DATA_DIR", None)
    return env


class ChildRunner:
    """Runs ``python -m chainfolio.cli ARGV`` in a child process and reaps it
    with ``wait4`` to read its peak resident set size."""

    def __init__(self, scratch: Path, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.env = child_env()

    def __call__(self, argv: list[str]) -> Cmd:
        return self.python(["-m", "chainfolio.cli", *argv], argv)

    def python(self, args: list[str], label: list[str]) -> Cmd:
        out_path, err_path = self.scratch / "child.out", self.scratch / "child.err"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=self.scratch)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Cmd(label, proc.returncode, out_path.read_text(), err_path.read_text(),
                   wall, usage.ru_maxrss / 1024.0)


class InProcessRunner:
    """Runs ``chainfolio.cli.main(ARGV)`` in this process, optionally under a tracer."""

    def __init__(self, tracer=None):
        from chainfolio import cli

        self.cli = cli
        self.tracer = tracer

    def __call__(self, argv: list[str]) -> Cmd:
        command = next(a for a in argv if a in _COMMAND_WORDS)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = self.tracer.command_span(command, lambda: self.cli.main(argv))
        except Exception:  # a crash is this command's failure, not the run's
            code = 1
            err.write(traceback.format_exc())
        return Cmd(argv, code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


_COMMAND_WORDS = {*tracing.COMMANDS, "registry"}


# ---------------------------------------------------------------------------
# One run of one workload


class Tally:
    """Attempted and failed operations: CLI commands plus output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def commands(self, cmds: list[Cmd]) -> bool:
        ok = True
        for c in cmds:
            self.attempted += 1
            if c.code != 0:
                self.failed += 1
                ok = False
                tail = c.err.strip().splitlines()[-1:] or [""]
                self.problems.append(f"exit {c.code}: {' '.join(c.argv[:6])} ... {tail[0]}")
        return ok

    def checks(self, checks: list[tuple[str, bool, str]]) -> None:
        for name, ok, detail in checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.problems.append(f"check failed: {name}: {detail}")


def run_rep(workload, runner, rep_dir: Path, tally: Tally, child) -> wl.Rep:
    workload.before_rep(rep_dir)
    start = time.perf_counter()
    rep = workload.rep(runner, rep_dir)
    rep.wall = time.perf_counter() - start
    if tally.commands(rep.cmds):
        try:
            workload.check(rep, rep_dir, child)
        except Exception as exc:  # a crashed check is a failed check
            rep.checks.append(("output checks", False, f"{type(exc).__name__}: {exc}"))
    else:
        rep.checks.append(("output checks", False, "skipped after a failed command"))
    tally.checks(rep.checks)
    return rep


def identity_checks(reps: list[wl.Rep]) -> list[tuple[str, bool, str]]:
    """Each artifact must be byte-identical to the first repetition's that wrote it."""
    out = []
    first: dict[str, tuple[int, str]] = {}
    for k, rep in enumerate(reps):
        for name, digest in rep.digests.items():
            if name in first:
                j, want = first[name]
                out.append((f"rep {k} {name} identical", digest == want, f"bytes differ from rep {j}"))
            else:
                first[name] = (k, digest)
    return out


def setup_workload(name: str, profile, seed: int, work: Path, child, tally: Tally, repeats: int):
    """Generate the inputs once, then run the set-up commands ``repeats`` times,
    each from an empty store; returns (workload, seconds of each set-up).
    Only the set-up commands are timed, not the input generation."""
    wl.wipe(work)
    workload = wl.WORKLOADS[name](profile, seed, work)
    workload.prepare()
    times = []
    for _ in range(repeats):
        workload.reset()
        start = time.perf_counter()
        cmds = workload.setup(child)
        times.append(time.perf_counter() - start)
        if not tally.commands(cmds):
            break
    return workload, times


def keep_going(started: float, seconds: float, last_wall: float, reps: int, min_reps: int) -> bool:
    """Start another repetition only if it is expected to end inside the run."""
    if reps < min_reps:
        return True
    return time.perf_counter() - started + last_wall <= seconds


def run_untraced(name, profile, seed, seconds, work, deadline) -> dict:
    tally = Tally()
    child = ChildRunner(work, deadline)
    workload, setup_times = setup_workload(name, profile, seed, work / "w", child, tally, SETUP_REPEATS)
    reps: list[wl.Rep] = []
    started = time.perf_counter()
    while not tally.failed and keep_going(started, seconds, reps[-1].wall if reps else 0.0, len(reps), 1):
        reps.append(run_rep(workload, child, work / f"rep{len(reps)}", tally, child))
        workload.advance()
    if reps:
        tally.checks(identity_checks(reps))
    rss = [c.rss_mb for r in reps for c in r.cmds]
    metrics = {
        "wall_s": _median([r.wall for r in reps]),
        "items_per_s": _median([r.items / r.items_wall for r in reps if r.items_wall > 0]),
        "peak_rss_mb": max(rss) if rss else 0.0,
        "op_success_ratio": 1.0 - tally.failed / max(tally.attempted, 1),
        "setup_s": _median(setup_times),
    }
    rates = {k: _median([r.rates[k] for r in reps]) for k in (reps[0].rates if reps else {})}
    return {
        "metrics": {k: (metrics[k], unit) for k, unit in declared("end_to_end").items()},
        "stage_rates": rates,
        "reps": len(reps),
        "rep_walls": [r.wall for r in reps],
        "setup_samples": setup_times,
        "tally": tally,
        "digests": reps[0].digests if reps else {},
    }


def measure_startup(work: Path, deadline: float) -> tuple[float, float]:
    """Median (import seconds, whole start-up seconds) of a fresh interpreter
    that imports chainfolio.cli and exits."""
    child = ChildRunner(work, deadline)
    code = ("import time; t = time.perf_counter(); import chainfolio.cli; "
            "print(time.perf_counter() - t)")
    imports, walls = [], []
    for _ in range(STARTUP_SAMPLES):
        cmd = child.python(["-c", code], ["import chainfolio.cli"])
        if cmd.code == 0:
            imports.append(float(cmd.out))
            walls.append(cmd.wall)
    return _median(imports), _median(walls)


def run_traced(name, profile, seed, seconds, work, deadline) -> dict:
    tally = Tally()
    child = ChildRunner(work, deadline)
    workload, _ = setup_workload(name, profile, seed, work / "w", child, tally, 1)
    # a root handler keeps cli.main from installing its stderr logging
    logging.getLogger().addHandler(logging.NullHandler())
    logging.getLogger().setLevel(logging.WARNING)
    untraced_runner = InProcessRunner()
    tracer = tracing.Tracer(workload.store)
    traced_runner = InProcessRunner(tracer)
    reps: list[wl.Rep] = []
    untraced_walls, per_rep, counts_per_rep = [], [], []
    started = time.perf_counter()
    # untraced and traced repetitions alternate, so drift in machine speed
    # affects both sides of the overhead ratio alike; both repetitions of a
    # pair run the same input
    while not tally.failed and keep_going(started, seconds, sum(r.wall for r in reps[-2:]),
                                          len(per_rep), MIN_TRACED_REPS):
        reps.append(run_rep(workload, untraced_runner, work / f"rep{len(reps)}", tally, child))
        untraced_walls.append(reps[-1].wall)
        first_cmd = tracer.command + 1
        before = tracer.counts.copy()
        tracer.install()
        try:
            rep = run_rep(workload, traced_runner, work / f"rep{len(reps)}", tally, child)
        finally:
            tracer.uninstall()
        reps.append(rep)
        counts = tracer.counts.copy()
        counts.subtract(before)
        agg, samples = tracer.summarize(range(first_cmd, tracer.command + 1))
        per_rep.append((tracing.layer_metrics(agg, counts), samples, rep.wall))
        counts_per_rep.append({k: counts[k] for k in tracing.EXACT_COUNTS})
        workload.advance()
    tally.checks(identity_checks(reps))
    for k, counts in enumerate(counts_per_rep[1:], start=1):
        drift = {c: (counts_per_rep[0][c], v) for c, v in counts.items() if v != counts_per_rep[0][c]}
        tally.checks([(f"exact counts repeat in traced rep {k}", not drift,
                       f"benchmark bug: counts drifted between repetitions {drift}")])

    import_s, startup_s = measure_startup(work, deadline)
    tracer.write(work / "trace.jsonl")

    values: dict[str, float] = {}
    if per_rep:
        for key, first in per_rep[0][0].items():
            # counts repeat exactly (checked above); times take the median
            values[key] = first if isinstance(first, int) else _median([m[key] for m, _, _ in per_rep])
        pooled = {n: [d for _, s, _ in per_rep for d in s.get(n, [])] for n in tracing.SAMPLED}
        steps = pooled["rlcore.train_step.eam-1d"] + pooled["rlcore.train_step.sam-4layer"]
        values["rlcore.train_step.ms_p50"] = _median(steps) * 1e3
        values["rlcore.train_step.sam_ms_p50"] = _median(pooled["rlcore.train_step.sam-4layer"]) * 1e3
        values["rlcore.qnet.forward_b1.us_p50"] = _median(pooled["rlcore.qnet.forward_b1"]) * 1e6
        values["cryptomodule.allocate.us_p50"] = _median(pooled["cryptomodule.allocate"]) * 1e6
        traced_wall = _median([w for _, _, w in per_rep])
        values["trace.untraced_wall_s"] = _median(untraced_walls)
        values["trace.traced_wall_s"] = traced_wall
        values["trace.overhead_ratio"] = traced_wall / values["trace.untraced_wall_s"]
    commands = len(reps[0].cmds) if reps else 0
    values["cli.import_s"] = import_s
    values["cli.startup_s"] = startup_s
    values["cli.commands"] = commands
    values["trace.startup_left_out_s"] = commands * startup_s
    units = declared("per_layer")
    if per_rep and set(units) - set(values):
        raise KeyError(f"per-layer metrics not computed: {sorted(set(units) - set(values))}")
    return {
        "metrics": {k: (values.get(k, 0.0), unit) for k, unit in units.items()},
        "stage_rates": {},
        "reps": len(per_rep),
        "rep_walls": [r.wall for r in reps],
        "tally": tally,
        "digests": reps[0].digests if reps else {},
        "spans": len(tracer.spans),
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Context recorded with every result


def machine_context(args, reps: int) -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "seed": args.seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "trace": args.trace,
        "profile": "smoke" if args.smoke else "paper",
        "run_seconds": args.seconds,
        "samples": reps,
    }


def run_one(name: str, args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    profile = wl.SMOKE if args.smoke else wl.PAPER
    work = ROOT / ".bench_run" / f"{name}-trace{args.trace}"
    wl.wipe(work)
    work.mkdir(parents=True)
    runner = run_traced if args.trace else run_untraced
    result = runner(name, profile, args.seed, args.seconds, work, deadline)
    result["context"] = machine_context(args, result["reps"])
    tally = result.pop("tally")
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    (work / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def print_result(name: str, result: dict) -> None:
    print(f"== {name}: {result['reps']} repetition(s); context {json.dumps(result['context'], sort_keys=True)}")
    for key, (value, unit) in result["metrics"].items():
        print(f"{name}  {key:36s} {value:16.6f} {unit}")
    for key, value in result["stage_rates"].items():
        print(f"{name}  {key:36s} {value:16.6f} 1/s")
    ratio = result["failed"] / max(result["attempted"], 1)
    print(f"{name}  {'op_failure_ratio':36s} {ratio:16.6f} ratio "
          f"({result['failed']} of {result['attempted']} commands and checks failed)")
    for name_, digest in sorted(result["digests"].items()):
        print(f"{name}  digest {name_} {digest}")
    for problem in result["problems"]:
        print(f"{name}  PROBLEM {problem}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-size inputs, for the harness test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chainfolio" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: need {SRC / 'chainfolio'} and {ROOT / 'BENCHMARK.json'}", file=sys.stderr)
        return 2
    # SIGTERM raises KeyboardInterrupt, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_one(name, args)
        print_result(name, results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
