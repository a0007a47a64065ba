"""Every name a module in src/ or tests/ imports is used in that module,
every class or function it imports from the package comes from the module
that defines it, and the pipeline's commands load no module that only
adds to their start-up."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

from chainfolio.datastore import CsvStore

from _synth import bar_ts, make_asset
from test_config_cli import small_config

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never loaded, except those in ``__all__``
    (re-exports) and ``from __future__`` features."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, numpy.linalg\nfrom a import b, c as d\n__all__ = ['b']\nnumpy\n"
    assert unused_imports(source) == ["d", "os"]


def test_every_import_is_used():
    unused = [f"{path.relative_to(ROOT)}: {name}" for path in SOURCES for name in unused_imports(path.read_text())]
    assert unused == []


def package_imports(source: str, package: str) -> list[tuple[str, str]]:
    """(module, name) of each ``from <chainfolio module> import name`` in a
    module of ``package``, relative imports resolved against it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        base = package.rsplit(".", node.level - 1)[0] if node.level else ""
        module = ".".join(part for part in (base, node.module) if part)
        if module.partition(".")[0] == "chainfolio":
            found += [(module, alias.name) for alias in node.names]
    return found


def test_package_imports_are_resolved():
    source = "from ..datastore import a\nfrom .network import b\nfrom chainfolio.x import c\nfrom os import d\n"
    assert package_imports(source, "chainfolio.rlcore") == [
        ("chainfolio.datastore", "a"), ("chainfolio.rlcore.network", "b"), ("chainfolio.x", "c")]


def test_every_class_or_function_is_imported_from_its_own_module():
    """No re-export layer: a class or function is imported from where it is
    defined, not through a module that imported it in turn."""
    src = ROOT / "src"
    misplaced = []
    for path in SOURCES:
        parts = path.relative_to(src).parent.parts if path.is_relative_to(src) else ()
        for module, name in package_imports(path.read_text(), ".".join(parts) or "tests"):
            value = getattr(importlib.import_module(module), name)
            if (inspect.isclass(value) or inspect.isfunction(value)) and value.__module__ != module:
                misplaced.append(f"{path.relative_to(ROOT)}: {name} from {module}, defined in {value.__module__}")
    assert misplaced == []


def test_only_the_refinery_imports_the_rolling_transforms():
    """Every other module refines through ``refine_features``, which decides
    the rows to fit, so the benchmark's traced refit count, taken from the
    wrapped ``chainfolio.refinery.rolling_pca``, sees every fit."""
    bound = [
        f"{path.relative_to(ROOT)}: {alias.name}"
        for path in (ROOT / "src").rglob("*.py") if path.name != "refinery.py"
        for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in ("rolling_pca", "rolling_normalize")
    ]
    assert bound == []


def chainfolio_modules_loaded_by(module: str) -> set[str]:
    """The chainfolio modules a fresh interpreter holds after importing ``module``."""
    code = (f"import json, sys, {module}\n"
            "print(json.dumps([name for name in sys.modules if name.partition('.')[0] == 'chainfolio']))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_the_store_and_the_rl_core_load_no_layer_above_them():
    """``datastore`` loads only the container and the errors; no module of
    ``rlcore`` loads a chainfolio module outside ``rlcore`` but ``errors``."""
    assert chainfolio_modules_loaded_by("chainfolio.datastore") == {
        "chainfolio", "chainfolio.container", "chainfolio.datastore", "chainfolio.errors"}
    for path in sorted((ROOT / "src" / "chainfolio" / "rlcore").glob("*.py")):
        module = "chainfolio.rlcore" + ("" if path.stem == "__init__" else f".{path.stem}")
        outside = {name for name in chainfolio_modules_loaded_by(module)
                   if name not in ("chainfolio", "chainfolio.errors") and not name.startswith("chainfolio.rlcore")}
        assert outside == set(), module


def test_commands_load_neither_numpy_ma_nor_strptime(tmp_path):
    """``numpy.ma`` (loaded by ``np.unique`` and ``np.intersect1d``) and
    ``_strptime`` (loaded by ``datetime.strptime``) cost every command
    start-up time; refine, train-cm and backtest run without either."""
    data, reg = tmp_path / "store", tmp_path / "registry"
    make_asset(CsvStore(data), "AAA", 140, seed=5)
    common = ["--config", small_config(tmp_path), "--data-dir", str(data)]
    module = str(tmp_path / "models" / "AAA-USDT.cm")
    commands = [
        [*common, "refine", "--asset", "AAA", "--from", str(bar_ts(0)), "--to", str(bar_ts(139)),
         "--out", str(tmp_path / "refined.csv")],
        [*common, "train-cm", "--assets", "AAA", "--out-dir", str(tmp_path / "models")],
        [*common, "registry", "add", module, "--registry", str(reg)],
        [*common, "backtest", "--portfolio", "AAA", "--from", str(bar_ts(100)), "--to", str(bar_ts(139)),
         "--registry", str(reg), "--out", str(tmp_path / "report")],
    ]
    code = ("import json, sys\n"
            "from chainfolio.cli import main\n"
            "assert [main(argv) for argv in json.loads(sys.argv[1])] == [0, 0, 0, 0]\n"
            "print(json.dumps([name for name in ('numpy.ma', '_strptime') if name in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_loading_a_module_draws_no_random_numbers():
    """A loaded net takes its stored parameters, so ``load_cm`` leaves
    ``numpy.random`` unloaded, as a backtest without retrains and every
    ``registry`` command do."""
    code = ("import sys\n"
            "from chainfolio.cryptomodule import load_cm\n"
            f"load_cm({str(ROOT / 'tests' / 'fixtures' / 'sam_eam.cm')!r})\n"
            "print('numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
