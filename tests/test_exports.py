"""The package's public names: every re-export in ``__all__`` resolves, and
importing the command line loads every module of the package."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import chainfolio


@pytest.mark.parametrize("module", ["chainfolio.rlcore"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_importing_the_cli_loads_every_module():
    """Imports stay eager: the benchmark's tracer imports ``chainfolio.cli``
    and then looks up every module it wraps in ``sys.modules``."""
    root = Path(chainfolio.__file__).parent
    modules = {".".join(("chainfolio", *path.relative_to(root).with_suffix("").parts)).removesuffix(".__init__")
               for path in root.rglob("*.py")}
    code = "import sys, chainfolio.cli; print(*sorted(m for m in sys.modules if m.startswith('chainfolio')))"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split()
    assert sorted(modules) == loaded
