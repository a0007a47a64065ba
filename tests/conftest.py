import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# the tests that run ``python -m chainfolio.cli`` in a subprocess import the
# package from src/ too, as pyproject's ``pythonpath`` lets pytest itself do
_SRC = str(Path(__file__).resolve().parents[1] / "src")
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
