"""The package's public names: every re-export in ``__all__`` resolves."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["chainfolio", "chainfolio.rlcore"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
