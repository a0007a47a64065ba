"""Each setting has one default, on the field of the settings dataclass that
holds it: no src/ function gives a default to a parameter named after a
config key's field, and no other class gives one to a field of that name."""

import ast
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

from chainfolio.config import CONFIG_KEYS, RunConfig

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))

#: the field name of every config key, e.g. interval, fill_limit, norm_window, seed
SETTING_NAMES = {at[-1] for at, _ in CONFIG_KEYS.values()}


def settings_classes(cls=RunConfig) -> set[str]:
    """Names of ``cls`` and of every dataclass nested in its fields."""
    hints = get_type_hints(cls)
    names = {cls.__name__}
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            names |= settings_classes(hints[f.name])
    return names


def setting_defaults(source: str, names: set[str], owners: set[str]) -> list[str]:
    """``function(parameter)`` of each defaulted parameter in ``names``, and
    ``Class.field`` of each defaulted class field in ``names`` outside the
    classes ``owners``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            name = getattr(node, "name", "<lambda>")
            found += [f"{name}({arg.arg})" for arg in defaulted if arg.arg in names]
        elif isinstance(node, ast.ClassDef) and node.name not in owners:
            found += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                      and stmt.value is not None and stmt.target.id in names]
    return found


def test_setting_defaults_are_found():
    source = (
        "def align(self, asset, interval: int, fill_limit: int = 4, row=None): pass\n"
        "def f(a, *, seed=0, b=1): return lambda epsilon=1e-8: a\n"
        "class Backtest:\n    interval: int = 21600\n    assets: tuple = ()\n"
        "class Settings:\n    interval: int = 21600\n"
    )
    assert setting_defaults(source, {"interval", "fill_limit", "seed", "epsilon"}, {"Settings"}) == [
        "align(fill_limit)", "f(seed)", "Backtest.interval", "<lambda>(epsilon)"]


def test_settings_classes_are_the_run_config_and_its_nested_dataclasses():
    assert settings_classes() == {"RunConfig", "Splits", "CmSettings", "HorizonConfig", "TrainConfig", "RewardConfig"}


def test_only_the_settings_dataclasses_default_a_setting():
    owners = settings_classes()
    found = [f"{path.relative_to(ROOT)}: {where}"
             for path in SOURCES for where in setting_defaults(path.read_text(), SETTING_NAMES, owners)]
    assert found == []
