"""Run configuration: plain-text key=value files with CLI overrides.

Format: one `key = value` pair per line, `#` starts a comment, blank
lines ignored.  Keys are dotted (section.field).  Values are parsed per
key: integers, finite floats, booleans (true/false), comma-separated integer
lists, or date ranges `START:END` where each side is an epoch second,
a UTC date `YYYY-MM-DD`, or a full ISO timestamp (end exclusive).

Every key, its default and its parser come from the field of the
dataclass that uses the setting: :class:`RunConfig` holds the run's own
settings and nests the modules' :class:`CmSettings` and the
:class:`Splits`.  Key = section + field name, where the section is the
name of the nested dataclass unless ``_SECTIONS`` names another.

The default splits follow the usual experiment layout: train from
2020-10-01 through 2021-12-31, validation January-February 2022, and
backtest March through September 2022, all UTC.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, is_dataclass
from datetime import datetime, timezone
from functools import reduce
from pathlib import Path
from typing import Mapping, get_type_hints

from .cryptomodule import CmSettings, DataRanges
from .errors import ConfigError
from .portfolio import BacktestConfig
from .serial import from_doc, to_doc

ENV_DATA_DIR = "CHAINFOLIO_DATA_DIR"


def parse_ts(value: str | int) -> int:
    """Epoch seconds from an int, a UTC date, or an ISO timestamp."""
    if isinstance(value, int):
        return value
    text = value.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        if len(text) == 10:
            # the dates strptime(text, "%Y-%m-%d") reads, without loading _strptime at start-up
            date = re.fullmatch(r"(\d{4})-(1[0-2]|0[1-9])-(3[01]|[12]\d|0[1-9]| [1-9])", text)
            if date is None:
                raise ValueError(f"time data {text!r} does not match format '%Y-%m-%d'")
            dt = datetime(*map(int, date.groups()), tzinfo=timezone.utc)
        else:
            dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=timezone.utc)
    except ValueError as exc:
        raise ConfigError(f"cannot parse timestamp {value!r}: {exc}") from None
    return int(dt.timestamp())


def _parse_range(value: str) -> tuple[int, int]:
    parts = value.split(":", 1)
    if len(parts) != 2:
        raise ConfigError(f"range must be START:END, got {value!r}")
    start, end = parse_ts(parts[0]), parse_ts(parts[1])
    if start >= end:
        raise ConfigError(f"range start must precede end in {value!r}")
    return start, end


@dataclass(frozen=True)
class Splits:
    """Train, validation and backtest ranges in end-exclusive epoch seconds."""

    train: tuple[int, int] = _parse_range("2020-10-01:2022-01-01")
    validation: tuple[int, int] = _parse_range("2022-01-01:2022-03-01")
    backtest: tuple[int, int] = _parse_range("2022-03-01:2022-10-01")


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs.  ``cm`` holds the settings every
    module is trained with, but for its training seed, which derives from
    ``seed`` per asset; every other field has a config key (CONFIG_KEYS)."""

    data_dir: str = "data"
    interval: int = 21600            # seconds per bar: 6-hour bars
    fill_limit: int = 4              # most consecutive carried-forward metric values
    seed: int = 0
    use_eam: bool = False
    cm: CmSettings = CmSettings()
    initial_capital: float = 10_000.0
    rebalance_interval: int = 1      # bars between reallocation decisions
    retrain_days: int = 0            # 0 disables scheduled retraining
    split: Splits = Splits()

    def _inclusive(self, split: tuple[int, int]) -> tuple[int, int]:
        return split[0], split[1] - self.interval

    def data_ranges(self) -> DataRanges:
        return DataRanges(
            train=self._inclusive(self.split.train),
            validation=self._inclusive(self.split.validation),
        )

    def backtest_config(
        self, assets: tuple[str, ...], start_ts: int | None = None, end_ts: int | None = None
    ) -> BacktestConfig:
        """The backtest of ``assets`` over the backtest split or [start_ts, end_ts];
        its fee is ``reward.fee_rate``."""
        lo, hi = self._inclusive(self.split.backtest)
        return BacktestConfig(
            assets=assets,
            start_ts=lo if start_ts is None else start_ts,
            end_ts=hi if end_ts is None else end_ts,
            initial_capital=self.initial_capital,
            fee_rate=self.cm.reward.fee_rate,
            rebalance_interval=self.rebalance_interval,
            retrain_days=self.retrain_days,
            interval=self.interval,
            fill_limit=self.fill_limit,
        )


# ---------------------------------------------------------------------------
# Keys and parsing

def _as_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _as_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _as_int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p.strip()) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


#: value parser per field type
_PARSERS = {
    int: int,
    float: _as_finite,
    str: str,
    bool: _as_bool,
    tuple[int, ...]: _as_int_tuple,
    tuple[int, int]: _parse_range,
}

#: section of a scalar field when it is not that of the dataclass holding
#: it: RunConfig's own fields have none, CmSettings' sit under ``cm.``
_SECTIONS = {
    "use_eam": "cm",
    "norm_window": "refine",
    "pca_window": "refine",
    "variance_target": "refine",
    "epsilon": "refine",
    "initial_capital": "backtest",
    "rebalance_interval": "backtest",
    "retrain_days": "backtest",
}

def _keys(cls, path: tuple[str, ...] = (), section: str = ""):
    """(key, attribute path, parser) of every setting under dataclass ``cls``."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        kind = hints[f.name]
        at = path + (f.name,)
        if is_dataclass(kind):
            yield from _keys(kind, at, f.name)
        elif at != ("cm", "train", "seed"):  # derived per module from ``seed``
            sec = _SECTIONS.get(f.name, section)
            yield (f"{sec}.{f.name}" if sec else f.name), at, _PARSERS[kind]


#: dotted config key -> (attribute path in RunConfig, parser)
CONFIG_KEYS: dict[str, tuple[tuple[str, ...], object]] = {
    key: (at, parser) for key, at, parser in _keys(RunConfig)
}


def config_values(cfg: RunConfig) -> dict[str, object]:
    """The value of every config key in ``cfg``."""
    return {key: reduce(getattr, at, cfg) for key, (at, _) in CONFIG_KEYS.items()}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Raw `key = value` pairs as typed values per config key."""
    assignments: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        try:
            assignments[key] = CONFIG_KEYS[key][1](value)
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
    return assignments


def load_config(
    path: str | Path | None = None,
    overrides: Mapping[str, object] | None = None,
    env: Mapping[str, str] | None = None,
) -> RunConfig:
    """Layer a RunConfig: defaults, then file, then environment, then
    overrides (typed values per config key; None leaves a key unset)."""
    assignments: dict[str, object] = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{p}: not UTF-8 text: {exc.reason} (byte 0x{exc.object[exc.start]:02x})") from None
        assignments.update(parse_config_text(text, source=str(p)))
    if env and env.get(ENV_DATA_DIR):
        assignments["data_dir"] = env[ENV_DATA_DIR]
    if overrides:
        assignments.update({k: v for k, v in overrides.items() if v is not None})
    unknown = sorted(set(assignments) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    # set the values in the defaults' document and build every dataclass
    # once from it, so each one's checks see all of its new values together
    doc = to_doc(RunConfig())
    for key, value in assignments.items():
        *parents, name = CONFIG_KEYS[key][0]
        reduce(dict.__getitem__, parents, doc)[name] = value
    cfg = from_doc(RunConfig, doc)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.interval <= 0:
        raise ConfigError("interval must be positive")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    for f in fields(Splits):
        lo, hi = getattr(cfg.split, f.name)
        if hi - cfg.interval < lo:
            raise ConfigError(f"split.{f.name} is shorter than one bar interval")
    cfg.data_ranges()
