"""Flat text config files: one `key = value` per line.

Blank lines and `#` comments are ignored.  Every key must be known and
typed correctly or parsing fails loudly — a typo in an experiment config
should never silently fall back to a default.
"""

from __future__ import annotations

from dataclasses import MISSING, fields

from . import table
from .engine import SimConfig
from .errors import ConfigError
from .sweep import SweepConfig


def _int_list(raw: str) -> tuple:
    try:
        return tuple(table.parse_int(part.strip()) for part in raw.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from None


# field annotation -> parser of its `key = value` text
_PARSERS = {"int": table.parse_int, "float": table.parse_float,
            "float | None": table.parse_float, "tuple": _int_list}
_KEY_TYPES = {
    f.name: _PARSERS[f.type] for cls in (SimConfig, SweepConfig) for f in fields(cls)
}


def parse_config_text(text: str) -> dict:
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEY_TYPES[key](raw_value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad value {raw_value!r} for {key!r}"
            ) from None
    return values


def load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _config_from_mapping(cls, what: str, values: dict, overrides: dict):
    """Build and validate ``cls`` from parsed keys; None overrides are unset flags."""
    merged = dict(values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(merged) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"keys not valid for {what}: {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in merged]
    if missing:
        raise ConfigError(f"{what} needs keys {missing}")
    config = cls(**merged)
    config.validate()
    return config


def sim_config_from_mapping(values: dict, **overrides) -> SimConfig:
    return _config_from_mapping(SimConfig, "a single run", values, overrides)


def sweep_config_from_mapping(values: dict, **overrides) -> SweepConfig:
    return _config_from_mapping(SweepConfig, "a sweep", values, overrides)


def dump_config(config) -> str:
    """One `key = value` line per field: reads back to an equal config."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
