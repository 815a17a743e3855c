"""One reader and one writer for every config dataclass.

``Config.from_dict`` reads JSON by one type rule, keyed on each field's
default: an int takes a whole number, a float a finite int or float (no
bool, string, NaN or ±Infinity), a str a string, a tuple as many finite
numbers, a nested config a JSON object. ``echo`` is ``dataclasses.asdict``.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import ConfigError


def integral(value):
    """``value`` as an int; ValueError unless it is a whole number (64.0 passes,
    64.7, "64" and True do not), so a config value is never silently truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{value!r} is not an integer")


def finite(value):
    """``value`` as a float; ValueError unless it is a finite int or float
    (True, "0.5", NaN and ±Infinity are not)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ValueError(f"{value!r} is not a finite number")


def _read(default, raw, complete):
    if isinstance(default, Config):
        return type(default).from_dict(raw, complete)
    if isinstance(default, tuple):
        if not isinstance(raw, (list, tuple)) or len(raw) != len(default):
            raise ValueError(f"needs {len(default)} numbers, got {raw!r}")
        return tuple(map(finite, raw))
    if isinstance(default, int):
        return integral(raw)
    if isinstance(default, float):
        return finite(raw)
    if not isinstance(raw, str):
        raise ValueError(f"{raw!r} is not a string")
    return raw


class Config:
    """Base of the config dataclasses; each names itself in errors by ``noun``."""

    @classmethod
    def from_dict(cls, d, complete=False):
        """The defaults updated by ``d``. An unknown key is a ConfigError, and
        with ``complete`` so is a missing one, here or in a nested config."""
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.noun} must be a JSON object")
        cfg = cls()
        names = [f.name for f in dataclasses.fields(cls)]
        for key, raw in d.items():
            if key not in names:
                raise ConfigError(f"{cls.noun} {key!r}: unknown key")
            try:
                setattr(cfg, key, _read(getattr(cfg, key), raw, complete))
            except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond float
                raise ConfigError(f"{cls.noun} {key!r}: {exc}") from None
        missing = [name for name in names if name not in d]
        if complete and missing:
            raise ConfigError(f"{cls.noun} is missing keys {missing}")
        return cfg

    def echo(self):
        return dataclasses.asdict(self)
