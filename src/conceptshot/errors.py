"""Exception types shared across the package, and the config type and
lower-bound checks.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific one that applies.
"""

import math
from dataclasses import fields


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (CLI exit code 2)."""


class DataError(ValueError):
    """Bad graph/dataset contents or an unsatisfiable sampling request (exit code 3)."""


class NumericalError(ArithmeticError):
    """A computation produced NaN/Inf; never silently propagated (exit code 4)."""


_KINDS = {"int": "an integer", "float": "a finite number", "bool": "true or false",
          "str": "a string", "list": "a list", "dict": "an object"}


def _is_kind(value, kind: str) -> bool:
    if isinstance(value, bool):                  # a bool is not a number
        return kind == "bool"
    if kind == "int":
        return isinstance(value, int)
    if kind == "float":
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, {"bool": bool, "str": str, "list": list, "dict": dict}[kind])


def require_types(cfg, section: str, **entries):
    """Every int, float, bool, str, list and dict field of ``cfg``, config
    section ``section``, must hold that type (or a None default); a float
    must also be finite, since a NaN would slip past checks such as
    ``x < 0``.  Each keyword names a list or dict field and the type of its
    entries (a dict's values).  A ``ConfigError`` names '<section>.<field>'."""
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if v is None and f.default is None:
            continue
        if f.type in _KINDS and not _is_kind(v, f.type):
            raise ConfigError(f"{section}.{f.name} must be {_KINDS[f.type]}, got {v!r}")
        kind = entries.get(f.name)
        for key, e in (v.items() if isinstance(v, dict) else enumerate(v)) if kind else ():
            if not _is_kind(e, kind):
                raise ConfigError(
                    f"{section}.{f.name}[{key!r}] must be {_KINDS[kind]}, got {e!r}")


def require_at_least(cfg, section: str, low, *names):
    """Each field of ``names`` of ``cfg``, config section ``section``, must
    be at least ``low``; a ``ConfigError`` names '<section>.<field>'."""
    for name in names:
        v = getattr(cfg, name)
        if v < low:
            raise ConfigError(f"{section}.{name} must be >= {low}, got {v!r}")
