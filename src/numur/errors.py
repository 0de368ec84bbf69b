"""Exception types shared across the package.

Every error carries a short machine-readable code; the CLI prints
failures as ``ERROR:<code>: <message>`` on stderr.
"""

import math


class NumurError(Exception):
    """Base class for all package errors."""

    code = "error"


class DataError(NumurError):
    """Malformed files, dangling references, or violated dataset invariants."""

    code = "data"


class ConfigError(NumurError):
    """Invalid or infeasible configuration, spec, or call arguments."""

    code = "config"


class DivergedError(NumurError):
    """Training or unlearning left a parameter that is NaN or infinite."""

    code = "diverged"


def checked(name: str, value, kind: type):
    """``value``, if it is a configuration value of ``kind``; otherwise a
    ConfigError naming ``name``.

    An ``int`` must be a JSON integer, not a boolean; a ``float`` any
    finite integer or float, not a boolean; a ``bool`` a JSON boolean;
    a ``str`` a JSON string; a ``dict`` a JSON object.
    """
    if kind is float:
        try:
            ok = type(value) in (int, float) and math.isfinite(value)
        except OverflowError:  # an integer past the float range
            ok = False
        what = "a finite number"
    elif kind is int:
        ok, what = type(value) is int, "an integer"
    elif kind is bool:
        ok, what = type(value) is bool, "true or false"
    elif kind is str:
        ok, what = type(value) is str, "a string"
    else:
        ok, what = type(value) is dict, "a JSON object"
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value
