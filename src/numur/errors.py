"""Exception types shared across the package.

Every error carries a short machine-readable code; the CLI prints
failures as ``ERROR:<code>: <message>`` on stderr.
"""


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
