"""Exception types shared across the package, and the checks that raise ConfigError."""

import sys


class ConfigError(ValueError):
    """Invalid parameters or experiment configuration (CLI exit code 2)."""


class AuditFailure(RuntimeError):
    """A conservation audit found an internal bookkeeping mismatch (simulator bug)."""


class InsufficientDataError(RuntimeError):
    """Not enough usable tail levels to fit the requested model."""


def check_int(name: str, value, lo: int | None, hi: int | None = None) -> int:
    """``value`` if it is an int, not a bool, in [lo, hi]; else ConfigError naming ``name``.

    A bound of None is open. A float, even an integral one, is rejected: a
    count or level that arrives as a float fails later in ``range`` or an
    index, or silently changes an exact power. An int beyond the largest float
    is rejected as ``check_number`` rejects it: counts such as D and N meet
    floats in arithmetic.
    """
    if (isinstance(value, int) and not isinstance(value, bool)
            and (lo is None or value >= lo) and (hi is None or value <= hi)):
        if abs(value) > sys.float_info.max:
            raise ConfigError(f"{name} is too large for a float")
        return value
    bound = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")


def check_number(name: str, value) -> float:
    """``value`` as a float if it is a real number (an int or a float, not a bool); else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is too large for a float") from None
