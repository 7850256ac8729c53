"""Exception types shared across the library, and the only form rules for
settings, each applied once by the object the setting fills."""

import numbers
import sys


class CycleError(ValueError):
    """The precedence edges contain a directed cycle (or a self-loop)."""


class LengthMismatch(ValueError):
    """A reward vector's length differs from the declared objective count."""


class ShapeMismatch(ValueError):
    """Quantile data disagrees on objective, action, or quantile counts."""


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""


class EmptySetError(ValueError):
    """An operation that needs a non-empty action set received an empty one."""


class InvalidAction(IndexError):
    """An action index is outside the environment's action set."""


class MissingArtifact(FileNotFoundError):
    """A required trained artifact is absent on disk."""


def _real(value, name: str) -> float:
    """``value`` as one finite float; a non-real, a bool, NaN, an infinity
    or an integer beyond float range raises, naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be one real number, got {value!r}")
    # Not float() or np.isfinite first: both fail on an integer beyond float range.
    if not abs(value) <= sys.float_info.max:
        shown = "an integer beyond float range" if isinstance(value, numbers.Integral) else value
        raise ConfigError(f"{name} must be finite, got {shown}")
    return float(value)


def _integer(value, name: str) -> int:
    """``value`` as one int; a non-integer or a bool raises, naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be one integer, got {value!r}")
    return int(value)


def _string(value, name: str) -> str:
    """``value`` as one str; anything else raises, naming ``name``."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be one string, got {value!r}")
    return value
