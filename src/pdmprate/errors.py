"""Exception hierarchy shared across the package, and the range checks."""

import operator
from math import inf


class PdmpError(Exception):
    """Base class for all package errors."""


class FamilyMismatchError(PdmpError):
    """A closed-form sampler was asked to handle the wrong model family."""


class UnreachableStateError(PdmpError):
    """Target state lies behind the current state along the flow."""


class CapExceededError(PdmpError):
    """Accumulated hazard failed to reach the target before the state cap."""


class StateRangeError(PdmpError):
    """A simulated state is not a finite positive double (overflow or underflow)."""


class InconsistentChainError(PdmpError):
    """Chain states violate the deterministic jump/flow constraints."""


class ChainFormatError(PdmpError):
    """A chain file line that is not a state (and jump time) in the format."""


class ChainTooShortError(PdmpError):
    """Not enough observations for the requested estimator."""


class EmptyModelSetError(PdmpError):
    """No admissible projection dimension for this sample size."""


class ConfigError(PdmpError, ValueError):
    """An invalid setting; the message starts with the field, key or flag."""

    def __init__(self, field: str, reason: str):
        super().__init__(field, reason)
        self.field = field
        self.reason = reason

    def __str__(self):
        return f"{self.field}: {self.reason}"


def require(ok: bool, field: str, rule: str, value) -> None:
    """Raise ``ConfigError`` naming ``field`` unless ``ok``."""
    if not ok:
        raise ConfigError(field, f"{rule}, got {value!r}")


def positive(field: str, value) -> None:
    require(0 < value < inf, field, "must be finite and positive", value)


def nonnegative(field: str, value) -> None:
    require(0 <= value < inf, field, "must be finite and nonnegative", value)


def is_integer(value) -> bool:
    """True for Python and numpy integers, whatever their value."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def at_least(field: str, value, least: int) -> None:
    require(is_integer(value) and value >= least, field,
            f"expected an integer >= {least}", value)
