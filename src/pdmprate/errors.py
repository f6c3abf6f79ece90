"""Exception hierarchy shared across the package."""


class PdmpError(Exception):
    """Base class for all package errors."""


class FamilyMismatchError(PdmpError):
    """A closed-form sampler was asked to handle the wrong model family."""


class UnreachableStateError(PdmpError):
    """Target state lies behind the current state along the flow."""


class OutOfSupportError(PdmpError):
    """Query point outside the support of the transition density."""


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


class ConfigError(PdmpError):
    """Invalid configuration document; message carries the key path."""
