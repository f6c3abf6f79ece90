"""Model definitions: deterministic flow, jump map, jump rate and derived quantities.

A model instance bundles the three ingredients of a piecewise deterministic
process whose embedded post-jump chain we observe: a one-parameter flow, a
linear jump map ``x -> kappa*x`` and a state-dependent jump rate with its
cumulative primitive.  Everything here is analytic and pure; samplers and
estimators live in the other modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import FamilyMismatchError, OutOfSupportError, UnreachableStateError

ADDITIVE = "additive"
EXPONENTIAL = "exponential"

# Relative distance below the jump image kappa*x that a next state may lie,
# from rounding alone, and still count as reachable from x.
SUPPORT_RTOL = 1e-12


@dataclass(frozen=True)
class Flow:
    """Deterministic motion between jumps.

    ``additive`` moves at constant speed (``x + c*t``), ``exponential`` grows
    geometrically (``x * exp(c*t)``).  ``c`` must be positive.
    """

    variant: str
    c: float

    def __post_init__(self):
        if self.variant not in (ADDITIVE, EXPONENTIAL):
            raise ValueError(f"unknown flow variant {self.variant!r}")
        if not self.c > 0:
            raise ValueError("flow speed c must be positive")

    def advance(self, x, t):
        """Position after following the flow from ``x`` for time ``t``."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        if np.any(x < 0) or np.any(t < 0):
            raise ValueError("flow arguments must be nonnegative")
        if self.variant == ADDITIVE:
            out = x + self.c * t
        else:
            out = x * np.exp(self.c * t)
        return out if out.ndim else float(out)

    def travel_time(self, x, y):
        """Time needed to move from ``x`` to ``y`` along the flow.

        Raises :class:`UnreachableStateError` when ``y`` lies behind ``x``.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(y < x):
            raise UnreachableStateError("target state precedes current state")
        if self.variant == ADDITIVE:
            out = (y - x) / self.c
        else:
            if np.any(x <= 0):
                raise ValueError("exponential flow needs a positive start state")
            out = np.log(y / x) / self.c
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class JumpMap:
    """Post-jump relocation ``x -> kappa*x`` with ``0 < kappa < 1``."""

    kappa: float

    def __post_init__(self):
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (0, 1)")

    def apply(self, x):
        return self.kappa * np.asarray(x, dtype=float) if np.ndim(x) else self.kappa * float(x)

    def invert(self, y):
        return np.asarray(y, dtype=float) / self.kappa if np.ndim(y) else float(y) / self.kappa


@dataclass(frozen=True)
class PowerRate:
    """Jump rate ``lam * x**delta`` with ``lam > 0`` and ``delta > -1``."""

    lam: float
    delta: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("rate scale lam must be positive")
        if not self.delta > -1:
            raise ValueError("rate exponent delta must exceed -1")

    def rate(self, x):
        x = np.asarray(x, dtype=float)
        if self.delta == 0:
            out = np.full_like(x, self.lam)
        else:
            with np.errstate(divide="ignore"):
                out = self.lam * np.power(x, self.delta)
        return out if out.ndim else float(out)

    def cumulative(self, x):
        """Primitive of the rate, normalized to vanish at 0."""
        x = np.asarray(x, dtype=float)
        p = self.delta + 1.0
        out = self.lam * np.power(x, p) / p
        return out if out.ndim else float(out)

    def cumulative_inv(self, u):
        u = np.asarray(u, dtype=float)
        p = self.delta + 1.0
        out = np.power(p * u / self.lam, 1.0 / p)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ShiftedQuadraticRate:
    """Jump rate ``(x - a)**2 + b``, decreasing then increasing around ``a``."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("center a must be positive")
        if self.b < 0:
            raise ValueError("offset b must be nonnegative")

    def rate(self, x):
        x = np.asarray(x, dtype=float)
        out = (x - self.a) ** 2 + self.b
        return out if out.ndim else float(out)

    def cumulative(self, x):
        # (x-a)^3/3 + b*x + a^3/3: the constant pins cumulative(0) = 0.
        x = np.asarray(x, dtype=float)
        out = (x - self.a) ** 3 / 3.0 + self.b * x + self.a ** 3 / 3.0
        return out if out.ndim else float(out)

    cumulative_inv = None


@dataclass(frozen=True)
class CustomRate:
    """User-supplied rate with its primitive and an optional analytic inverse."""

    rate_fn: Callable[[float], float]
    cumulative_fn: Callable[[float], float]
    cumulative_inv_fn: Optional[Callable[[float], float]] = None

    def rate(self, x):
        return self.rate_fn(x)

    def cumulative(self, x):
        return self.cumulative_fn(x)

    def cumulative_inv(self, u):
        if self.cumulative_inv_fn is None:
            raise NotImplementedError("no analytic inverse supplied")
        return self.cumulative_inv_fn(u)


RateSpec = Union[PowerRate, ShiftedQuadraticRate, CustomRate]

# Closed-form sampler families.
TCP_POWER = "tcp_power"
TCP_QUADRATIC = "tcp_quadratic"
BACTERIAL_POWER = "bacterial_power"
GENERIC = "generic"


@dataclass(frozen=True)
class Model:
    """A fully specified process: flow, jump map and jump rate."""

    flow: Flow
    jump: JumpMap
    rate: RateSpec
    name: str = ""

    @property
    def family(self) -> str:
        """Which closed-form sampler applies, if any."""
        if self.flow.variant == ADDITIVE:
            if isinstance(self.rate, PowerRate):
                return TCP_POWER
            if isinstance(self.rate, ShiftedQuadraticRate):
                return TCP_QUADRATIC
        elif self.flow.variant == EXPONENTIAL:
            if isinstance(self.rate, PowerRate) and self.rate.delta > 0:
                return BACTERIAL_POWER
        return GENERIC

    def below_support(self, x, y):
        """True where ``y`` is below ``kappa*x`` by more than ``SUPPORT_RTOL``."""
        lo = self.jump.apply(x)
        return y < lo - SUPPORT_RTOL * np.abs(lo)

    def transition_weight(self, x, y):
        """Change-of-variable weight in the transition density at (x, y).

        This is the derivative of the inverse of jump-after-flow started at
        ``x``, evaluated at ``y``.  Defined for ``y >= kappa*x``; closed forms:
        ``1/(kappa*c)`` for the additive flow and ``1/(c*y)`` for the
        exponential flow (linear jump map).
        """
        xs = np.asarray(x, dtype=float)
        ys = np.asarray(y, dtype=float)
        if np.any(self.below_support(xs, ys)):
            raise OutOfSupportError("query point below the jump image of x")
        if self.flow.variant == ADDITIVE:
            out = np.broadcast_to(1.0 / (self.jump.kappa * self.flow.c),
                                  np.broadcast_shapes(xs.shape, ys.shape)).copy()
        else:
            out = np.broadcast_to(1.0 / (self.flow.c * ys),
                                  np.broadcast_shapes(xs.shape, ys.shape)).copy()
        return out if out.ndim else float(out)


def hazard(rate: RateSpec, x):
    """Return ``(rate(x), cumulative(x))`` for ``x >= 0``."""
    if np.any(np.asarray(x, dtype=float) < 0):
        raise ValueError("hazard argument must be nonnegative")
    return rate.rate(x), rate.cumulative(x)


def tcp_model(kappa: float = 0.5, c: float = 1.0, lam: float = 1.0,
              delta: float = 0.0, name: str = "") -> Model:
    """Additive-flow model with a power-law jump rate."""
    return Model(Flow(ADDITIVE, c), JumpMap(kappa), PowerRate(lam, delta),
                 name or f"tcp(kappa={kappa},c={c},lam={lam},delta={delta})")


def tcp_quadratic_model(kappa: float = 0.2, c: float = 1.0, a: float = 1.0,
                        b: float = 0.5, name: str = "") -> Model:
    """Additive-flow model with the shifted quadratic jump rate."""
    return Model(Flow(ADDITIVE, c), JumpMap(kappa), ShiftedQuadraticRate(a, b),
                 name or f"tcp_quad(kappa={kappa},c={c},a={a},b={b})")


def bacterial_model(c: float = 1.0, lam: float = 1.0, delta: float = 1.0,
                    name: str = "") -> Model:
    """Exponential-flow model with halving jumps and a power-law rate."""
    return Model(Flow(EXPONENTIAL, c), JumpMap(0.5), PowerRate(lam, delta),
                 name or f"bacterial(c={c},lam={lam},delta={delta})")


def require_family(model: Model, family: str) -> None:
    if model.family != family:
        raise FamilyMismatchError(
            f"model {model.name!r} is family {model.family!r}, expected {family!r}")
