"""Exact simulation of the embedded post-jump chain.

Each closed-form sampler inverts the conditional survival function of the
next state given the current one, driven by a unit-exponential draw.  A
numeric fallback handles arbitrary rates by integrating the hazard along the
support and root-finding.  ``simulate_chain`` draws all exponentials first
and runs its family's chain kernel over them: a linear scan for power rates,
a plain-float loop for the quadratic rate, numeric draws otherwise.  Chains
are reproducible bit-exactly from their seed record.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate, optimize

from .errors import (CapExceededError, ChainFormatError, InconsistentChainError,
                     StateRangeError)
from .model import (ADDITIVE, BACTERIAL_POWER, TCP_POWER, TCP_QUADRATIC,
                    Model, PowerRate, ShiftedQuadraticRate, require_family)

_FLOAT_TINY = float(np.finfo(float).tiny)

# GenericSampler: relative tolerances of the hazard quadrature and the root,
# and the state cap, CAP_FACTOR * max(z, 1), at which a draw gives up.
QUAD_RTOL = 1e-10
ROOT_RTOL = 1e-12
CAP_FACTOR = 1e3


@dataclass(frozen=True)
class JumpChain:
    """Observed chain ``z[0..n]`` with its optional seed record and draws."""

    z: np.ndarray
    model: Model
    seed: Optional[tuple] = None
    draws: Optional[np.ndarray] = None

    def __post_init__(self):
        k = _first_bad_state(self.z)
        if k is not None:
            raise InconsistentChainError(
                "chain states must be finite and positive: "
                f"z[{k}] = {float(self.z[k])!r}")

    @property
    def n(self) -> int:
        """Number of transitions."""
        return len(self.z) - 1

    @property
    def samples(self) -> np.ndarray:
        """States entering the empirical sums (post-jump states, index >= 1)."""
        return self.z[1:]


def _first_bad_state(z: np.ndarray) -> Optional[int]:
    """Index of the first state that is not finite and positive, if any."""
    good = np.isfinite(z)
    good &= z > 0
    return None if good.all() else int(np.argmin(good))


def _power_exponent(model: Model) -> float:
    """Exponent ``p`` in which a power-rate chain is linear: ``w = z**p``.

    The cumulative hazard along the flow from ``z`` to the pre-jump state
    ``y`` is ``lam/(p*c) * (y**p - z**p)``, with ``p = delta + 1`` under the
    additive flow and ``p = delta`` under the exponential one.
    """
    delta = model.rate.delta
    return delta + 1.0 if model.flow.variant == ADDITIVE else delta


def _power_step(model: Model, z, e):
    """Next state ``kappa * (z**p + p*c*e/lam)**(1/p)`` of a power-rate chain."""
    lam, c = model.rate.lam, model.flow.c
    p = _power_exponent(model)
    z = np.asarray(z, dtype=float)
    e = np.asarray(e, dtype=float)
    out = model.jump.kappa * np.power(np.power(z, p) + p * c * e / lam, 1.0 / p)
    return out if out.ndim else float(out)


def sample_next_tcp_quadratic(model: Model, z, e):
    """Next state for the additive flow / shifted quadratic rate family.

    The hazard recursion reduces to a depressed cubic; its unique real root
    is written with sign-preserving cube roots.
    """
    require_family(model, TCP_QUADRATIC)
    a, b, c = model.rate.a, model.rate.b, model.flow.c
    kappa = model.jump.kappa
    z = np.asarray(z, dtype=float)
    e = np.asarray(e, dtype=float)
    q = 3.0 * c * e + (z - a) ** 3 + 3.0 * b * (z - a)
    root = np.sqrt(4.0 * b ** 3 + q ** 2)
    # real root of t^3 + 3bt = q via Cardano; the halving goes inside the
    # cube roots, and real (sign-preserving) cube roots are required.  The
    # smaller-magnitude argument cancels when 4b^3 << q^2, so it is formed
    # through its conjugate: (q - root)(q + root) = -4b^3.
    b3 = b ** 3
    with np.errstate(divide="ignore", invalid="ignore"):
        plus = np.where(q >= 0.0, (q + root) / 2.0,
                        np.where(root - q > 0.0, 2.0 * b3 / (root - q), 0.0))
        minus = np.where(q >= 0.0,
                         np.where(q + root > 0.0, -2.0 * b3 / (q + root), 0.0),
                         (q - root) / 2.0)
    t = np.cbrt(plus) + np.cbrt(minus)
    out = kappa * (a + t)
    return out if out.ndim else float(out)


def _scalar_integrand(model: Model):
    """Scalar hazard integrand ``rate(f^{-1}(u)) * weight(u)``.

    Quadrature evaluates this point by point, so the array broadcasting in
    :meth:`Model.transition_weight` is replaced with plain float arithmetic.
    """
    inv_k = 1.0 / model.jump.kappa
    c = model.flow.c
    rate = model.rate
    if isinstance(rate, PowerRate):
        lam, delta = rate.lam, rate.delta
        if delta == 0:
            rate_of = lambda x: lam
        else:
            rate_of = lambda x: lam * x ** delta
    elif isinstance(rate, ShiftedQuadraticRate):
        a, b = rate.a, rate.b
        rate_of = lambda x: (x - a) ** 2 + b
    else:
        rate_of = rate.rate
    if model.flow.variant == ADDITIVE:
        w = inv_k / c
        return lambda u: rate_of(u * inv_k) * w
    return lambda u: rate_of(u * inv_k) / (c * u)


class GenericSampler:
    """Numeric next-state sampler for a fixed starting state.

    Accumulates the hazard integral from the jump image of ``z`` and solves
    ``accumulated_hazard(y) = e`` by bracket expansion plus Brent root
    finding.  Evaluated integrals are cached at their breakpoints so repeated
    draws from the same state get cheap.
    """

    def __init__(self, model: Model, z: float):
        self.model = model
        self.z = float(z)
        self.lo = model.jump.apply(self.z)
        self.cap = CAP_FACTOR * max(self.z, 1.0)
        # sorted breakpoints with their accumulated hazard
        self._ys = [self.lo]
        self._hs = [0.0]
        self._min_gap = max((self.cap - self.lo) / 4096.0, 1e-9)
        self._integrand = _scalar_integrand(model)

    def hazard_to(self, y: float) -> float:
        """Accumulated hazard from the jump image of ``z`` up to ``y``."""
        if y <= self.lo:
            return 0.0
        i = bisect.bisect_right(self._ys, y) - 1
        base, start = self._hs[i], self._ys[i]
        if y == start:
            return base
        seg, _ = integrate.quad(self._integrand, start, y,
                                epsabs=0.0, epsrel=QUAD_RTOL)
        h = base + seg
        # keep the breakpoint cache bounded: only store well-separated points
        if y - start > self._min_gap:
            j = bisect.bisect_right(self._ys, y)
            self._ys.insert(j, y)
            self._hs.insert(j, h)
        return h

    def draw(self, e: float) -> float:
        if e < 0:
            raise ValueError("exponential draw must be nonnegative")
        if e == 0.0:
            return self.lo
        # the cached hazard values are sorted, so they bracket the root for
        # free once the cache has warmed up
        i = bisect.bisect_right(self._hs, e) - 1
        lo = self._ys[i]
        if i + 1 < len(self._ys):
            hi = self._ys[i + 1]
        else:
            hi = max(lo, 1e-12)
            step = max(lo, 1.0)
            while self.hazard_to(hi) < e:
                hi = hi + step
                step *= 2.0
                if hi > self.cap:
                    raise CapExceededError(
                        f"hazard below target {e:.3g} before cap {self.cap:.3g}")
        y = optimize.brentq(lambda v: self.hazard_to(v) - e, lo, hi,
                            xtol=1e-300, rtol=ROOT_RTOL)
        return float(y)


def sample_next_generic(model: Model, z: float, e: float) -> float:
    """One-shot numeric next-state draw; see :class:`GenericSampler`."""
    return GenericSampler(model, z).draw(e)


def _power_chain(model: Model, z0: float, draws: np.ndarray) -> np.ndarray:
    """States ``z[0..n]`` of a power-rate chain, by a linear scan.

    In ``w = z**p`` (see :func:`_power_exponent`) one transition is the AR(1)
    step ``w_k = r * (w_{k-1} + x_k)`` with ``r = kappa**p`` and
    ``x_k = p*c*e_k/lam``, so ``w_k = sum_i r**(k-i) * v_i`` with
    ``v = (w_0, r*x_1, ..., r*x_n)``.  Pass ``s = 1, 2, 4, ...`` of the
    doubling scan adds ``r**s`` times the partial sum ``s`` places back; all
    terms are positive, so each state carries O(log n) roundings.  The
    passes stop once ``r**s`` underflows, since the rest would add zeros.
    """
    p = _power_exponent(model)
    r = model.jump.kappa ** p
    if r < _FLOAT_TINY:
        raise StateRangeError(
            f"at transition 0: kappa**p = {model.jump.kappa!r}**{p!r} "
            "underflows, so the power-rate chain is out of double range")
    n = len(draws)
    w = np.empty(n + 1)
    w[0] = z0
    with np.errstate(over="ignore"):
        # an overflow leaves inf states, which simulate_chain reports
        np.power(w[:1], p, out=w[:1])
        np.multiply(draws, r * (p * model.flow.c / model.rate.lam), out=w[1:])
        s = 1
        while s <= n and r ** s > 0.0:
            w[s:] += r ** s * w[:-s]
            s *= 2
        if p != 1.0:
            np.power(w, 1.0 / p, out=w)
    w[0] = z0
    return w


def _quadratic_chain(model: Model, z0: float, draws: np.ndarray) -> np.ndarray:
    """States ``z[0..n]`` of a quadratic-rate chain, one Cardano step each.

    The step is :func:`sample_next_tcp_quadratic` on plain floats; draws are
    read and states written through memoryviews, so no per-step array or
    list is built.  The cube is two products rather than a power, so an
    overflow gives ``inf`` (reported by :func:`simulate_chain`) instead of
    an exception.
    """
    a, b, c = model.rate.a, model.rate.b, model.flow.c
    kappa = model.jump.kappa
    b3 = b ** 3
    four_b3, two_b3 = 4.0 * b3, 2.0 * b3
    three_c, three_b = 3.0 * c, 3.0 * b
    sqrt, cbrt = math.sqrt, math.cbrt
    z = np.empty(len(draws) + 1)
    z[0] = x = z0
    out = memoryview(z)
    for k, e in enumerate(memoryview(draws), start=1):
        u = x - a
        q = three_c * e + u * u * u + three_b * u
        root = sqrt(four_b3 + q * q)
        if q >= 0.0:
            s = q + root
            plus, minus = s / 2.0, (-two_b3 / s if s > 0.0 else 0.0)
        else:
            s = root - q
            plus, minus = (two_b3 / s if s > 0.0 else 0.0), (q - root) / 2.0
        x = kappa * (a + (cbrt(plus) + cbrt(minus)))
        out[k] = x
    return z


def _generic_chain(model: Model, z0: float, draws: np.ndarray) -> np.ndarray:
    """States ``z[0..n]`` by one numeric draw per transition."""
    z = np.empty(len(draws) + 1)
    z[0] = z0
    try:
        for k in range(len(draws)):
            z[k + 1] = sample_next_generic(model, z[k], draws[k])
    except CapExceededError as exc:
        raise CapExceededError(f"at transition {k}: {exc}") from exc
    return z


def _family_samplers(model: Model):
    """The one family dispatch: ``(one-step sampler, chain kernel)``."""
    family = model.family
    if family in (TCP_POWER, BACTERIAL_POWER):
        return _power_step, _power_chain
    if family == TCP_QUADRATIC:
        return sample_next_tcp_quadratic, _quadratic_chain
    return sample_next_generic, _generic_chain


def sample_next(model: Model, z: float, e: float) -> float:
    """Family dispatch: closed form when available, numeric otherwise."""
    return _family_samplers(model)[0](model, z, e)


def _seed_record(seed) -> tuple:
    if isinstance(seed, np.random.SeedSequence):
        return (tuple(np.atleast_1d(seed.entropy)), tuple(seed.spawn_key))
    return ((int(seed),), ())


def simulate_chain(model: Model, z0: float, n: int, seed) -> JumpChain:
    """Simulate ``n`` transitions starting from ``z0``.

    ``seed`` may be an integer or a ``numpy.random.SeedSequence``; the record
    stored on the chain allows bit-exact replay.  Raises
    :class:`StateRangeError` naming the first transition whose state is not a
    finite positive float.
    """
    if not 0.0 < z0 < math.inf:
        raise ValueError("initial state must be positive and finite")
    if n < 1:
        raise ValueError("need at least one transition")
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    rng = np.random.default_rng(ss)
    draws = rng.exponential(1.0, size=n)
    z = _family_samplers(model)[1](model, float(z0), draws)
    k = _first_bad_state(z)
    if k is not None:
        raise StateRangeError(
            f"at transition {k - 1}: next state {float(z[k])!r} is not a "
            "finite positive number (double precision overflow or underflow)")
    return JumpChain(z=z, model=model, seed=_seed_record(ss), draws=draws)


def reconstruct_times(chain: JumpChain, model: Optional[Model] = None) -> np.ndarray:
    """Jump times implied by the states, taking the first jump at time T_1.

    Each inter-jump duration is the flow travel time from the previous state
    to the pre-jump position of the next one.
    """
    model = model or chain.model
    if chain.n < 1:
        raise InconsistentChainError("need at least one transition")
    pre_jump = model.jump.invert(chain.z[1:])
    if np.any(pre_jump < chain.z[:-1]):
        raise InconsistentChainError("pre-jump state behind previous state")
    gaps = model.flow.travel_time(chain.z[:-1], pre_jump)
    return np.cumsum(np.atleast_1d(gaps))


# --- chain serialization -----------------------------------------------------

def chain_to_text(chain: JumpChain, include_times: bool = False) -> str:
    """Columnar text format: comment header, then one state per line."""
    lines = [f"# model: {chain.model.name}",
             f"# seed: {chain.seed}"]
    times = None
    if include_times:
        times = reconstruct_times(chain)
    lines.append("# columns: z" + ("\tt" if include_times else ""))
    lines.append(f"{chain.z[0]:.17g}")
    for k in range(1, len(chain.z)):
        if times is not None:
            lines.append(f"{chain.z[k]:.17g}\t{times[k - 1]:.17g}")
        else:
            lines.append(f"{chain.z[k]:.17g}")
    return "\n".join(lines) + "\n"


def chain_from_text(text: str, model: Model) -> JumpChain:
    """Parse the columnar format back into a chain (header is informational).

    The first data row holds ``z[0]`` alone; every later row holds ``z[k]``
    and, in files written with times, the jump time of that state after a
    tab.  Times are checked to be numbers, then dropped: the states imply
    them (:func:`reconstruct_times`).  Raises :class:`ChainFormatError`
    naming the first line that does not fit, or when there is no data row,
    and :class:`InconsistentChainError` naming the first line whose state
    lies below the jump image of the state before it.
    """
    chain = JumpChain(z=_states_from_text(text), model=model)
    # files are where chains from outside come in; a simulated chain meets
    # this up to rounding, which the support tolerance allows for
    below = model.below_support(chain.z[:-1], chain.z[1:])
    if below.any():
        k = int(np.argmax(below)) + 1
        lineno = [i for i, line in enumerate(text.splitlines(), start=1)
                  if _is_data(line)][k]
        raise InconsistentChainError(
            f"chain line {lineno}: z[{k}] = {float(chain.z[k])!r} is below "
            f"kappa*z[{k - 1}] = {model.jump.apply(chain.z[k - 1])!r}, where "
            "no jump lands")
    return chain


def _states_from_text(text: str) -> np.ndarray:
    """States of a chain file, one per data row; see :func:`chain_from_text`.

    A function of its own so that the line list is freed before the
    consistency check allocates its temporaries.
    """
    lines = text.splitlines()
    first = next((i for i, line in enumerate(lines) if _is_data(line)), None)
    if first is None:
        raise ChainFormatError("chain file has no data rows")
    z0 = _parse_rows(lines[first:first + 1], first + 1, max_width=1)[0, 0]
    body = lines[first + 1:]
    try:
        with warnings.catch_warnings():
            # a chain of one state has no rows after z[0]
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(body, delimiter="\t", comments=None, ndmin=2)
        if table.shape[1] > 2:
            raise ValueError("too many columns")
    except ValueError:
        # the exact reader: finds the offending line, or accepts what the
        # fast one does not (comment lines, whitespace-only lines)
        table = _parse_rows(body, first + 2, max_width=2)
    return np.concatenate(([z0], table[:, 0]))


def _is_data(line: str) -> bool:
    line = line.strip()
    return bool(line) and not line.startswith("#")


def _parse_rows(lines: list, first_lineno: int, max_width: int) -> np.ndarray:
    """Data rows of ``lines`` as a table; every row must have the same width."""
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=first_lineno):
        if not _is_data(line):
            continue
        parts = line.strip().split("\t")
        width = width or min(len(parts), max_width)
        if len(parts) != width:
            raise ChainFormatError(
                f"chain line {lineno}: {len(parts)} tab-separated fields, "
                f"expected {width}: {line!r}")
        try:
            rows.append([float(v) for v in parts])
        except ValueError:
            raise ChainFormatError(
                f"chain line {lineno}: not a number: {line!r}") from None
    return np.array(rows, dtype=float).reshape(len(rows), width or 1)
