"""Exact simulation of the embedded post-jump chain.

Each closed-form sampler inverts the conditional survival function of the
next state given the current one, driven by a unit-exponential draw.  A
numeric fallback handles arbitrary rates by inverting a Chebyshev table of
the cumulative hazard along the flow.  ``simulate_chain`` draws all
exponentials first and runs its family's chain kernel over them: a linear
scan for power rates, a plain-float loop for the quadratic rate, numeric
draws from one table otherwise.  Chains are reproducible bit-exactly from
their seed record.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (CapExceededError, ChainFormatError, InconsistentChainError,
                     StateRangeError, at_least, positive)
from .model import (ADDITIVE, BACTERIAL_POWER, TCP_POWER, TCP_QUADRATIC,
                    Model, PowerRate, ShiftedQuadraticRate, require_family)

_FLOAT_TINY = float(np.finfo(float).tiny)

# GenericSampler: a draw gives up at the state cap CAP_FACTOR * max(z, 1).
# _fit_panel interpolates the hazard integrand at CHEB_NODES Chebyshev points
# per sub-panel and halves a sub-panel until its series meets CHEB_RTOL or
# one of the stops PANEL_FLOOR, MAX_HALVINGS and MAX_LEAVES.  A draw ends when
# a Newton step is at most ROOT_ULPS ulps, or after NEWTON_STEPS steps.
CAP_FACTOR = 1e3
CHEB_NODES = 17
CHEB_RTOL = 1e-14
PANEL_FLOOR = 1e-18
MAX_HALVINGS = 48
MAX_LEAVES = 256
NEWTON_STEPS = 100
ROOT_ULPS = 4.0

# values of g at the Chebyshev points cos(theta_i), ends included, ->
# coefficients of the interpolating series (a discrete cosine transform)
_CHEB_THETA = np.arange(CHEB_NODES) * (np.pi / (CHEB_NODES - 1))
_CHEB_NODES = tuple(np.cos(_CHEB_THETA).tolist())
_CHEB_MATRIX = (2.0 / (CHEB_NODES - 1)) * np.cos(
    np.outer(np.arange(CHEB_NODES), _CHEB_THETA))
_CHEB_MATRIX[:, [0, -1]] *= 0.5
_CHEB_MATRIX[[0, -1]] *= 0.5


@dataclass(frozen=True)
class JumpChain:
    """Observed chain ``z[0..n]`` with its optional seed record."""

    z: np.ndarray
    model: Model
    seed: Optional[tuple] = None

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


def _power_step(model: Model, z, e):
    """Next state ``kappa * (z**p + p*c*e/lam)**(1/p)`` of a power-rate chain."""
    lam, c = model.rate.lam, model.flow.c
    p = model.power_exponent
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

    The hazard table and Newton's method evaluate this point by point, so the
    weight of :meth:`Model.transition_weight` is written out in plain float
    arithmetic.
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
    """Numeric next-state sampler, moved from state to state along a chain.

    The hazard integrand ``g`` of :func:`_scalar_integrand` does not depend
    on the state, so one antiderivative ``G`` of it serves every transition:
    a draw from ``z`` solves ``G(y) = G(kappa*z) + e``.  ``G`` is a table of
    Chebyshev series on geometric panels (:func:`_fit_panel`), built as the
    states reach them.  A draw brackets the root by the hazard at panel and
    sub-panel ends, then runs Newton's method on :meth:`hazard_to` with
    ``g`` as the derivative, bisecting when a step leaves the bracket.
    ``G`` is anchored at the lowest panel built, so a hazard difference is
    exact to about ``eps`` times the hazard from there.
    """

    def __init__(self, model: Model, z: float):
        self._kappa = model.jump.kappa
        self._integrand = _scalar_integrand(model)
        self.move_to(z)
        # top-level panels k0, k0+1, ...: sub-panel edges, the hazard from
        # the panel's left edge to each, and a series per sub-panel; and the
        # hazard from the left edge of panel k0 to the left edge of each
        # panel and past the last
        self._k0 = _panel_index(self.lo)
        self._panels = []
        self._cum = [0.0]

    def move_to(self, z: float) -> None:
        """Make ``z`` the current state; the hazard table is kept."""
        positive("z", z)
        self.z = float(z)
        self.lo = self._kappa * self.z
        if not self.lo > 0.0:
            raise StateRangeError(
                f"the jump image of z = {self.z!r} underflows double precision")
        self.cap = CAP_FACTOR * max(self.z, 1.0)
        self._g_lo = None   # G(lo), found on first use

    def _build(self, k: int) -> None:
        """Add panels to the table until it holds panel ``k``."""
        while k >= self._k0 + len(self._panels):
            panel = _fit_panel(self._integrand, self._k0 + len(self._panels))
            self._panels.append(panel)
            self._cum.append(self._cum[-1] + panel[1][-1])
        if k < self._k0:
            # G is anchored at the lowest panel: every stored value moves up
            below = [_fit_panel(self._integrand, j) for j in range(k, self._k0)]
            cum = [0.0]
            for panel in below:
                cum.append(cum[-1] + panel[1][-1])
            shift = cum.pop()
            self._cum = cum + [c + shift for c in self._cum]
            self._panels = below + self._panels
            self._k0 = k

    def _antiderivative(self, u: float) -> float:
        """``G(u)``: the hazard from the lowest panel edge built to ``u``."""
        k = _panel_index(u)
        i = k - self._k0
        if not 0 <= i < len(self._panels):
            self._build(k)
            i = k - self._k0
        edges, bases, series = self._panels[i]
        j = bisect.bisect_right(edges, u) - 1
        c0, rest = series[j]
        # Clenshaw's recurrence at u's position t in [-1, 1] on its sub-panel
        t = (u - edges[j]) / (0.5 * (edges[j + 1] - edges[j])) - 1.0
        t2 = t + t
        b1 = b2 = 0.0
        for c in rest:
            b1, b2 = c + t2 * b1 - b2, b1
        return self._cum[i] + bases[j] + (c0 + t * b1 - b2)

    def _base(self) -> float:
        """``G`` at the jump image of the current state."""
        if self._g_lo is None:
            self._g_lo = self._antiderivative(self.lo)
        return self._g_lo

    def hazard_to(self, y: float) -> float:
        """Accumulated hazard from the jump image of ``z`` up to ``y``."""
        if y <= self.lo:
            return 0.0
        return self._antiderivative(y) - self._base()

    def draw(self, e: float) -> float:
        """Next state for the unit-exponential draw ``e``.

        Raises :class:`CapExceededError` exactly when the hazard up to the
        cap falls short of ``e``, and :class:`StateRangeError` when the
        hazard overflows on the way.
        """
        if not e >= 0.0:
            raise ValueError(f"e: the exponential draw must be >= 0, got {e!r}")
        if e == 0.0:
            return self.lo
        try:
            return self._solve(e)
        except OverflowError as exc:
            # the integrand works in Python floats, which raise on overflow
            raise StateRangeError(
                f"the hazard from z = {self.z!r} overflows double precision "
                "before reaching the draw") from exc

    def _solve(self, e: float) -> float:
        target = self._base() + e
        # panels up to the one holding the target, or to the cap
        while (self._cum[-1] <= target
               and _panel_edge(self._k0 + len(self._panels)) <= self.cap):
            self._build(self._k0 + len(self._panels))
        # the sub-panel [edges[j-1], edges[j]) of panel i holding the target;
        # G(lo) may round to below its panel's start, hence the lower bounds
        i = max(bisect.bisect_right(self._cum, target) - 1, 0)
        if i == len(self._panels):
            raise self._cap_error(e)
        edges, bases, _ = self._panels[i]
        local = target - self._cum[i]
        j = min(max(bisect.bisect_right(bases, local), 1), len(edges) - 1)
        lo, hi = max(edges[j - 1], self.lo), edges[j]
        if hi > self.cap:
            if self.hazard_to(self.cap) < e:
                raise self._cap_error(e)
            hi = self.cap
        if hi <= lo:
            # the root is within rounding of the jump image
            return lo
        # start where the hazard, taken as linear across the sub-panel, meets e
        rise = bases[j] - bases[j - 1]
        y = (edges[j - 1] + (edges[j] - edges[j - 1])
             * ((local - bases[j - 1]) / rise)) if rise > 0.0 else lo
        g = self._integrand
        for _ in range(NEWTON_STEPS):
            if not lo < y < hi:
                y = 0.5 * (lo + hi)
            r = self.hazard_to(y) - e
            if r == 0.0:
                return y
            if r > 0.0:
                hi = y
            else:
                lo = y
            tol = ROOT_ULPS * math.ulp(y)
            if hi - lo <= tol:
                return y
            d = g(y)
            if not d > 0.0:
                y = lo          # no slope: bisect
                continue
            step = r / d
            if abs(step) <= tol:
                return y - step
            y -= step
        return y

    def _cap_error(self, e: float) -> CapExceededError:
        return CapExceededError(
            f"hazard below target {e:.3g} before cap {self.cap:.3g}")


def _panel_index(u: float) -> int:
    """Index ``k`` of the top-level panel ``[edge(k), edge(k+1))`` holding ``u > 0``."""
    m, ex = math.frexp(u)
    return 4 * ex + int(8.0 * m) - 4


def _panel_edge(k: int) -> float:
    """Left edge ``2**(k//4) * (4 + k%4) / 8`` of top-level panel ``k``."""
    return math.ldexp(4 + k % 4, k // 4 - 3)


def _fit_panel(g, k: int):
    """Chebyshev antiderivative of ``g`` on top-level panel ``k``.

    Returns the sub-panel edges, the hazard from the panel's left edge to
    each sub-panel edge, and per sub-panel the integrated series
    ``(c0, (c_N, ..., c_1))`` in ``t = -1 ... 1``, which is 0 at ``t = -1``.
    A sub-panel is halved while its two last coefficients of ``g`` exceed
    ``CHEB_RTOL`` times the sum of all of them, unless its hazard is below
    ``PANEL_FLOOR`` (an integrand that underflows never passes the relative
    test), it has been halved ``MAX_HALVINGS`` times (a kink never passes
    it) or the panel has ``MAX_LEAVES`` sub-panels (nor does noise).
    """
    edges, bases, series = [], [0.0], []
    todo = [(_panel_edge(k), _panel_edge(k + 1), 0)]
    while todo:
        a, b, depth = todo.pop()
        half = 0.5 * (b - a)
        mid = a + half
        values = np.array([float(g(mid + half * t)) for t in _CHEB_NODES])
        with np.errstate(all="ignore"):
            # a value that is not finite shows in the total, checked below
            c = (_CHEB_MATRIX @ values).tolist()
        # term by term: the integral of T_j is T_{j+1}/(2(j+1)) - T_{j-1}/(2(j-1))
        c += [0.0, 0.0]
        ints = [half * (c[0] - 0.5 * c[2])]
        ints += [half * (c[j - 1] - c[j + 1]) / (2 * j)
                 for j in range(2, CHEB_NODES + 1)]
        total = 2.0 * math.fsum(ints[0::2])
        if not math.isfinite(total):
            raise OverflowError("the hazard integrand is not finite")
        tail = abs(c[CHEB_NODES - 2]) + abs(c[CHEB_NODES - 1])
        if (tail > CHEB_RTOL * sum(map(abs, c)) and abs(total) >= PANEL_FLOOR
                and depth < MAX_HALVINGS
                and len(series) + len(todo) < MAX_LEAVES):
            # left half on top, so sub-panels come off the stack in order
            todo += [(mid, b, depth + 1), (a, mid, depth + 1)]
            continue
        c0 = math.fsum(-v if j % 2 else v for j, v in enumerate(ints))
        edges.append(a)
        bases.append(bases[-1] + total)
        series.append((c0, tuple(reversed(ints))))
    edges.append(_panel_edge(k + 1))
    return edges, bases, series


def sample_next_generic(model: Model, z: float, e: float) -> float:
    """One-shot numeric next-state draw; see :class:`GenericSampler`."""
    return GenericSampler(model, z).draw(e)


def _power_chain(model: Model, z0: float, draws: np.ndarray) -> np.ndarray:
    """States ``z[0..n]`` of a power-rate chain, by a linear scan.

    In ``w = z**p`` (``p`` is :attr:`Model.power_exponent`) one transition
    is the AR(1) step ``w_k = r * (w_{k-1} + x_k)`` with ``r = kappa**p`` and
    ``x_k = p*c*e_k/lam``, so ``w_k = sum_i r**(k-i) * v_i`` with
    ``v = (w_0, r*x_1, ..., r*x_n)``.  Pass ``s = 1, 2, 4, ...`` of the
    doubling scan adds ``r**s`` times the partial sum ``s`` places back; all
    terms are positive, so each state carries O(log n) roundings.  The
    passes stop once ``r**s`` underflows, since the rest would add zeros.
    """
    p = model.power_exponent
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
    """States ``z[0..n]`` by numeric draws from one :class:`GenericSampler`.

    The sampler moves from state to state, so the hazard table it builds
    serves the whole chain.
    """
    z = np.empty(len(draws) + 1)
    z[0] = z0
    out = memoryview(z)
    sampler = GenericSampler(model, z0)
    try:
        for k, e in enumerate(memoryview(draws), start=1):
            out[k] = x = sampler.draw(e)
            sampler.move_to(x)
    except (CapExceededError, StateRangeError) as exc:
        raise type(exc)(f"at transition {k - 1}: {exc}") from exc
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
    stored on the chain allows bit-exact replay.  Raises :class:`ConfigError`
    naming ``z0``, ``n`` or ``seed`` unless ``z0`` is finite and positive,
    ``n`` an integer >= 1 and ``seed`` a ``SeedSequence``, ``None`` or an
    integer >= 0, and :class:`StateRangeError` naming the first transition
    whose state is not a finite positive float.
    """
    positive("z0", z0)
    at_least("n", n, 1)
    if seed is not None and not isinstance(seed, np.random.SeedSequence):
        at_least("seed", seed, 0)
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
    return JumpChain(z=z, model=model, seed=_seed_record(ss))


def reconstruct_times(chain: JumpChain) -> np.ndarray:
    """Jump times implied by the states, taking the first jump at time T_1.

    Each inter-jump duration is the flow travel time from the previous state
    to the pre-jump position of the next one.  A state up to the support
    tolerance below the jump image of the previous one, as a sampler's
    rounding leaves (:meth:`Model.below_support`), gets a zero duration.
    """
    model = chain.model
    if chain.n < 1:
        raise InconsistentChainError("need at least one transition")
    prev = chain.z[:-1]
    if np.any(model.below_support(prev, chain.z[1:])):
        raise InconsistentChainError("pre-jump state behind previous state")
    pre_jump = np.maximum(model.jump.invert(chain.z[1:]), prev)
    gaps = model.flow.travel_time(prev, pre_jump)
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
