"""Exact simulation of the embedded post-jump chain.

Each closed-form sampler inverts the conditional survival function of the
next state given the current one, driven by a unit-exponential draw.  A
numeric fallback handles arbitrary rates by inverting a Chebyshev table of
the cumulative hazard along the flow: an inverse series per sub-panel,
interpolated at the hazard of the table's own nodes, gives a start that one
confirming Newton step finishes.  ``simulate_chain`` draws all
exponentials first and runs its family's chain kernel over them: a linear
scan for power rates, otherwise the family's step kernel (a plain-float
Cardano step for the quadratic rate, numeric draws from one table for the
rest), which ``sample_next`` runs over arrays of states.  Chains are
reproducible bit-exactly from their seed record.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import (CapExceededError, ChainFormatError, InconsistentChainError,
                     StateRangeError, at_least, positive)
from .model import ADDITIVE, Model, PowerRate, ShiftedQuadraticRate

_FLOAT_TINY = float(np.finfo(float).tiny)

# GenericSampler: a draw gives up at the state cap CAP_FACTOR * max(z, 1).
# _fit_panel interpolates the hazard integrand at CHEB_NODES Chebyshev points
# per sub-panel and halves a sub-panel until its series meets CHEB_RTOL or
# one of the stops PANEL_FLOOR, MAX_HALVINGS and MAX_LEAVES.  A sub-panel's
# inverse series (_invert) interpolates the same points against their
# hazard; it is kept when its two last coefficients are at most INV_TOL, and
# cut after its last coefficient above INV_TOL.  A draw ends when a Newton
# step is at most ROOT_ULPS ulps or its second-order term is below an ulp,
# or after NEWTON_STEPS steps.
CAP_FACTOR = 1e3
CHEB_NODES = 17
CHEB_RTOL = 1e-14
PANEL_FLOOR = 1e-18
MAX_HALVINGS = 48
MAX_LEAVES = 256
INV_TOL = 1e-10
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
                f"z[{k}] = {float(self.z[k])!r}: chain states must be finite "
                "and positive")

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


def _power_step(model: Model, z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Next states ``kappa * (z**p + p*c*e/lam)**(1/p)`` of a power-rate chain."""
    lam, c = model.rate.lam, model.flow.c
    p = model.power_exponent
    return model.jump.kappa * np.power(np.power(z, p) + p * c * e / lam, 1.0 / p)


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

    def g(u):
        # c*u underflows to 0 only where the weight 1/(c*u) overflows
        cu = c * u
        return rate_of(u * inv_k) / cu if cu else math.inf
    return g


class GenericSampler:
    """Numeric next-state sampler, moved from state to state along a chain.

    The hazard integrand ``g`` of :func:`_scalar_integrand` does not depend
    on the state, so one antiderivative ``G`` of it serves every transition:
    a draw from ``z`` solves ``G(y) = G(kappa*z) + e``.  ``G`` is a table of
    Chebyshev series on geometric panels (:func:`_fit_panel`), built as the
    states reach them.  A draw brackets the root by the hazard at panel and
    sub-panel ends.  The first draw into a sub-panel gives it an inverse
    series ``t(h)`` (:func:`_invert`), and every draw into it starts there;
    a sub-panel whose inverse fails its checks (``g`` vanishes or kinks in
    it) keeps the flag ``False`` and starts where the hazard, taken as
    linear, meets the draw.  Newton's method on :meth:`hazard_to` with ``g``
    as the derivative then finishes, bisecting when a step leaves the
    bracket; from an inverse start its first step is the last.  ``G`` is
    anchored at the lowest panel built, so a hazard difference is exact to
    about ``eps`` times the hazard from there.  The inverses live in the
    panel records, in sub-panel-local hazard, so they survive the table
    growing downward.

    The counters are plain ints, updated once per draw (and per panel or
    inverse built): ``g_evals`` counts evaluations of ``G``, ``G(kappa*z)``
    and the cap check included; ``newton_steps`` the Newton iterations;
    ``panels_built`` and ``inverses_built`` the table's pieces, fallbacks
    included; ``fallback_draws`` the draws into a flagged sub-panel.
    """

    def __init__(self, model: Model, z: float):
        self._kappa = model.jump.kappa
        self._integrand = _scalar_integrand(model)
        self.move_to(z)
        # top-level panels k0, k0+1, ...: sub-panel edges, the hazard from
        # the panel's left edge to each, a series per sub-panel and its
        # inverse (None until built); and the hazard from the left edge of
        # panel k0 to the left edge of each panel and past the last
        self._k0 = _panel_index(self.lo)
        self._panels = []
        self._cum = [0.0]
        self.g_evals = self.newton_steps = 0
        self.panels_built = self.inverses_built = self.fallback_draws = 0

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
            self.panels_built += 1
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
            self.panels_built += len(below)

    def _antiderivative(self, u: float) -> float:
        """``G(u)``: the hazard from the lowest panel edge built to ``u``."""
        k = _panel_index(u)
        i = k - self._k0
        if not 0 <= i < len(self._panels):
            self._build(k)
            i = k - self._k0
        edges, bases, series, _ = self._panels[i]
        j = bisect.bisect_right(edges, u) - 1
        # u's position t in [-1, 1] on its sub-panel
        t = (u - edges[j]) / (0.5 * (edges[j + 1] - edges[j])) - 1.0
        return self._cum[i] + bases[j] + _clenshaw(series[j], t)

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
        calls = int(self._g_lo is None)     # G(lo) is found once per state
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
        edges, bases, series, inverses = self._panels[i]
        local = target - self._cum[i]
        j = min(max(bisect.bisect_right(bases, local), 1), len(edges) - 1)
        lo, hi = max(edges[j - 1], self.lo), edges[j]
        if hi > self.cap:
            calls += 1
            if self.hazard_to(self.cap) < e:
                raise self._cap_error(e)
            hi = self.cap
        if hi <= lo:
            # the root is within rounding of the jump image
            self.g_evals += calls
            return lo
        h, rise = local - bases[j - 1], bases[j] - bases[j - 1]
        inverse = inverses[j - 1]
        if inverse is None:
            inverse, evals = _invert(edges[j - 1], edges[j], series[j - 1],
                                     rise)
            inverses[j - 1] = inverse
            self.inverses_built += 1
            calls += evals
        if inverse:
            coeffs, scale, curv = inverse
            y = edges[j - 1] + (0.5 * (edges[j] - edges[j - 1])) * (
                _clenshaw(coeffs, h * scale - 1.0) + 1.0)
        else:
            # start where the hazard, taken as linear across the sub-panel,
            # meets e
            self.fallback_draws += 1
            y = (edges[j - 1] + (edges[j] - edges[j - 1]) * (h / rise)
                 if rise > 0.0 else lo)
            curv = math.inf
        y, steps = self._newton(e, y, lo, hi, curv)
        self.g_evals += calls + steps
        self.newton_steps += steps
        return y

    def _newton(self, e: float, y: float, lo: float, hi: float,
                curv: float) -> tuple:
        """The root of ``hazard_to(y) = e`` in ``(lo, hi)`` from ``y``, and
        the number of steps taken.

        A step ``step = r/g(y)`` from ``y``, with ``r = hazard_to(y) - e``,
        leaves out the Taylor term ``G''(xi)*step**2/2`` of the table: to
        first order the root is ``y - step - G''(xi)/(2 g(y)) * step**2``.
        With ``curv`` at least ``|G''|`` on the sub-panel, that term is at
        most a quarter ulp of ``y`` when ``curv*step**2 <= g(y)*ulp(y)/2``.
        ``g`` is the table's slope only to its tolerance: they differ by
        about ``CHEB_RTOL*g``, which moves the root by ``CHEB_RTOL*|step|``,
        at most a quarter ulp when ``|step|*CHEB_RTOL <= ulp(y)/4``.  With
        the rounding of ``y - step``, ``y - step`` is then the root to
        within an ulp, and the loop returns it.  A fallback sub-panel passes
        ``curv = inf``, so only the ``ROOT_ULPS`` exit ends its loop.
        """
        g = self._integrand
        for steps in range(1, NEWTON_STEPS + 1):
            if not lo < y < hi:
                y = 0.5 * (lo + hi)
            r = self.hazard_to(y) - e
            if r == 0.0:
                return y, steps
            if r > 0.0:
                hi = y
            else:
                lo = y
            ulp = math.ulp(y)
            tol = ROOT_ULPS * ulp
            if hi - lo <= tol:
                return y, steps
            d = g(y)
            if not d > 0.0:
                y = lo          # no slope: bisect
                continue
            step = r / d
            if abs(step) <= tol or (curv * step * step <= 0.5 * d * ulp
                                    and abs(step) * CHEB_RTOL <= 0.25 * ulp):
                return y - step, steps
            y -= step
        return y, NEWTON_STEPS

    def _cap_error(self, e: float) -> CapExceededError:
        return CapExceededError(
            f"hazard below target {e:.3g} before cap {self.cap:.3g}")


def _invert(a: float, b: float, series: tuple, rise: float):
    """The inverse series of sub-panel ``[a, b)``, or ``False``; and the
    number of evaluations of its hazard series it took.

    ``series`` is the sub-panel's hazard ``S(t)`` and ``rise = S(1)``.  The
    inverse interpolates the position at the ``CHEB_NODES`` Chebyshev
    points ``t_i`` of :func:`_fit_panel`, against their images
    ``s_i = 2*S(t_i)/rise - 1`` in the local hazard ``h = rise*(s + 1)/2``
    (table inversion as in Hoermann & Leydold, 2003): its coefficients
    solve ``sum_k c_k T_k(s_i) = t_i``.  It is ``False`` (the fallback
    flag) when ``rise`` is below ``PANEL_FLOOR``, the ``s_i`` are not
    strictly monotone or the two last coefficients exceed ``INV_TOL``:
    ``t(h)`` is not smooth where the integrand vanishes or kinks.
    Otherwise it is the coefficients, cut after the last above ``INV_TOL``,
    as a series for :func:`_clenshaw` in ``s``; ``2/rise``; and the bound
    ``sum |A_k| k**2 (k**2 - 1)/3 / half**2`` on ``|G''|`` over the
    sub-panel, by Markov's inequality for the second derivative of each
    term ``A_k T_k`` of ``S``.  A bound that overflows is infinite, which
    only disables the early exit of :meth:`GenericSampler._newton`.
    """
    if not PANEL_FLOOR <= rise < math.inf:
        return False, 0
    # the end nodes t = 1, -1 map to s = 1, -1
    s = [1.0] + [2.0 * _clenshaw(series, t) / rise - 1.0
                 for t in _CHEB_NODES[1:-1]] + [-1.0]
    evals = CHEB_NODES - 2
    if not all(x > y for x, y in zip(s, s[1:])):
        return False, evals
    # T_k(s_i) = cos(k * arccos(s_i))
    coeffs = np.linalg.solve(
        np.cos(np.outer(np.arccos(s), np.arange(CHEB_NODES))),
        _CHEB_NODES).tolist()
    if abs(coeffs[-1]) + abs(coeffs[-2]) > INV_TOL:
        return False, evals
    while abs(coeffs[-1]) <= INV_TOL:
        coeffs.pop()
    rest = series[1]
    curv = math.fsum(abs(c) * k * k * (k * k - 1) / 3.0
                     for k, c in zip(range(len(rest), 0, -1), rest))
    inverse = (coeffs[0], tuple(reversed(coeffs[1:])))
    half = 0.5 * (b - a)
    return (inverse, 2.0 / rise, curv / half / half), evals


def _clenshaw(series: tuple, t: float) -> float:
    """``c0 + sum_k c_k T_k(t)`` of ``series = (c0, (c_N, ..., c_1))``."""
    c0, rest = series
    t2 = t + t
    b1 = b2 = 0.0
    for c in rest:
        b1, b2 = c + t2 * b1 - b2, b1
    return c0 + t * b1 - b2


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
    each sub-panel edge, per sub-panel the integrated series
    ``(c0, (c_N, ..., c_1))`` in ``t = -1 ... 1``, which is 0 at ``t = -1``,
    and a list of ``None``s for the sub-panels' inverse series.
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
    return edges, bases, series, [None] * len(series)


def _quadratic_steps(model: Model, src, draws, dst) -> None:
    """``dst[k]``: the next state from ``src[k]`` for the draw ``draws[k]``.

    Additive flow, shifted quadratic rate: ``t = y/kappa - a`` is the real
    root of ``t**3 + 3*b*t = q``, by Cardano in plain floats, the smaller
    cube root's argument formed through its conjugate.  An overflow, of
    ``b**3`` too, leaves an ``inf`` or ``nan`` state for the caller to report.
    """
    a, b, c = model.rate.a, model.rate.b, model.flow.c
    kappa = model.jump.kappa
    try:
        b3 = b ** 3
    except OverflowError:
        b3 = math.inf
    four_b3, two_b3 = 4.0 * b3, 2.0 * b3
    three_c, three_b = 3.0 * c, 3.0 * b
    sqrt, cbrt = math.sqrt, math.cbrt
    for k, e in enumerate(draws):
        u = src[k] - a
        q = three_c * e + u * u * u + three_b * u
        r = sqrt(four_b3 + q * q)
        # t has the sign of q; a branch costs less than abs and copysign
        if q >= 0.0:
            s = q + r
            # s = 0 only when q = b = 0, whose root is t = 0
            t = cbrt(s / 2.0) - cbrt(two_b3 / s) if s != 0.0 else 0.0
        else:
            s = r - q
            t = cbrt(two_b3 / s) - cbrt(s / 2.0)
        dst[k] = kappa * (a + t)


def _generic_steps(model: Model, src, draws, dst) -> None:
    """``dst[k]``: a numeric draw from ``src[k]`` for the draw ``draws[k]``.

    One :class:`GenericSampler` moves from state to state, so its hazard
    table serves them all; a failure names transition ``k``.
    """
    sampler = GenericSampler(model, src[0]) if len(draws) else None
    try:
        for k, e in enumerate(draws):
            sampler.move_to(src[k])
            dst[k] = sampler.draw(e)
    except (CapExceededError, StateRangeError) as exc:
        raise type(exc)(f"at transition {k}: {exc}") from exc


def _map_steps(steps, model: Model, z: np.ndarray,
               e: np.ndarray) -> np.ndarray:
    """A step kernel over ``z`` and ``e``, arrays of one shape."""
    out = np.empty(z.shape)
    steps(model, z.ravel().tolist(), e.ravel().tolist(),
          memoryview(out.reshape(-1)))
    return out


def _step_chain(steps, model: Model, z0: float,
                draws: np.ndarray) -> np.ndarray:
    """States ``z[0..n]`` by a step kernel along one buffer.

    ``src`` and ``dst`` are memoryviews of it one state apart, so each state
    is read right after it is written.
    """
    z = np.empty(len(draws) + 1)
    z[0] = z0
    states = memoryview(z)
    steps(model, states[:-1], memoryview(draws), states[1:])
    return z


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


def _family_samplers(model: Model):
    """The one family dispatch: ``(one-step sampler, chain kernel)``.

    A power rate with ``p > 0`` (:attr:`Model.power_exponent`) under either
    flow takes the power step and scan, the shifted quadratic rate under the
    additive flow the Cardano step, and every other model numeric draws.
    """
    p = model.power_exponent
    if p is not None and p > 0:
        return _power_step, _power_chain
    quadratic = (model.flow.variant == ADDITIVE
                 and isinstance(model.rate, ShiftedQuadraticRate))
    steps = _quadratic_steps if quadratic else _generic_steps
    return partial(_map_steps, steps), partial(_step_chain, steps)


def sample_next(model: Model, z, e):
    """Next state from ``z`` for the unit-exponential draw ``e``.

    The step ``simulate_chain`` takes for the model's family.  ``z`` and
    ``e`` broadcast, a float for scalars.  Whatever the family, a draw < 0
    or NaN is a ValueError naming ``e``, and then a state that is not finite
    and positive a :class:`ConfigError` naming ``z``.
    """
    e = np.asarray(e, dtype=float)
    if not np.all(e >= 0.0):
        raise ValueError("e: the exponential draw must be >= 0, "
                         f"got {float(e[~(e >= 0.0)][0])!r}")
    z, e = np.broadcast_arrays(np.asarray(z, dtype=float), e)
    good = (z > 0.0) & (z < math.inf)
    if not good.all():
        positive("z", float(z[~good][0]))   # raises, naming the first bad z
    out = _family_samplers(model)[0](model, z, e)
    return out if out.ndim else float(out)


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
    record = (tuple(map(int, np.atleast_1d(ss.entropy))),
              tuple(map(int, ss.spawn_key)))
    return JumpChain(z=z, model=model, seed=record)


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
    columns = [chain.z[1:]]
    if include_times:
        columns.append(reconstruct_times(chain))
    lines = [f"# model: {chain.model.name}",
             f"# seed: {chain.seed}",
             "# columns: z" + ("\tt" if include_times else "")]
    lines += text_rows(chain.z[:1]) + text_rows(*columns)
    return "\n".join(lines) + "\n"


def text_rows(*columns) -> list:
    """One line per row: the columns' values to 17 significant digits, tabbed."""
    row = "\t".join(["%.17g"] * len(columns))
    return [row % r for r in zip(*(np.asarray(c, dtype=float).tolist()
                                  for c in columns))]


def chain_from_text(text: str, model: Model) -> JumpChain:
    """Parse the columnar format back into a chain (header is informational).

    The first data row holds ``z[0]`` alone; every later row holds ``z[k]``
    and, in files written with times, the jump time of that state after a
    tab.  Times are checked to be numbers, then dropped: the states imply
    them (:func:`reconstruct_times`).  Raises :class:`ChainFormatError`
    naming the first line that does not fit, or when there is no data row,
    and :class:`InconsistentChainError` naming the first line whose state is
    not finite and positive, or else lies below the jump image of the state
    before it.
    """
    z = _states_from_text(text)
    try:
        chain = JumpChain(z=z, model=model)
    except InconsistentChainError as exc:
        k, reason = _first_bad_state(z), str(exc)
    else:
        # files are where chains from outside come in; a simulated chain
        # meets this up to rounding, which the support tolerance allows for
        below = model.below_support(z[:-1], z[1:])
        if not below.any():
            return chain
        k = int(np.argmax(below)) + 1
        reason = (f"z[{k}] = {float(z[k])!r} is below kappa*z[{k - 1}] = "
                  f"{model.jump.apply(z[k - 1])!r}, where no jump lands")
    lineno = [i for i, line in enumerate(text.splitlines(), start=1)
              if _is_data(line)][k]
    raise InconsistentChainError(f"chain line {lineno}: {reason}")


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
