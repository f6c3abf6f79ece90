"""The numeric next-state sampler, for rates without a closed-form step.

``GenericSampler`` inverts a Chebyshev table of the cumulative hazard ``G``
along the flow: an inverse series per sub-panel, interpolated at the hazard
of the table's own nodes, gives a start that one confirming Newton step
finishes.  A chain walks in hazard coordinates, ``h' = phi(h) + e`` with
``phi(h) = G(kappa*G^{-1}(h))`` one series per transition, after which one
vectorized pass of the inverse recovers every state; ``sample_next`` over
an array takes the same pass.  The tables, phi's included, are kept per model
in the process and keyed by panel (:func:`_store`), so every chain of a model
reads them.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from .errors import CapExceededError, StateRangeError, positive
from .model import ADDITIVE, Model, PowerRate, ShiftedQuadraticRate


# GenericSampler: a draw gives up at the state cap CAP_FACTOR * max(z, 1).
# _fit_panel interpolates the hazard integrand at CHEB_NODES Chebyshev points
# per sub-panel and halves a sub-panel until its series meets CHEB_RTOL or
# one of the stops PANEL_FLOOR, MAX_HALVINGS and MAX_LEAVES.  A sub-panel's
# inverse series (_invert) interpolates the same points against their
# hazard; it is kept when its two last coefficients are at most INV_TOL, and
# cut after its last coefficient above INV_TOL, and the inverse is halved
# until it is, under the same stops.  A draw ends when a Newton step is at
# most ROOT_ULPS ulps or its second-order term is below an ulp, or after
# NEWTON_STEPS steps.  The phi table of a chain (_phi_panel) takes the same
# nodes, test and stops.
CAP_FACTOR = 1e3
CHEB_NODES = 17
CHEB_RTOL = 1e-14
PANEL_FLOOR = 1e-18
MAX_HALVINGS = 48
MAX_LEAVES = 256
INV_TOL = 1e-10
NEWTON_STEPS = 100
ROOT_ULPS = 4.0
# A chain builds the phi table over a panel on its PHI_VISITS-th exact step
# from it since the table last grew downward, so that a chain passing
# through, as one falling toward 0 does, takes exact steps rather than the
# phi table's node solves (BENCH_hazard_chain.json, "phi_visits").
PHI_VISITS = 3

# values of g at the Chebyshev points cos(theta_i), ends included, ->
# coefficients of the interpolating series (a discrete cosine transform)
_CHEB_THETA = np.arange(CHEB_NODES) * (np.pi / (CHEB_NODES - 1))
_CHEB_NODES = tuple(np.cos(_CHEB_THETA).tolist())
_CHEB_MATRIX = (2.0 / (CHEB_NODES - 1)) * np.cos(
    np.outer(np.arange(CHEB_NODES), _CHEB_THETA))
_CHEB_MATRIX[:, [0, -1]] *= 0.5
_CHEB_MATRIX[[0, -1]] *= 0.5


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


@functools.lru_cache(maxsize=1)
def _store(key: tuple) -> tuple:
    """The tables of the model ``key = (flow, jump, rate)`` used last: by
    panel index ``k`` the panel records, their inverses filled in as draws
    reach them, and the phi sub-panels over the panel.  Each is a function
    of the model and ``k`` alone, so a chain's states do not depend on what
    the process simulated before (two threads may both build an entry, and
    alike).  A command or bench worker simulates one model."""
    return {}, {}


class GenericSampler:
    """Numeric next-state sampler, moved from state to state along a chain.

    The hazard integrand ``g`` of :func:`_scalar_integrand` does not depend
    on the state, so one antiderivative ``G`` of it serves every transition:
    a draw from ``z`` solves ``G(y) = G(kappa*z) + e``.  ``G`` is a table of
    Chebyshev series on geometric panels (:func:`_fit_panel`), taken from the
    model's store (:func:`_store`) as the states reach them.  A draw
    brackets the root by the hazard at panel and sub-panel ends.  The first
    draw into a sub-panel gives it an inverse series ``t(h)``
    (:func:`_invert`), in pieces halved until each meets its tail test, and
    every draw into it starts there; a piece whose inverse cannot be made
    (``g`` vanishes or kinks in it) keeps the flag ``False`` and starts
    where the hazard, taken as linear across the sub-panel, meets the draw.
    Newton's method on :meth:`hazard_to` with ``g`` as the
    derivative then finishes, bisecting when a step leaves the bracket; from
    an inverse start its first step is the last.  ``G`` is anchored at the
    lowest panel it holds, ``k0``, so a hazard is exact to about ``eps``
    times the hazard from there, which an anchor above a chain's range
    would lose; when the table grows downward, the hazards of the panels
    (``_cum``) are summed again from the new ``k0``.  The panel records, in
    panel-local hazard, do not change, nor do the phi records of a panel,
    each in the hazard of its own sub-panel.  :meth:`chain` runs a whole
    chain in hazard coordinates ``h = G(z)``, one series per transition,
    and :meth:`states` inverts an array of hazards in one vectorized pass.

    The counters are plain ints: ``g_evals`` counts evaluations of ``G``,
    ``G(kappa*z)`` and the cap check included; ``newton_steps`` the Newton
    iterations; ``panels_built`` and ``inverses_built`` the panels and
    sub-panel inverses this sampler added to the store, fallbacks included;
    ``fallback_draws`` the solves that start in a flagged piece.  A chain
    adds ``phi_built``, the phi sub-panels it added to the store, flagged
    ones included; ``exact_steps``, the transitions it takes
    through a draw's own solve rather than the phi table; and
    ``exact_states``, the states :meth:`states` leaves to the scalar solve.
    """

    def __init__(self, model: Model, z: float):
        self._kappa = model.jump.kappa
        self._integrand = _scalar_integrand(model)
        try:
            self._stored, self._stored_phi = _store(
                (model.flow, model.jump, model.rate))
        except TypeError:
            # a rate function that cannot be a key keeps its own tables
            self._stored, self._stored_phi = {}, {}
        self.move_to(z)
        # top-level panels k0, k0+1, ...: sub-panel edges, the hazard from
        # the panel's left edge to each, a series per sub-panel and its
        # inverse (None until built); and the hazard from the left edge of
        # panel k0 to the left edge of each panel and past the last
        self._k0 = _panel_index(self.lo)
        self._panels = []
        self._cum = [0.0]
        # the phi table: sub-panel left edges in hazard, in order, and a
        # record (right edge, midpoint, 1/half-width, c0, (c_N, ..., c_1))
        # for each, every hazard in it less the left edge, so that a lift
        # moves the edges alone; behind a sentinel; and the exact steps from
        # each panel since the table last grew downward
        self._phi_lo = [-math.inf]
        self._phi = [(0.0, 0.0, 0.0, math.inf, ())]
        self._phi_visits = {}
        self.g_evals = self.newton_steps = 0
        self.panels_built = self.inverses_built = self.fallback_draws = 0
        self.phi_built = self.exact_steps = self.exact_states = 0

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
        """Take panels from the store, fitting those it lacks, until the
        table holds panel ``k``; ``_cum`` is their running sum from ``k0``."""
        if k < self._k0:
            # G is anchored at the lowest panel: sums start again there, phi
            # edges move up by the hazard below the old anchor, and visit
            # counts start again (a chain growing downward passes through)
            k0, top = self._k0, self._k0 + len(self._panels)
            self._k0, self._panels, self._cum = k, [], [0.0]
            self._build(top - 1)
            shift = self._cum[k0 - k]
            self._phi_lo[:] = [a + shift for a in self._phi_lo]
            self._phi_visits.clear()
        while k >= self._k0 + len(self._panels):
            j = self._k0 + len(self._panels)
            if j not in self._stored:
                self._stored[j] = _fit_panel(self._integrand, j)
                self.panels_built += 1
            self._panels.append(self._stored[j])
            self._cum.append(self._cum[-1] + self._stored[j][1][-1])

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
            self.g_evals += 1
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
            return self._root(self._reach(e), e)
        except OverflowError as exc:
            raise self._range_error() from exc

    def _range_error(self) -> StateRangeError:
        # the integrand works in Python floats, which raise on overflow
        return StateRangeError(
            f"the hazard from z = {self.z!r} overflows double precision "
            "before reaching the draw")

    def _at(self, k: int, exc: Exception) -> Exception:
        """The error of transition ``k`` of a chain, from ``exc``."""
        if isinstance(exc, OverflowError):
            exc = self._range_error()
        return type(exc)(f"at transition {k}: {exc}")

    def _locate(self, target: float) -> tuple:
        """``(i, j)``: the sub-panel ``[edges[j-1], edges[j])`` of panel
        ``i`` holding the hazard ``target``, clamped to the table."""
        i = min(max(bisect.bisect_right(self._cum, target) - 1, 0),
                len(self._panels) - 1)
        bases = self._panels[i][1]
        j = bisect.bisect_right(bases, target - self._cum[i])
        return i, min(max(j, 1), len(bases) - 1)

    def _reach(self, e: float) -> float:
        """The hazard ``G(lo) + e`` of the draw's root, the table built up
        to it; :class:`CapExceededError` exactly when ``hazard_to(cap) < e``."""
        target = self._base() + e
        # panels up to the one holding the target, or to the cap
        while (self._cum[-1] <= target
               and _panel_edge(self._k0 + len(self._panels)) <= self.cap):
            self._build(self._k0 + len(self._panels))
        if self._cum[-1] <= target:
            raise self._cap_error(e)
        i, j = self._locate(target)
        if self._panels[i][0][j] > self.cap:
            self.g_evals += 1
            if self.hazard_to(self.cap) < e:
                raise self._cap_error(e)
        return target

    def _root(self, target: float, e: float) -> float:
        """The root of ``hazard_to(y) = e`` above ``lo``, at hazard
        ``target``."""
        i, j = self._locate(target)
        edges, bases, _, _ = self._panels[i]
        # G(lo) may round to below its sub-panel's start, hence the max
        lo, hi = max(edges[j - 1], self.lo), min(edges[j], self.cap)
        if hi <= lo or e <= 0.0:
            # the root is within rounding of the jump image, or on it
            return lo
        if target >= self._cum[i] + bases[j]:
            # on the table's top: Newton would only bisect toward it
            return hi
        starts, pieces, curv = self._inverse(i, j)
        h = target - self._cum[i] - bases[j - 1]
        p = bisect.bisect_right(starts, h, 1) - 1
        if pieces[p]:
            coeffs, scale = pieces[p]
            y = edges[j - 1] + (0.5 * (edges[j] - edges[j - 1])) * (
                _clenshaw(coeffs, (h - starts[p]) * scale - 1.0) + 1.0)
        else:
            # start where the hazard, taken as linear across the sub-panel,
            # meets e
            self.fallback_draws += 1
            rise = bases[j] - bases[j - 1]
            y = (edges[j - 1] + (edges[j] - edges[j - 1]) * (h / rise)
                 if rise > 0.0 else lo)
            curv = math.inf
        y, steps = self._newton(e, y, lo, hi, curv)
        self.g_evals += steps
        self.newton_steps += steps
        return y

    def _inverse(self, i: int, j: int) -> tuple:
        """The inverse (:func:`_invert`) of sub-panel ``j`` of panel ``i``,
        built into the store first.  It leaves the panel's series as they
        are, so that ``G`` is the same for every sampler of the model."""
        edges, bases, series, inverses = self._panels[i]
        if inverses[j - 1] is None:
            a, b = edges[j - 1], edges[j]
            inverses[j - 1], evals = _invert(
                self._integrand, a, b, series[j - 1], bases[j] - bases[j - 1],
                round(math.log2((edges[-1] - edges[0]) / (b - a))))
            self.g_evals += evals
            self.inverses_built += 1
        return inverses[j - 1]

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

    def _state(self, h: float) -> float:
        """``G^{-1}(h)`` for a hazard ``h`` inside the table: the root of a
        draw of ``h - G(a)`` from the left edge ``a`` of its sub-panel, taken
        as the jump image for the solve."""
        i, j = self._locate(h)
        saved = self.lo, self._g_lo, self.cap
        self.lo = self._panels[i][0][j - 1]
        self._g_lo = self._cum[i] + self._panels[i][1][j - 1]
        self.cap = math.inf
        try:
            return self._root(h, h - self._g_lo)
        finally:
            self.lo, self._g_lo, self.cap = saved

    def chain(self, draws) -> np.ndarray:
        """The states after the current one for one or more unit-exponential
        ``draws`` (a sequence of floats), the chain ``simulate_chain`` makes.

        With ``h = G(z)`` a transition is ``h' = phi(h) + e``, where
        ``phi(h) = G(kappa*G^{-1}(h))``: one series of the phi table per
        step (:meth:`_phi_panel`) while ``h'`` is below the table's top.
        A step the table does not cover, or that reaches the top, is a draw
        from the state of ``h``, solved for first if a phi step left only
        ``h``.  The ``PHI_VISITS``-th such step from a panel builds the phi
        table over it.  :meth:`states` inverts the hazards of the phi steps
        in one pass, and before a draw that grows the table downward those
        walked so far; then each is held to its cap.  No state lands below
        the jump image of the one before.  A failure names transition
        ``k``, or an earlier state past its cap.
        """
        # the states the draws solved for, nan where a phi step left only
        # the hazard; the hazards go to a buffer, not a list of floats that
        # would scatter a chain's worth of objects over the allocator
        z = np.full(len(draws), np.nan)
        hs = np.empty(len(draws))
        out = memoryview(hs)
        lows, records = self._phi_lo, self._phi
        # h is the hazard of the state before transition k, and y that state
        # unless a phi step left it unsolved; the hazards before start are
        # inverted; top, the table's top hazard, is set by the exact first step
        z0, k, h, y, solved, start = self.z, 0, -math.inf, self.z, True, 0
        try:
            for k in range(len(draws)):
                e = draws[k]
                j = bisect.bisect_right(lows, h) - 1
                u = h - lows[j]
                b, mid, scale, c0, rest = records[j]
                covered = u < b
                if covered:
                    # _clenshaw, inlined
                    x = (u - mid) * scale
                    x2 = x + x
                    b1 = b2 = 0.0
                    for c in rest:
                        b1, b2 = c + x2 * b1 - b2, b1
                    after = lows[j] + (c0 + x * b1 - b2 + e)
                    if after < top:
                        out[k] = h = after
                        solved = False
                        continue
                if not solved:
                    z[k - 1] = y = self._state(h)
                self.move_to(y)
                if _panel_index(self.lo) < self._k0:
                    # the draw grows the table downward, which moves every
                    # hazard in it: the walk's are inverted first, in the
                    # table they were found in
                    self._fill(z[start:k], hs[start:k])
                    start = k
                if not covered and k:
                    # from a state in the table (z0 may lie above it)
                    self._phi_panel(_panel_index(y))
                out[k] = h = self._reach(e)
                z[k] = y = self._root(h, e) if e else self.lo
                solved = True
                self.exact_steps += 1
                top = self._cum[-1]
            k, error = len(draws), None
        except (OverflowError, CapExceededError, StateRangeError) as exc:
            error = exc
        # a phi step leaves its cap unchecked: the first state past its cap
        # (those from the failed transition k on are nan) fails as its draw
        # would have, ahead of transition k
        self._fill(z[start:k], hs[start:k])
        prev = np.concatenate(([z0], z[:-1]))
        for m in np.flatnonzero(z > CAP_FACTOR * np.maximum(prev, 1.0))[:1]:
            self.move_to(prev[m])
            k, error = int(m), self._cap_error(draws[m])
        if error is not None:
            raise self._at(k, error) from error
        np.maximum(z, self._kappa * prev, out=z)
        return z

    def _fill(self, z: np.ndarray, hs: np.ndarray) -> None:
        """The states of the hazards ``hs`` into the nan entries of ``z``."""
        walked = np.isnan(z)
        z[walked] = self.states(hs[walked])

    def _phi_panel(self, k: int) -> None:
        """Count a draw from panel ``k`` that the phi table does not cover,
        and from the ``PHI_VISITS``-th on, once the hazard table holds the
        panel's jump images, splice in the phi sub-panels over it from the
        store (:meth:`_fit_phi` when missing), edges moved to this table."""
        visits = self._phi_visits[k] = self._phi_visits.get(k, 0) + 1
        lo = self._kappa * _panel_edge(k)
        if visits < PHI_VISITS or not lo > 0.0 or _panel_index(lo) < self._k0:
            return
        if k not in self._stored_phi:
            self._stored_phi[k] = self._fit_phi(k)
        lows, records = self._stored_phi[k]
        shift = self._cum[_panel_index(lo) - self._k0]
        at = bisect.bisect_right(self._phi_lo, lows[0] + shift)
        self._phi_lo[at:at] = [a + shift for a in lows]
        self._phi[at:at] = records

    def _fit_phi(self, k: int) -> tuple:
        """The phi sub-panels over the hazards of panel ``k``, fitted on a
        table from the panel ``p`` holding the jump image of ``k``'s left
        edge to ``k``, swapped in for the sampler's: their left edges, in
        the hazard from ``p``, and records, a function of the model and
        ``k`` alone.

        ``phi(h) = G(kappa*G^{-1}(h))`` is interpolated at the
        ``CHEB_NODES`` Chebyshev points of a sub-panel, each from one node
        solve (:meth:`_state`) and one ``G``, and the sub-panel halved as
        :func:`_fit_panel` halves, until its series less its value at the
        left end meets ``CHEB_RTOL`` or the tail is within ``ROOT_ULPS`` ulps
        of ``phi``.  The table ends at panel ``k``, so the node at its top
        hazard stays in it.  Where ``phi`` is not smooth (``g`` kinks or
        vanishes at ``y`` or ``kappa*y``) a sub-panel is flagged: one with a
        node in a flagged piece of ``G``'s inverse, or one that stops halving
        short of the test or is narrower than ``PANEL_FLOOR``.
        """
        p = _panel_index(self._kappa * _panel_edge(k))
        left, right = _panel_edge(k), _panel_edge(k + 1)
        saved = self._k0, self._panels, self._cum
        self._k0, self._panels, self._cum = p, [], [0.0]
        try:
            self._build(k)
            todo = [(self._cum[k - p], self._cum[-1], 0)]
            lows, records = [], []
            while todo:
                a, b, depth = todo.pop()
                half = 0.5 * (b - a)
                mid = a + half
                lows.append(a)
                # a flagged record: every step from it is exact
                flagged = (b - a, 0.0, 0.0, math.inf, ())
                if b - a < PANEL_FLOOR:
                    records.append(flagged)
                    continue
                fallbacks = self.fallback_draws
                # the bottom node may round below a, into the panel below
                ys = [min(max(self._state(max(mid + half * t, a)), left),
                          right) for t in _CHEB_NODES]
                values = [self._antiderivative(self._kappa * y) for y in ys]
                self.g_evals += CHEB_NODES
                # phi less its value at the left end, so that the test is
                # relative to phi's rise, down to the rounding of phi itself
                c = _chebyshev([v - values[-1] for v in values])
                ulp = math.ulp(values[0])
                if self.fallback_draws > fallbacks:
                    # a node in a flagged sub-panel of G: G^{-1} is not smooth
                    records.append(flagged)
                elif _smooth(c) or abs(c[-2]) + abs(c[-1]) <= ROOT_ULPS * ulp:
                    # terms below a quarter ulp of phi add nothing to a step
                    while len(c) > 1 and abs(c[-1]) <= 0.25 * ulp:
                        c.pop()
                    records.append((b - a, half, 1.0 / half,
                                    c[0] + (values[-1] - a),
                                    tuple(reversed(c[1:]))))
                elif _can_halve(depth, len(records) + len(todo)):
                    lows.pop()
                    # left half on top: sub-panels come off the stack in order
                    todo += [(mid, b, depth + 1), (a, mid, depth + 1)]
                else:
                    records.append(flagged)
        finally:
            self._k0, self._panels, self._cum = saved
        self.phi_built += len(records)
        return lows, records

    def states(self, hs) -> np.ndarray:
        """The states ``y`` with ``G(y) = h`` for hazards ``hs`` inside the
        table, in one vectorized pass.

        ``searchsorted`` finds each hazard's panel, then its sub-panel among
        those of the panels found, then its piece of the sub-panel's inverse
        (built first where missing), which gives the start; one Newton step
        on the sub-panel's hazard series finishes, kept where it passes the
        test :meth:`_newton` stops on.  The rest, in flagged pieces or not
        certified, go through the scalar solve :meth:`_state`.
        """
        h = np.asarray(hs, dtype=float)
        if not h.size:
            return np.empty(h.shape)
        found = np.flatnonzero(np.bincount(_bins(self._cum[:-1], h)))
        rows = [(i, j) for i in found.tolist()
                for j in range(1, len(self._panels[i][0]))]
        starts = [self._cum[i] + self._panels[i][1][j - 1] for i, j in rows]
        # per piece of a sub-panel holding a hazard: the sub-panel's first
        # hazard, the piece's less that and its own, the sub-panel's edges and
        # curv, and 2/rise; and the inverse and hazard series as rows of
        # _clenshaw_rows
        pieces = []
        for u in np.flatnonzero(np.bincount(_bins(starts, h))).tolist():
            first, inverses, curv = self._inverse(*rows[u])
            pieces += [(rows[u], starts[u], curv, hp, inverse)
                       for hp, inverse in zip(first, inverses)]
        ends = np.zeros((len(pieces), 7))
        inverse = np.zeros((len(pieces), CHEB_NODES))
        hazard = np.zeros((len(pieces), CHEB_NODES + 1))
        for u, ((i, j), start, curv, hp, piece) in enumerate(pieces):
            ends[u, :3] = start, hp, start + hp
            if piece:
                edges, _, series, _ = self._panels[i]
                coeffs, scale = piece
                ends[u, 3:] = edges[j - 1], edges[j], curv, scale
                _series_row(inverse[u], coeffs)
                _series_row(hazard[u], series[j - 1])
        at = _bins(ends[:, 2], h)
        good = np.array([bool(piece[-1]) for piece in pieces])[at]
        at = at[good]
        start, hp, _, a, b, curv, scale = ends[at].T
        local = h[good] - start
        t, _ = _clenshaw_rows(inverse, at, (local - hp) * scale - 1.0)
        s, slope = _clenshaw_rows(hazard, at, t)
        half = 0.5 * (b - a)
        y = a + half * (t + 1.0)
        # in place where it can be: each array holds a whole chain, and
        # fewer of them leave fewer holes in the heap between passes
        with np.errstate(all="ignore"):
            # a zero slope fails the test below
            d = np.divide(slope, half, out=slope)
            step = np.divide(s - local, d, out=s)
        ulp = np.spacing(y)
        size = np.abs(step)
        sure = size <= ROOT_ULPS * ulp
        sure |= ((curv * size * size <= 0.5 * d * ulp)
                 & (size * CHEB_RTOL <= 0.25 * ulp))
        sure &= (a < y) & (y < b) & (d > 0.0)
        y -= step
        z = np.empty(h.shape)
        z[good] = y
        good[good] = sure
        rest = np.flatnonzero(~good)
        for k in rest.tolist():
            z[k] = self._state(float(h[k]))
        self.exact_states += len(rest)
        return z

    def _next_states(self, zs: list, es: list) -> np.ndarray:
        """The roots of the draws ``es`` from the states ``zs``, none below
        the state made at: hazards by :meth:`_reach`, then one :meth:`states`
        pass, or for one draw its own solve; a failure names its index."""
        hs = []
        k = 0
        try:
            for k, (z, e) in enumerate(zip(zs, es)):
                self.move_to(z)
                hs.append(self._reach(e))
            if len(hs) == 1:
                return np.array([self._root(hs[0], es[0])])
        except (OverflowError, CapExceededError, StateRangeError) as exc:
            raise self._at(k, exc) from exc
        return self.states(hs)


def _bins(lows, h: np.ndarray) -> np.ndarray:
    """Per ``h``, the index of the last of the sorted ``lows`` to it, or 0."""
    at = np.searchsorted(lows, h, side="right") - 1
    return np.clip(at, 0, len(lows) - 1)


def _series_row(row: np.ndarray, series: tuple) -> None:
    """``series = (c0, (c_N, ..., c_1))`` into ``row`` as
    ``(c0, 0, ..., 0, c_N, ..., c_1)``."""
    c0, rest = series
    row[0] = c0
    row[len(row) - len(rest):] = rest


def _clenshaw_rows(rows: np.ndarray, at: np.ndarray, t: np.ndarray) -> tuple:
    """:func:`_clenshaw` of the series in row ``at[k]`` of ``rows``
    (:func:`_series_row`) at ``t[k]``, and its derivative in ``t``; one
    column is gathered at a time, so no temporary holds more than ``t``."""
    t2 = t + t
    b1 = b2 = d1 = d2 = 0.0
    for column in rows[:, 1:].T:
        c = column[at]
        b1, b2, d1, d2 = c + t2 * b1 - b2, b1, 2.0 * b1 + t2 * d1 - d2, d1
    return rows[at, 0] + t * b1 - b2, b1 + t * d1 - d2


def _invert(g, a: float, b: float, series: tuple, rise: float,
            depth: int) -> tuple:
    """``(starts, pieces, curv)``, the inverse of sub-panel ``[a, b)``,
    ``depth`` halvings deep in its panel; and the evaluations of its hazard
    series ``S(t)``, with ``rise = S(1)``, that it took.

    A piece ``[ta, tb]`` of ``t``, ``w = (tb - ta)/2``, interpolates ``t``
    at its ``CHEB_NODES`` Chebyshev points ``t_i`` against their images
    ``s_i = 2*(S(t_i) - S(ta))/(S(tb) - S(ta)) - 1`` (table inversion as in
    Hoermann & Leydold, 2003): its coefficients solve ``sum_k c_k T_k(s_i) =
    t_i``.  It is ``False`` (the fallback flag) where its rise is below
    ``PANEL_FLOOR`` or the ``s_i`` are not strictly monotone; halved while
    its two last coefficients exceed ``INV_TOL*w``, unless the stops of
    :func:`_fit_panel` hold or ``g`` vanishes at an end (the slope ``1/g``
    is infinite), and ``False`` then.  Otherwise it is the coefficients, cut
    after the last above ``INV_TOL*w``, as a series in ``s``, and
    ``2/(S(tb) - S(ta))``.  ``starts`` holds each piece's ``S(ta)``;
    ``curv`` bounds ``|G''|`` on the sub-panel by Markov's inequality for
    each term ``A_k T_k`` of ``S``, ``sum |A_k| k**2 (k**2 - 1)/3 / half**2``
    (infinite if that overflows, which only disables the early exit of
    :meth:`GenericSampler._newton`).
    """
    rest = series[1]
    half = 0.5 * (b - a)
    curv = math.fsum(abs(c) * k * k * (k * k - 1) / 3.0
                     for k, c in zip(range(len(rest), 0, -1), rest))
    starts, pieces, evals = [], [], 0
    todo = [(-1.0, 1.0, 0.0, rise, depth)]
    while todo:
        ta, tb, ha, hb, depth = todo.pop()
        mid, w, rise = 0.5 * (ta + tb), 0.5 * (tb - ta), hb - ha
        piece = False
        if PANEL_FLOOR <= rise < math.inf:
            # the end nodes t = tb, ta map to s = 1, -1
            s = [1.0] + [2.0 * (_clenshaw(series, mid + w * t) - ha) / rise
                         - 1.0 for t in _CHEB_NODES[1:-1]] + [-1.0]
            evals += CHEB_NODES - 2
            if all(x > y for x, y in zip(s, s[1:])):
                # T_k(s_i) = cos(k * arccos(s_i))
                coeffs = np.linalg.solve(
                    np.cos(np.outer(np.arccos(s), np.arange(CHEB_NODES))),
                    [mid + w * t for t in _CHEB_NODES]).tolist()
                if abs(coeffs[-1]) + abs(coeffs[-2]) <= INV_TOL * w:
                    while abs(coeffs[-1]) <= INV_TOL * w:
                        coeffs.pop()
                    piece = ((coeffs[0], tuple(reversed(coeffs[1:]))),
                             2.0 / rise)
                elif (_can_halve(depth, len(pieces) + len(todo))
                      and g(a + half * (ta + 1.0)) > 0.0
                      and g(a + half * (tb + 1.0)) > 0.0):
                    # the top from the series too: the rise from the
                    # panel's hazards rounds with their size
                    hm, hb = _clenshaw(series, mid), _clenshaw(series, tb)
                    evals += 2
                    # left half on top, so pieces come off the stack in order
                    todo += [(mid, tb, hm, hb, depth + 1),
                             (ta, mid, ha, hm, depth + 1)]
                    continue
        starts.append(ha)
        pieces.append(piece)
    return (starts, pieces, curv / half / half), evals


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


def _chebyshev(values: list) -> list:
    """Coefficients of the series through ``values`` at the Chebyshev points."""
    with np.errstate(all="ignore"):
        # a value that is not finite shows in what callers sum
        return (_CHEB_MATRIX @ np.array(values, dtype=float)).tolist()


def _smooth(c: list) -> bool:
    """Whether the two last coefficients of ``c`` are at most ``CHEB_RTOL``
    times the sum of all."""
    return abs(c[-2]) + abs(c[-1]) <= CHEB_RTOL * sum(map(abs, c))


def _can_halve(depth: int, leaves: int) -> bool:
    return depth < MAX_HALVINGS and leaves < MAX_LEAVES


def _integral(g, a: float, b: float) -> tuple:
    """``g`` on ``[a, b)``: its Chebyshev coefficients, the integrated series
    ``(c0, (c_N, ..., c_1))`` in ``t = -1 ... 1``, which is 0 at ``t = -1``,
    and its total."""
    half = 0.5 * (b - a)
    mid = a + half
    c = _chebyshev([float(g(mid + half * t)) for t in _CHEB_NODES])
    # term by term: the integral of T_j is T_{j+1}/(2(j+1)) - T_{j-1}/(2(j-1))
    d = c + [0.0, 0.0]
    ints = [half * (d[0] - 0.5 * d[2])]
    ints += [half * (d[j - 1] - d[j + 1]) / (2 * j)
             for j in range(2, CHEB_NODES + 1)]
    total = 2.0 * math.fsum(ints[0::2])
    if not math.isfinite(total):
        raise OverflowError("the hazard integrand is not finite")
    c0 = math.fsum(-v if j % 2 else v for j, v in enumerate(ints))
    return c, (c0, tuple(reversed(ints))), total


def _fit_panel(g, k: int):
    """Chebyshev antiderivative of ``g`` on top-level panel ``k``.

    Returns the sub-panel edges, the hazard from the panel's left edge to
    each sub-panel edge, per sub-panel the integrated series of
    :func:`_integral`, and a list of ``None``s for the sub-panels' inverse
    series.  A sub-panel is halved while its two last coefficients of ``g``
    exceed ``CHEB_RTOL`` times the sum of all of them, unless its hazard is
    below ``PANEL_FLOOR`` (an integrand that underflows never passes the
    relative test), it has been halved ``MAX_HALVINGS`` times (a kink never
    passes it) or the panel has ``MAX_LEAVES`` sub-panels (nor does noise).
    """
    edges, bases, series = [], [0.0], []
    todo = [(_panel_edge(k), _panel_edge(k + 1), 0)]
    while todo:
        a, b, depth = todo.pop()
        c, fitted, total = _integral(g, a, b)
        if (not _smooth(c) and abs(total) >= PANEL_FLOOR
                and _can_halve(depth, len(series) + len(todo))):
            mid = a + 0.5 * (b - a)
            # left half on top, so sub-panels come off the stack in order
            todo += [(mid, b, depth + 1), (a, mid, depth + 1)]
            continue
        edges.append(a)
        bases.append(bases[-1] + total)
        series.append(fitted)
    edges.append(_panel_edge(k + 1))
    return edges, bases, series, [None] * len(series)



def _generic_chain(model: Model, z0: float, draws: np.ndarray) -> np.ndarray:
    """States ``z[0..n]`` by numeric draws: :meth:`GenericSampler.chain`."""
    z = np.empty(len(draws) + 1)
    z[0] = z0
    z[1:] = GenericSampler(model, z0).chain(memoryview(draws))
    return z


def _generic_next(model: Model, z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Numeric draws from ``z`` for ``e``, arrays of one shape: each root's
    hazard from one table, inverted by :meth:`GenericSampler.states`."""
    zs, es = z.ravel().tolist(), e.ravel().tolist()
    if not zs:
        return np.empty(z.shape)
    # the table starts at the lowest state, so it never grows downward
    y = GenericSampler(model, min(zs))._next_states(zs, es)
    lo = model.jump.kappa * z.ravel()
    return np.where(e.ravel() == 0.0, lo, np.maximum(y, lo)).reshape(z.shape)
