"""The numeric next-state sampler, for rates without a closed-form step.

``GenericSampler`` inverts a Chebyshev table of the cumulative hazard ``G``
along the flow: an inverse series per sub-panel, interpolated at the hazard
of the table's own nodes, gives a start that one confirming Newton step
finishes.  A hazard is a pair, a panel and the hazard from its left edge.
A chain walks in hazard coordinates, ``h' = phi(h) + e`` with
``phi(h) = G(kappa*G^{-1}(h))`` one series per transition, after which one
vectorized pass of the inverse recovers every state.  The tables, phi's
included, are kept per model in the process and keyed by panel
(:func:`_store`), so every chain of a model reads them.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from .errors import CapExceededError, StateRangeError, positive
from .model import ADDITIVE, Model


# GenericSampler: a draw gives up at the state cap CAP_FACTOR * max(z, 1).
# _fit_panel interpolates the hazard integrand at CHEB_NODES Chebyshev points
# per sub-panel and halves a sub-panel until its series meets CHEB_RTOL or
# one of the stops PANEL_FLOOR, MAX_HALVINGS and MAX_LEAVES.  A sub-panel's
# inverse series (_invert) interpolates the same points against their
# hazard; it is kept when its two last coefficients are at most INV_TOL, and
# cut after its last coefficient above INV_TOL, and the inverse is halved
# until it is, under the same stops.  A draw ends when a Newton step is at
# most ROOT_ULPS ulps or its second-order term is below an ulp, or after
# NEWTON_STEPS steps.  A panel's phi table (_fit_phi) takes the same nodes,
# test and stops.
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
_CAPPED_MAX = float(np.finfo(float).max) / CAP_FACTOR   # above it, no cap


def _scalar_integrand(model: Model):
    """Scalar hazard integrand ``rate(f^{-1}(u)) * weight(u)``.

    The hazard table and Newton's method evaluate this point by point: the
    rate's own ``rate`` at one Python float, and the weight of
    :meth:`Model.transition_weight` written out in plain float arithmetic.
    """
    inv_k = 1.0 / model.jump.kappa
    c = model.flow.c
    rate_of = model.rate.rate
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
    """The tables of the model ``key = (flow, jump, rate)`` used last, each
    by panel index ``k``: the panel records, their inverses filled in as
    draws reach them; the phi table over the panel; and the running sums of
    the panels' hazards from the panel's left edge.  Each is a function of
    the model and ``k`` alone, so a chain's states do not depend on what the
    process simulated before (two threads may both build an entry, and
    alike).  A command or bench worker simulates one model."""
    return {}, {}, {}


class GenericSampler:
    """Numeric next-state sampler, moved from state to state along a chain.

    The hazard integrand ``g`` of :func:`_scalar_integrand` does not depend
    on the state, so one antiderivative ``G`` of it serves every transition:
    a draw from ``z`` solves ``G(y) = G(kappa*z) + e``.  ``G`` is a table of
    Chebyshev series on geometric panels (:func:`_fit_panel`), taken from the
    model's store (:func:`_store`) as the states reach them.  A hazard is a
    pair: a panel ``k`` and the hazard from its left edge, so it is exact to
    about ``eps`` times the hazard across a few panels wherever the chain
    is.  A draw measures from the panel ``p`` of ``kappa*z``, whose running
    sums of panel hazards find the root's panel with one ``bisect``, and
    its sub-panel by the hazard at sub-panel ends.  The first draw into a
    sub-panel gives it an inverse series ``t(h)`` (:func:`_invert`), in
    pieces halved until each meets its tail test, and every draw into it
    starts there; a piece whose inverse cannot be made (``g`` vanishes or
    kinks in it) keeps the flag ``False`` and starts where the hazard,
    taken as linear across the sub-panel, meets the draw.  Newton's method
    on :meth:`hazard_to` with ``g`` as the derivative then finishes,
    bisecting when a step leaves the bracket; from an inverse start its
    first step is the last.  :meth:`chain` runs a whole chain in hazard
    coordinates, one series per transition, and :meth:`states` inverts
    arrays of pairs in one vectorized pass.

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
            self._stored, self._stored_phi, self._sums_from = _store(
                (model.flow, model.jump, model.rate))
        except TypeError:
            # a rate function that cannot be a key keeps its own tables
            self._stored, self._stored_phi, self._sums_from = {}, {}, {}
        self.move_to(z)
        self.g_evals = self.newton_steps = 0
        self.panels_built = self.inverses_built = self.fallback_draws = 0
        self.phi_built = self.exact_steps = self.exact_states = 0

    def move_to(self, z: float) -> None:
        """Make ``z`` the current state; the hazard table is kept."""
        positive("z", z)
        self.z = float(z)
        self.lo = self._kappa * self.z
        if not self.lo >= 2.0 ** -1022:   # below it, panel edges collapse
            raise StateRangeError(f"the jump image of z = {self.z!r} is below "
                                  "the smallest normal double")
        self.cap = CAP_FACTOR * max(self.z, 1.0)
        # hazards are measured from the left edge of the jump image's panel
        self._p = _panel_index(self.lo)
        self._g_lo = None   # G(lo), found on first use

    def _panel(self, k: int) -> tuple:
        """Panel ``k``'s record from the store, fitted first if missing."""
        panel = self._stored.get(k)
        if panel is None:
            panel = self._stored[k] = _fit_panel(self._integrand, k)
            self.panels_built += 1
        return panel

    def _sums(self, p: int, target: float, cap: float) -> list:
        """The running sums ``s`` from the store: ``s[i]`` is the hazard from
        the left edge of panel ``p`` to that of ``p + i``.  They are
        extended there while ``s[-1] <= target`` and the next panel's left
        edge is at most ``cap``, into a new list, so that two threads
        extending them at once do not interleave."""
        s = self._sums_from.get(p, (0.0,))
        if s[-1] <= target and _panel_edge(p + len(s) - 1) <= cap:
            s = list(s)
            while s[-1] <= target and _panel_edge(p + len(s) - 1) <= cap:
                s.append(s[-1] + self._panel(p + len(s) - 1)[1][-1])
            self._sums_from[p] = s
        return s

    def _hazard(self, p: int, u: float) -> float:
        """``G(u)``, the hazard from the left edge of panel ``p <= k`` to
        ``u`` in panel ``k``."""
        k = _panel_index(u)
        s = self._sums_from.get(p, (0.0,))
        if len(s) <= k - p:
            s = self._sums(p, math.inf, _panel_edge(k - 1))
        edges, bases, series, _ = self._panel(k)
        j = bisect.bisect_right(edges, u) - 1
        # u's position t in [-1, 1] on its sub-panel
        t = (u - edges[j]) / (0.5 * (edges[j + 1] - edges[j])) - 1.0
        return s[k - p] + bases[j] + _clenshaw(series[j], t)

    def _base(self) -> float:
        """``G`` at the jump image of the current state."""
        if self._g_lo is None:
            self._g_lo = self._hazard(self._p, self.lo)
            self.g_evals += 1
        return self._g_lo

    def hazard_to(self, y: float) -> float:
        """Accumulated hazard from the jump image of ``z`` up to ``y``."""
        if y <= self.lo:
            return 0.0
        return self._hazard(self._p, y) - self._base()

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
            # the root may round to an ulp below the jump image
            return max(self._root(*self._reach(e), e), self.lo)
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

    def _reach(self, e: float) -> tuple:
        """The draw's root as a pair ``(q, h)``: its panel and the hazard
        from that panel's left edge; :class:`CapExceededError` exactly when
        ``hazard_to(cap) < e``."""
        p, target = self._p, self._base() + e
        # panels up to the one holding the target, or to the cap
        s = self._sums(p, target, self.cap)
        if s[-1] <= target:
            raise self._cap_error(e)
        i = bisect.bisect_right(s, target, 1) - 1
        q, h = p + i, target - s[i]
        edges, bases, _, _ = self._panel(q)
        if edges[_sub_panel(bases, h)] > self.cap:
            self.g_evals += 1
            if self.hazard_to(self.cap) < e:
                raise self._cap_error(e)
        return q, h

    def _root(self, q: int, h: float, e: float) -> float:
        """The root of ``hazard_to(y) = e`` above ``lo``, at the hazard
        ``h`` from the left edge of panel ``q``."""
        edges, bases, _, _ = self._panel(q)
        j = _sub_panel(bases, h)
        # G(lo) may round to below its sub-panel's start, hence the max
        lo, hi = max(edges[j - 1], self.lo), min(edges[j], self.cap)
        if hi <= lo or e <= 0.0:
            # the root is within rounding of the jump image, or on it
            return lo
        if h >= bases[j]:
            # on the sub-panel's top: Newton would only bisect toward it
            return hi
        starts, pieces, curv = self._inverse(q, j)
        h -= bases[j - 1]
        p = bisect.bisect_right(starts, h, 1) - 1
        half = 0.5 * (edges[j] - edges[j - 1])
        if pieces[p]:
            coeffs, scale = pieces[p]
            y = edges[j - 1] + half * (
                _clenshaw(coeffs, (h - starts[p]) * scale - 1.0) + 1.0)
        else:
            # start where the hazard, taken as linear across the sub-panel,
            # meets e
            self.fallback_draws += 1
            rise = bases[j] - bases[j - 1]
            y = (edges[j - 1] + (edges[j] - edges[j - 1]) * (h / rise)
                 if rise > 0.0 else lo)
            curv = math.inf
        y, steps = self._newton(e, y, lo, hi, curv, half)
        self.g_evals += steps
        self.newton_steps += steps
        return y

    def _inverse(self, k: int, j: int) -> tuple:
        """The inverse (:func:`_invert`) of sub-panel ``j`` of panel ``k``,
        built into the store first.  It leaves the panel's series as they
        are, so that ``G`` is the same for every sampler of the model."""
        edges, bases, series, inverses = self._panel(k)
        if inverses[j - 1] is None:
            a, b = edges[j - 1], edges[j]
            inverses[j - 1], evals = _invert(
                self._integrand, a, b, series[j - 1], bases[j] - bases[j - 1],
                round(math.log2((edges[-1] - edges[0]) / (b - a))))
            self.g_evals += evals
            self.inverses_built += 1
        return inverses[j - 1]

    def _newton(self, e: float, y: float, lo: float, hi: float,
                curv: float, half: float) -> tuple:
        """The root of ``hazard_to(y) = e`` in ``(lo, hi)`` from ``y``, and
        the number of steps taken.

        A step ``step = r/g(y)`` from ``y``, with ``r = hazard_to(y) - e``,
        leaves out the Taylor term ``G''(xi)*step**2/2`` of the table: to
        first order the root is ``y - step - G''(xi)/(2 g(y)) * step**2``.
        With ``curv/half**2`` at least ``|G''|`` on the sub-panel of
        half-width ``half``, that term is at most a quarter ulp of ``y`` when
        ``curv*(step/half)**2 <= g(y)*ulp(y)/2``.
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
            if abs(step) <= tol or (
                    curv * (step / half) ** 2 <= 0.5 * d * ulp
                    and abs(step) * CHEB_RTOL <= 0.25 * ulp):
                return y - step, steps
            y -= step
        return y, NEWTON_STEPS

    def _cap_error(self, e: float) -> CapExceededError:
        return CapExceededError(
            f"hazard below target {e:.3g} before cap {self.cap:.3g}")

    def _state(self, k: int, h: float) -> float:
        """``G^{-1}``: the state in panel ``k`` at the hazard ``h`` from its
        left edge, the root of a draw of ``h - G(a)`` from the left edge
        ``a`` of its sub-panel, taken as the jump image for the solve."""
        edges, bases, _, _ = self._panel(k)
        j = _sub_panel(bases, h)
        saved = self.lo, self._p, self._g_lo, self.cap
        self.lo, self._p, self._g_lo = edges[j - 1], k, bases[j - 1]
        self.cap = math.inf
        try:
            return self._root(k, h, h - bases[j - 1])
        finally:
            self.lo, self._p, self._g_lo, self.cap = saved

    def chain(self, draws) -> np.ndarray:
        """The states after the current one for one or more unit-exponential
        ``draws`` (a sequence of floats), the chain ``simulate_chain`` makes.

        With ``h = G(z)`` a transition is ``h' = phi(h) + e``, where
        ``phi(h) = G(kappa*G^{-1}(h))``: one series of panel ``k``'s phi
        table (:meth:`_fit_phi`) per step from a pair in panel ``k``, while
        the running sums from ``p`` reach past ``h'``; the step extends them
        no further than the panel of ``CAP_FACTOR * max(edge(k+1), 1)``,
        above the cap of any state in ``k``.  Any other step is a draw from
        the state of its pair, and the first a draw from ``z0``.  So each
        step is a function of its pair and its draw alone, and two chains
        that reach one pair go on together.  :meth:`states` inverts the
        pairs of the phi steps in one pass, and then each state is held to
        its cap.  No state lands below the jump image of the one before.  A
        failure names transition ``k``, or an earlier state past its cap.
        """
        # the states the draws solved for, nan where a phi step left only
        # its pair; the pairs go to buffers, not lists of numbers that
        # would scatter a chain's worth of objects over the allocator
        n = len(draws)
        z = np.full(n, np.nan)
        ks, hs = np.empty(n, dtype=np.int64), np.empty(n)
        out_k, out_h = memoryview(ks), memoryview(hs)
        sums, tables = self._sums_from, self._stored_phi
        # (q, h) is the pair of the state before transition k; z0 has none
        z0, k, q, h = self.z, 0, None, 0.0
        try:
            for k in range(n):
                e = draws[k]
                if q is not None:
                    if q not in tables:
                        tables[q] = self._fit_phi(q)
                    table = tables[q]
                    if table is not None:
                        rights, records, p, cap = table
                        record = records[bisect.bisect_right(rights, h)]
                        if record is not None:
                            mid, scale, c0, rest = record
                            # _clenshaw, inlined
                            x = (h - mid) * scale
                            x2 = x + x
                            b1 = b2 = 0.0
                            for c in rest:
                                b1, b2 = c + x2 * b1 - b2, b1
                            after = c0 + x * b1 - b2 + e
                            s = sums.get(p, (0.0,))
                            if after >= s[-1]:
                                try:
                                    s = self._sums(p, after, cap)
                                except OverflowError:
                                    s = (math.inf,)  # the draw raises it
                            i = bisect.bisect_right(s, after, 1) - 1
                            if i < len(s) - 1:
                                out_k[k] = q = p + i
                                out_h[k] = h = after - s[i]
                                continue
                    self.move_to(self._state(q, h))
                q, h = self._reach(e)
                out_k[k], out_h[k] = q, h
                z[k] = self._root(q, h, e) if e else self.lo
                self.exact_steps += 1
            k, error = n, None
        except (OverflowError, CapExceededError, StateRangeError) as exc:
            error = exc
        # a phi step leaves its cap unchecked: the first state past its cap
        # (those from the failed transition k on are nan) fails as its draw
        # would have, ahead of transition k
        walked = np.isnan(z[:k])
        z[:k][walked] = self.states(ks[:k][walked], hs[:k][walked])
        w = np.concatenate(([z0], z))
        z, prev = w[1:], w[:-1]
        base = np.where(prev > _CAPPED_MAX, np.inf, np.maximum(prev, 1.0))
        for m in np.flatnonzero(z > CAP_FACTOR * base)[:1]:
            self.move_to(prev[m])
            k, error = int(m), self._cap_error(draws[m])
        if error is not None:
            raise self._at(k, error) from error
        _hold_at_jump_image(w[np.newaxis], self._kappa)
        return z

    def _fit_phi(self, k: int):
        """Panel ``k``'s phi table, a function of the model and ``k`` alone:
        its sub-panels' right ends, in the hazard from the panel's left edge,
        with ``inf`` last; a record ``(midpoint, 1/half-width, c0, (c_N, ...,
        c_1))`` for each, ``None`` for a flagged one and the last; the panel
        ``p`` of ``kappa * _panel_edge(k)``, from whose left edge a record
        measures; and the cap to which a phi step extends ``p``'s sums.
        ``None`` where that jump image is below the smallest normal double.

        ``phi(h) = G(kappa*G^{-1}(h))`` is interpolated at the
        ``CHEB_NODES`` Chebyshev points of a sub-panel, each from one node
        solve (:meth:`_state`) and one ``G``, and the sub-panel halved as
        :func:`_fit_panel` halves, until its series less its value at the
        left end meets ``CHEB_RTOL`` or the tail is within ``ROOT_ULPS`` ulps
        of ``phi``.  Where ``phi`` is not smooth (``g`` kinks or vanishes at
        ``y`` or ``kappa*y``) a sub-panel is flagged: one with a node in a
        flagged piece of ``G``'s inverse, or one that stops halving short of
        the test or is narrower than ``PANEL_FLOOR``.
        """
        left, right = _panel_edge(k), _panel_edge(k + 1)
        if not self._kappa * left >= 2.0 ** -1022:
            return None
        p = _panel_index(self._kappa * left)
        todo = [(0.0, self._panel(k)[1][-1], 0)]
        rights, records = [], []
        while todo:
            a, b, depth = todo.pop()
            half = 0.5 * (b - a)
            mid = a + half
            record = None
            if b - a >= PANEL_FLOOR:
                fallbacks = self.fallback_draws
                # within rounding of the panel, so kappa*y is in p or above
                ys = [min(max(self._state(k, mid + half * t), left), right)
                      for t in _CHEB_NODES]
                values = [self._hazard(p, self._kappa * y) for y in ys]
                self.g_evals += CHEB_NODES
                # phi less its value at the left end, so that the test is
                # relative to phi's rise, down to the rounding of phi itself
                c = _chebyshev([v - values[-1] for v in values])
                ulp = math.ulp(values[0])
                if self.fallback_draws > fallbacks:
                    pass    # a node in a flagged piece of G: G^{-1} kinks
                elif _smooth(c) or abs(c[-2]) + abs(c[-1]) <= ROOT_ULPS * ulp:
                    # terms below a quarter ulp of phi add nothing to a step
                    while len(c) > 1 and abs(c[-1]) <= 0.25 * ulp:
                        c.pop()
                    record = (mid, 1.0 / half, c[0] + values[-1],
                              tuple(reversed(c[1:])))
                elif _can_halve(depth, len(records) + len(todo)):
                    # left half on top: sub-panels come off the stack in order
                    todo += [(mid, b, depth + 1), (a, mid, depth + 1)]
                    continue
            rights.append(b)
            records.append(record)
        self.phi_built += len(records)
        return (rights + [math.inf], records + [None], p,
                CAP_FACTOR * max(right, 1.0))

    def states(self, ks, hs) -> np.ndarray:
        """The states of the pairs ``(ks[i], hs[i])``, panel and hazard from
        its left edge, in one vectorized pass.

        A pair is searched for as the complex number ``k + 1j*h``, which
        numpy orders by ``k``, then by ``h``: ``searchsorted`` finds its
        sub-panel among those of the panels found, then its piece of the
        sub-panel's inverse (built first where missing), which gives the
        start; one Newton step on the sub-panel's hazard series finishes,
        kept where it passes the test :meth:`_newton` stops on.  The rest,
        in flagged pieces or not certified, go through the scalar solve
        :meth:`_state`.
        """
        k = np.asarray(ks, dtype=np.int64)
        h = np.asarray(hs, dtype=float)
        if not h.size:
            return np.empty(h.shape)
        keys = k + 1j * h
        low = int(k.min())
        found = (np.flatnonzero(np.bincount(k - low)) + low).tolist()
        rows = [(i, j) for i in found for j in range(1, len(self._panel(i)[0]))]
        starts = [i + 1j * self._panel(i)[1][j - 1] for i, j in rows]
        # per piece of a sub-panel holding a pair: the sub-panel's first
        # hazard, the piece's less that, the sub-panel's edges and curv, and
        # 2/rise; and the inverse and hazard series as rows of
        # _clenshaw_rows
        pieces = []
        for u in np.flatnonzero(np.bincount(_bins(starts, keys))).tolist():
            first, inverses, curv = self._inverse(*rows[u])
            pieces += [(rows[u], starts[u], curv, hp, inverse)
                       for hp, inverse in zip(first, inverses)]
        ends = np.zeros((len(pieces), 6))
        inverse = np.zeros((len(pieces), CHEB_NODES))
        hazard = np.zeros((len(pieces), CHEB_NODES + 1))
        for u, ((i, j), start, curv, hp, piece) in enumerate(pieces):
            ends[u, :2] = start.imag, hp
            if piece:
                edges, _, series, _ = self._panel(i)
                coeffs, scale = piece
                ends[u, 2:] = edges[j - 1], edges[j], curv, scale
                _series_row(inverse[u], coeffs)
                _series_row(hazard[u], series[j - 1])
        at = _bins([start + 1j * hp for _, start, _, hp, _ in pieces], keys)
        good = np.array([bool(piece[-1]) for piece in pieces])[at]
        at = at[good]
        start, hp, a, b, curv, scale = ends[at].T
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
        sure |= ((curv * (size / half) ** 2 <= 0.5 * d * ulp)
                 & (size * CHEB_RTOL <= 0.25 * ulp))
        sure &= (a < y) & (y < b) & (d > 0.0)
        y -= step
        z = np.empty(h.shape)
        z[good] = y
        good[good] = sure
        rest = np.flatnonzero(~good)
        for u in rest.tolist():
            z[u] = self._state(int(k[u]), float(h[u]))
        self.exact_states += len(rest)
        return z


def _sub_panel(bases: list, h: float) -> int:
    """``j``: the sub-panel ``[edges[j-1], edges[j])`` of a panel holding the
    hazard ``h`` from its left edge, clamped to the panel."""
    return min(max(bisect.bisect_right(bases, h), 1), len(bases) - 1)


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
    ``curv`` bounds ``|S''|`` by Markov's inequality for each term
    ``A_k T_k`` of ``S``, ``sum |A_k| k**2 (k**2 - 1)/3``, so ``|G''|`` on
    the sub-panel is at most ``curv/half**2``; in ``t`` the bound does not
    overflow however narrow the sub-panel.
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
    return (starts, pieces, curv), evals


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



def _hold_at_jump_image(w: np.ndarray, kappa: float) -> None:
    """Hold each state of the rows of ``w`` (column 0 their starts) at the
    jump image of the one before, in order; an infinite state lifts none."""
    low = w[:, 1:] < kappa * w[:, :-1]
    if not low.any():
        return
    rows, cols = np.nonzero(low & np.isfinite(w[:, :-1]))
    last = w.shape[1] - 1
    while len(rows):
        cols += 1
        w[rows, cols] = kappa * w[rows, cols - 1]
        low = w[rows, np.minimum(cols + 1, last)] < kappa * w[rows, cols]
        rows, cols = rows[low], cols[low]


def _generic_chain(model: Model, z0: np.ndarray,
                   draws: np.ndarray) -> np.ndarray:
    """States ``z[:, 0..n]`` by numeric draws, on one sampler made at the
    first start and moved from row to row: :meth:`GenericSampler.chain`, or
    for one transition :meth:`GenericSampler.draw`, the chain's own first
    step at a fraction of its cost.  A later row's failed draw names its
    flat index."""
    z = np.empty((len(z0), draws.shape[1] + 1))
    z[:, 0] = z0
    if not len(z0):
        return z
    sampler = GenericSampler(model, z0[0])
    if draws.shape[1] > 1:
        for i, zi in enumerate(z0.tolist()):
            sampler.move_to(zi)
            z[i, 1:] = sampler.chain(memoryview(draws[i]))
        return z
    for i, (zi, e) in enumerate(zip(z0.tolist(), draws[:, 0].tolist())):
        try:
            sampler.move_to(zi)
            z[i, 1] = sampler.draw(e)
        except (CapExceededError, StateRangeError) as exc:
            raise sampler._at(i, exc) from exc
    return z
