"""Exact simulation of the embedded post-jump chain.

Each closed-form sampler inverts the conditional survival function of the
next state given the current one, driven by a unit-exponential draw; the
numeric sampler of :mod:`pdmprate.numeric` handles every other rate.
``simulate_chain`` draws all exponentials first and runs its family's chain
kernel over them: a linear scan for power rates, the Cardano step for the
quadratic rate in block passes, whose driver takes any step that is a
function of its state and draw alone, and for the rest the numeric sampler's
walk in hazard coordinates.  A kernel runs a batch of starts, one chain per
row; ``sample_next`` runs it for one transition from each state.  Chains are
reproducible bit-exactly from their seed record.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ChainFormatError, InconsistentChainError, StateRangeError,
                     at_least, positive)
from .model import ADDITIVE, Model, ShiftedQuadraticRate
# GenericSampler belongs to this module's interface too: the package and
# the benchmark's tracing reach it here
from .numeric import GenericSampler, _generic_chain, _hold_at_jump_image

_FLOAT_TINY = float(np.finfo(float).tiny)


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


def _check_next(states: np.ndarray) -> None:
    """:class:`StateRangeError` at the first ``k`` with a bad ``states[k]``."""
    k = _first_bad_state(states)
    if k is not None:
        raise StateRangeError(
            f"at transition {k}: next state {float(states[k])!r} is not a "
            "finite positive number (double precision overflow or underflow)")


def _power_terms(model: Model) -> tuple:
    """``(p, r, f)`` of :func:`_power_chain`: ``r = kappa**p``, which must not
    underflow, and the draw's factor ``f = r*p*c/lam``."""
    p, c, lam = model.power_exponent, model.flow.c, model.rate.lam
    r = model.jump.kappa ** p
    if r < _FLOAT_TINY:
        raise StateRangeError(
            f"at transition 0: kappa**p = {model.jump.kappa!r}**{p!r} "
            "underflows, so the power-rate chain is out of double range")
    f = r * (p * c / lam)
    if f == math.inf:   # p*c/lam overflows before r scales it down
        f = r * p * c / lam
    return p, r, f


def _power_chain(model: Model, z0: np.ndarray,
                 draws: np.ndarray) -> np.ndarray:
    """States ``z[:, 0..n]`` of power-rate chains, by a linear scan per row.

    In ``w = z**p`` (``p`` is :attr:`Model.power_exponent`) one transition
    is the AR(1) step ``w_k = r * (w_{k-1} + x_k)`` with ``r = kappa**p`` and
    ``x_k = p*c*e_k/lam``, so ``w_k = sum_i r**(k-i) * v_i`` with
    ``v = (w_0, r*x_1, ..., r*x_n)``.  Pass ``s = 1, 2, 4, ...`` of the
    doubling scan adds ``r**s`` times the partial sum ``s`` places back; all
    terms are positive, so each state carries O(log n) roundings.  Where
    ``r**s`` is below the smallest normal double, ``r**s * w`` need not be,
    so a pass multiplies by ``r**(s/2)`` twice; the passes stop once they
    would add only zeros.  From a row's first infinite state, as where
    ``z0**p``, ``r*x`` or a sum overflows, the row is :func:`_log_w_chain`'s,
    in one call for all rows that share that column.  Last, each state is
    held at its jump image, which the scan's roundings may undercut.
    """
    p, r, f = _power_terms(model)
    # column-major, so that a batch of one transition per row, as
    # sample_next runs, works on contiguous columns
    w = np.empty((len(z0), draws.shape[1] + 1), order="F")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # an overflow leaves inf states (and a pass's test 0*inf) to report
        np.power(z0, p, out=w[:, 0])
        np.multiply(draws, f, out=w[:, 1:])
        s = 1
        while s < w.shape[1]:
            if r ** s >= _FLOAT_TINY:
                w[:, s:] += r ** s * w[:, :-s]
            elif r ** (s // 2) * (r ** (s // 2) * w.max()) > 0.0:
                terms = w[:, :-s] * r ** (s // 2)
                terms *= r ** (s // 2)
                w[:, s:] += terms
            else:
                break
            s *= 2
        if p != 1.0:
            np.power(w[:, 1:], 1.0 / p, out=w[:, 1:])
        w[:, 0] = z0
        over = w == math.inf
        if over.any():
            first = np.argmax(over, axis=1)   # 0 where no state is
            for k in set(first.tolist()) - {0}:
                rows = first == k   # a slice, copying nothing, if all do
                rows = slice(None) if rows.all() else rows
                w[rows, k:] = _log_w_chain(model, w[rows, k - 1],
                                           draws[rows, k - 1:])
    _hold_at_jump_image(w, model.jump.kappa)
    return w


def _log_w_chain(model: Model, z0: np.ndarray,
                 draws: np.ndarray) -> np.ndarray:
    """The states after each of ``z0`` by :func:`_power_chain`'s scan on
    ``log w``, one row per start.

    ``v_0 = p*log(z0)``, ``v_k = log(e_k) + log(f)``; pass ``s`` takes the
    log-sum of ``v_k`` and ``v_{k-s} + s*log(r)``, so neither ``w`` nor
    ``e*f``, which may overflow where ``z`` fits, is formed.  The passes stop
    once each would add less than ``2**-54 * |v_k|``, half a rounding, to
    every ``v_k`` of every row, so the states are the full scan's bit for
    bit, whatever the chain's length.  A state past double range is
    ``inf``; the caller sets errstate.
    """
    p, r, f = _power_terms(model)
    log_r = p * math.log(model.jump.kappa)
    log_f = math.log(f) if f < math.inf else log_r + math.log(p) + (
        math.log(model.flow.c) - math.log(model.rate.lam))
    v = np.log(np.column_stack((z0, draws)))
    v[:, 0] *= p
    v[:, 1:] += log_f
    s = 1
    while s < v.shape[1] and (v[:, :-s].max() + s * log_r - v[:, s:].min()
                              >= np.log(np.abs(v[:, s:]).min()) - 38.0):
        np.logaddexp(v[:, s:], v[:, :-s] + s * log_r, out=v[:, s:])
        s *= 2
    return np.exp(v[:, 1:] / p)


# --- block passes over a sequential step ------------------------------------

# A block pass runs at least _BLOCKS blocks of at least _BLOCK_STEPS steps:
# a vector step over a few hundred states costs about 20 Python-float steps,
# so a pass over fewer blocks is no faster than the sequential loop.
_BLOCK_STEPS = 64
_BLOCKS = 32
# A pass runs at most about _MAX_BLOCKS blocks: a step reads one state and one
# draw per block from strided columns, whose cache lines past a few thousand
# blocks do not last to the next step (BENCH_rate_owner.json, "block_floor").
_MAX_BLOCKS = 4096


def _block_chain(step, loop, z: np.ndarray, g: np.ndarray) -> None:
    """The states ``z[:, 1:]`` after ``z[:, 0]`` for the draws ``g``, one
    chain per row, by any ``step(x, g, out=None)`` that is a function of
    its state and draw alone, and ``loop(x, g)``, the list of the states
    after the scalar ``x`` for the draws in turn, bit for bit the step's.

    A batch of other than one row steps in :func:`_lockstep`, and a chain
    too short for a block pass runs the loop.  A longer one first runs the
    loop with a second chain from ``z[0, 0]`` one transition behind
    (:func:`_coalescence`), then block passes (:func:`_block_pass`) of
    twice the steps the two took to meet, at least ``n // _MAX_BLOCKS``,
    and four times as many after a pass that leaves a block unmet; the loop
    takes the rest.  Each part computes the states the loop would, so the
    chain does not depend on the block length.
    """
    if len(z) != 1:
        return _lockstep(step, z[:, 0], g, z[:, 1:])
    z, g, done = z[0], g[0], 0
    cap = len(g) // (2 * _BLOCKS)
    if len(g) - cap >= _BLOCKS * _BLOCK_STEPS:
        done, met = _coalescence(loop, z, g, cap)
        if met is not None:
            steps = max(_BLOCK_STEPS, 2 * met, len(g) // _MAX_BLOCKS)
            while len(g) - done >= _BLOCKS * steps:
                done, met = _block_pass(step, z, g, done, steps)
                if met:
                    break
                steps *= 4
    z[done + 1:] = loop(z[done].item(), g[done:])


def _lockstep(step, x: np.ndarray, g: np.ndarray, out: np.ndarray) -> None:
    """The states after each of ``x`` for its row of the draws ``g`` into
    ``out``, all rows stepping at once."""
    for i in range(g.shape[1]):
        x = step(x, g[:, i], out=out[:, i])


def _coalescence(loop, z: np.ndarray, g: np.ndarray, cap: int) -> tuple:
    """``(p, k)``: the states ``z[1..p]`` by the loop, and the steps ``k``
    after which a chain from ``z[0]`` that starts one transition late takes
    the same state as the chain, bit for bit; ``k`` is None if that takes
    more than ``cap`` steps.  A block pass starts its blocks from such a
    guess, so ``k`` is about the steps a block needs.
    """
    p, late = 1, z[0].item()
    z[1] = loop(late, g[:1])[0]
    while p < cap:
        c = min(_BLOCK_STEPS, cap - p)
        z[p + 1:p + c + 1] = loop(z[p].item(), g[p:p + c])
        path = loop(late, g[p:p + c])
        met = np.flatnonzero(np.equal(path, z[p + 1:p + c + 1]))
        if len(met):
            return p + c, p + int(met[0])
        p, late = p + c, path[-1]
    return p, None


def _block_pass(step, z: np.ndarray, g: np.ndarray, start: int,
                steps: int) -> tuple:
    """One block pass over ``z[start + 1:]``: ``(end, met)``, with the
    states up to ``z[end]`` exact.

    The draws split into blocks of ``steps``, and all blocks step at once,
    each from the guess ``z[start]`` but the first, which starts there.
    Then every later block restarts from the end of the block before it,
    and all step again in lockstep until each takes a state it took before,
    bit for bit: from there on its states are those of its new start.  Each
    block then holds the states from the exact end of the block before it,
    and ``met`` is True.  A block that meets no old state within its
    length changes its end, so the block after it may have restarted from a
    wrong state; then ``end`` is the end of the first such block, and
    ``met`` is False.
    """
    blocks = (len(g) - start) // steps
    zs = z[start + 1:start + 1 + blocks * steps].reshape(blocks, steps)
    gs = g[start:start + blocks * steps].reshape(blocks, steps)
    _lockstep(step, np.full(blocks, z[start]), gs, zs)
    x = zs[:-1, -1]
    for i in range(steps):
        x = step(x, gs[1:, i])
        met = x == zs[1:, i]
        zs[1:, i] = x
        if met.all():
            return start + blocks * steps, True
    return start + (int(np.argmin(met)) + 2) * steps, False


# --- shifted quadratic rate, additive flow -----------------------------------

def _cardano_terms(model: Model) -> tuple:
    """``(a, b, 3*b, 4*b**3, r_min, kappa)`` of :func:`_cardano`, and the
    draws' factor ``3*c``.  The cube is formed by products, which overflow
    to ``inf`` where ``b**3`` would raise."""
    a, b = model.rate.a, model.rate.b
    r_min = max(2.0 * b * math.sqrt(b), _FLOAT_TINY)
    return ((a, b, 3.0 * b, 4.0 * b * b * b, r_min, model.jump.kappa),
            3.0 * model.flow.c)


def _cardano(terms: tuple, z, g, out=None) -> np.ndarray:
    """Next states from the states ``z`` for the scaled draws ``g = 3*c*e``.

    With ``u = z - a``, ``t = y/kappa - a`` is the real root of
    ``t**3 + 3*b*t = q``, ``q = g + u*(u*u + 3*b)``: by Cardano
    ``t = v - b/v``, ``v`` the cube root of ``(q + sign(q)*r)/2`` with
    ``r = sqrt(q*q + 4*b**3)``, so nothing cancels in ``v``.  The state is
    ``kappa*(z + d)`` with the increment ``d = t - u``, taken as
    ``g/(t*t + t*u + u*u + 3*b)``: that denominator is at least
    ``3*u*u/4 + 3*b``, so nothing cancels where ``z`` is far below ``a``,
    as ``a + t`` does.  ``r`` is held at or above ``2*b**1.5``, its least
    value, and the smallest normal double, so ``v`` is never 0, and ``t``
    is about 0 where ``q`` and ``b**3`` vanish.  Where ``q*q`` or ``b**3``
    overflows, ``v`` is infinite and ``t = (v*v - b)/v`` is nan, and so is
    the state.  The caller sets numpy's errstate; :func:`_cardano_loop` is
    the same step in Python floats.
    """
    a, b, b3x, b3, r_min, kappa = terms
    u = z - a
    uu = u * u
    uu += b3x
    q = u * uu
    q += g
    r = q * q
    r += b3
    np.sqrt(r, out=r)
    np.maximum(r, r_min, out=r)
    np.copysign(r, q, out=r)
    r += q
    r *= 0.5
    v = np.cbrt(r)
    t = v * v
    t -= b
    t /= v
    u += t
    u *= t
    u += uu
    np.divide(g, u, out=u)
    u += z
    return np.multiply(u, kappa, out=out)


def _cardano_loop(terms: tuple, z: float, g: np.ndarray) -> list:
    """The states after ``z`` for the scaled draws ``g`` in turn.

    Each is :func:`_cardano`'s step in Python floats, operation for
    operation, so bit for bit the same: the cube root is numpy's, which
    may round otherwise than ``math.cbrt``.  No step divides by zero, as
    ``v`` and the denominator are positive or nan.
    """
    a, b, b3x, b3, r_min, kappa = terms
    sqrt, copysign, cbrt = math.sqrt, math.copysign, np.cbrt
    out = []
    for x in g.tolist():
        u = z - a
        uu = u * u + b3x
        q = u * uu + x
        r = sqrt(q * q + b3)
        if r < r_min:   # as np.maximum, which keeps a nan
            r = r_min
        v = float(cbrt((q + copysign(r, q)) * 0.5))
        t = (v * v - b) / v
        z = kappa * (z + x / ((u + t) * t + uu))
        out.append(z)
    return out


def _quadratic_chain(model: Model, z0: np.ndarray,
                     draws: np.ndarray) -> np.ndarray:
    """States ``z[:, 0..n]``, each :func:`_cardano`'s step from the one
    before, in :func:`_block_chain`."""
    terms, three_c = _cardano_terms(model)
    g = draws * three_c
    z = np.empty((len(g), g.shape[1] + 1), order="F")   # as _power_chain's
    z[:, 0] = z0
    with np.errstate(all="ignore"):
        _block_chain(functools.partial(_cardano, terms),
                     functools.partial(_cardano_loop, terms), z, g)
    return z


def _family_kernel(model: Model):
    """The one family dispatch: the chain kernel ``kernel(model, z0,
    draws)``, which takes starts of shape ``(B,)`` and draws of shape
    ``(B, n)`` to states of shape ``(B, n + 1)``.

    A power rate with ``p > 0`` (:attr:`Model.power_exponent`) under either
    flow takes the power scan, the shifted quadratic rate under the additive
    flow the Cardano step, and every other model numeric draws.
    """
    p = model.power_exponent
    if p is not None and p > 0:
        return _power_chain
    if (model.flow.variant == ADDITIVE
            and isinstance(model.rate, ShiftedQuadraticRate)):
        return _quadratic_chain
    return _generic_chain


def sample_next(model: Model, z, e):
    """Next state from ``z`` for the unit-exponential draw ``e``: the first
    transition of ``simulate_chain`` from ``z``, bit for bit, failing where
    it fails at the element's flat index.  ``z`` and ``e`` broadcast, a float
    for scalars.  A draw < 0 or NaN is a ValueError naming ``e``, and then a
    state that is not finite and positive a :class:`ConfigError` naming ``z``.
    """
    e = np.asarray(e, dtype=float)
    if not np.all(e >= 0.0):
        raise ValueError("e: the exponential draw must be >= 0, "
                         f"got {float(e[~(e >= 0.0)][0])!r}")
    z, e = np.broadcast_arrays(np.asarray(z, dtype=float), e)
    good = (z > 0.0) & (z < math.inf)
    if not good.all():
        positive("z", float(z[~good][0]))   # raises, naming the first bad z
    out = _family_kernel(model)(model, z.ravel(), e.reshape(-1, 1))[:, 1]
    _check_next(out)
    return out.reshape(z.shape) if z.ndim else float(out[0])


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
    z = _family_kernel(model)(model, np.array([float(z0)]), draws[None])[0]
    _check_next(z[1:])
    record = (tuple(map(int, np.atleast_1d(ss.entropy))),
              tuple(map(int, ss.spawn_key)))
    return JumpChain(z=z, model=model, seed=record)


def reconstruct_times(chain: JumpChain) -> np.ndarray:
    """Jump times implied by the states, taking the first jump at time T_1.

    From each state ``x`` the flow runs to the pre-jump position ``y =
    max(z/kappa, x)`` of the next state ``z``, which is ``x`` for a state up
    to the support tolerance below the jump image, as a sampler's rounding
    leaves (:meth:`Model.below_support`): ``(y - x)/c`` under the additive
    flow, ``log(y/x)/c`` under the exponential one.  Where that overflows,
    one formula per flow forms the duration from ``x``, ``z``, ``kappa``
    and ``c`` alone: ``(z - kappa*x)/(kappa*c)`` where ``y`` overflows, and
    ``(log z - log kappa - log x)/c`` where ``log(y/x)/c`` does.  A
    duration whose ``y`` fits and a time beyond double range raise
    :class:`StateRangeError`.
    """
    model = chain.model
    if chain.n < 1:
        raise InconsistentChainError("need at least one transition")
    x, z = chain.z[:-1], chain.z[1:]
    if np.any(model.below_support(x, z)):
        raise InconsistentChainError("pre-jump state behind previous state")
    kappa, c = model.jump.kappa, model.flow.c
    with np.errstate(over="ignore"):
        y = np.maximum(model.jump.invert(z), x)
        far = y == math.inf
        if model.flow.variant == ADDITIVE:
            gaps = (y - x) / c
            gaps[far] = (z[far] - kappa * x[far]) / (kappa * c)
        else:
            gaps = np.log(y / x) / c
            over = gaps == math.inf   # as from a subnormal x, or y = inf
            gaps[over] = (np.log(z[over]) - math.log(kappa)
                          - np.log(x[over])) / c
        if np.any(gaps[~far] == math.inf):
            raise StateRangeError(
                f"a travel time exceeds double range (flow speed c = {c!r})")
        times = np.cumsum(gaps)
    if times[-1] == math.inf:
        k = int(np.argmax(times == math.inf)) + 1
        raise StateRangeError(f"the jump time of z[{k}] exceeds double range")
    return times


# --- chain serialization -----------------------------------------------------

def chain_text_blocks(chain: JumpChain, times=None):
    """Columnar text: comment header, then one state (and its time) per
    line, as bytes in blocks to write one by one."""
    if times is not None and len(times) != chain.n:
        raise ValueError(f"times: {len(times)} jump times for {chain.n} jumps")
    yield (f"# model: {chain.model.name}\n# seed: {chain.seed}\n# columns: z"
           + ("" if times is None else "\tt") + "\n").encode()
    yield from text_blocks(chain.z[:1])
    yield from text_blocks(chain.z[1:], *([] if times is None else [times]))


def text_blocks(*columns):
    """Lines of the columns' values, each field ``"%.17g" % value`` and a tab
    or the newline, as ASCII bytes in blocks of about 8,192 values."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    step = 8192 // len(columns)
    for i in range(0, len(columns[0]), step):
        x = np.column_stack([c[i:i + step] for c in columns])
        out = _g17_fields(x.ravel()).reshape(*x.shape, _FIELD)
        out[:, :-1, -1], out[:, -1, -1] = 9, 10   # tabs, and the newline
        yield out.tobytes().translate(None, b"\0")


# The writer takes a value of [1e-4, 1e17), printed in fixed form, to a
# 17-digit integer times 10**(16 - e).  That power of ten is a double, so the
# Dekker two-product (Numer. Math. 1971) p + f is the exact product, and p is
# even: rint(f) rounds it half to even, as "%.17g" does.  Python's own
# formatting takes zeros, the exponent form and values that are not finite.
_FIELD = 41  # sign, "0.000", 17 digits each with a slot for the point after
             # it, and the tab or newline; unused bytes are 0


@functools.cache
def _g17_tables() -> tuple:
    """The words "0000" .. "9999", and 10**k for k in -4 .. 21 as the least
    double not below it (1e-4 .. 0.1 round up).  Built at first use."""
    return (np.frombuffer(b"".join(b"%04d" % t for t in range(10000)), np.uint32),
            np.array([float(f"1e{k}") for k in range(-4, 22)]))


def _g17_fields(v: np.ndarray) -> np.ndarray:
    """``"%.17g" % x`` for each ``x`` of ``v``, one row of _FIELD bytes each."""
    words, tens = _g17_tables()
    a = np.abs(v)
    e = np.searchsorted(tens, a, side="right") - 5   # 10**e <= a < 10**(e+1)
    slow = (e < -4) | (e > 16)
    a[slow], e[slow] = 1.0, 0
    s = tens[20 - e]   # 10**(16 - e)
    p = a * s          # in [1e16, 1e17]
    ah = 134217729.0 * a - (134217729.0 * a - a)   # Veltkamp's split
    sh = 134217729.0 * s - (134217729.0 * s - s)
    f = ((ah * sh - p) + ah * (s - sh) + (a - ah) * sh) + (a - ah) * (s - sh)
    n = p.astype(np.int64) + np.rint(f).astype(np.int64)   # the 17 digits
    slow |= n == 10 ** 17   # 10**(e + 1): no double's a is that close
    d = np.empty((len(v), 5), np.uint32)   # "000" and the 17 digits
    d[:, 0] = words[n // 10 ** 16]
    for j in range(1, 5):
        d[:, j] = words[n // 10 ** (16 - 4 * j) % 10000]
    digits = d.view(np.uint8)[:, 3:]
    small = e < 0                # "0." and -1 - e zeros come first
    point = np.maximum(e, 0)     # else the digit the point follows
    last = np.full(len(v), 16)   # the last digit written
    z = np.flatnonzero(digits[:, 16] == 48)   # trailing zeros go
    last[z] = 16 - np.argmax(digits[z, ::-1] != 48, axis=1)
    digits[z] *= np.arange(17) <= np.maximum(last[z], point[z])[:, None]
    out = np.zeros((len(v), _FIELD), np.uint8)
    out[:, 0] = np.signbit(v) * 45
    out[:, 1:6] = ((np.arange(1, -4, -1) > e[:, None]) * small[:, None]
                   * np.array([48, 46, 48, 48, 48]))
    out[:, 6:40:2] = digits
    dot = np.flatnonzero(~small & (last > point))
    out.reshape(-1)[dot * _FIELD + 7 + 2 * point[dot]] = 46
    r = np.flatnonzero(slow)
    out[r, :-1] = np.frombuffer(b"".join(
        ("%.17g" % x).encode().ljust(_FIELD - 1, b"\0")
        for x in v[r].tolist()), np.uint8).reshape(-1, _FIELD - 1)
    return out


def chain_from_text(text, model: Model) -> JumpChain:
    """Parse the columnar format back into a chain (header is informational).

    ``text`` is the file's text, or its bytes, read as UTF-8; CR and CRLF
    become LF, and a line ends at LF.  The first data row holds ``z[0]``
    alone; every later row holds ``z[k]`` and, in files written with times,
    the jump time of that state after a tab; comment and blank lines may
    come anywhere.  Times are checked to be numbers, then dropped: the
    states imply them (:func:`reconstruct_times`).  Raises
    :class:`ChainFormatError` naming the first line that does not fit or is
    not UTF-8, or when there is no data row, and
    :class:`InconsistentChainError` naming the first line whose state is not
    finite and positive, or else lies below the jump image of the one before.
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
    lines = _lf_bytes(text).decode().split("\n")
    lineno = [i for i, line in enumerate(lines, start=1) if _is_data(line)][k]
    raise InconsistentChainError(f"chain line {lineno}: {reason}")


def _lf_bytes(text) -> bytes:
    """``text`` as bytes, with CR and CRLF line ends made LF."""
    data = text.encode() if isinstance(text, str) else text
    if b"\r" in data:   # bytes.replace scans slowly for a two-byte pattern
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _states_from_text(text) -> np.ndarray:
    """States of a chain file, one per data row; see :func:`chain_from_text`.

    A scan line by line reads the header, ``z[0]`` and the row after it,
    whose fields set the width.  From there the bulk decoder takes blocks of
    about 64 KB; a block it refuses even without its comment and blank
    lines, or every block without its long double, goes to the exact reader.
    """
    data = _lf_bytes(text)
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise ChainFormatError(
                f"chain line {lineno}: not UTF-8 text") from None
    data += b"" if data.endswith(b"\n") else b"\n"
    # the start, number and text of z[0]'s line and of the next data line
    rows, pos, lineno = [], 0, 0
    while len(rows) < 2 and pos < len(data):
        end = data.find(b"\n", pos)
        lineno += 1
        if _is_data(line := data[pos:end].decode()):
            rows.append((pos, lineno, line))
        pos = end + 1
    if not rows:
        raise ChainFormatError("chain file has no data rows")
    z = _parse_rows([rows[0][2]], rows[0][1], 1)
    if len(rows) == 1:
        return z
    pos, lineno, line = rows[1]
    width = min(len(line.strip().split("\t")), 2)
    # z[0], and room for the rows; numpy counts the newlines in about a
    # fifth of the time bytes.count takes
    n = np.count_nonzero(np.frombuffer(data, np.uint8)[pos:] == 10)
    z = np.full(1 + n, z[0])
    k, counted = 1, pos   # lineno is the number of the line at counted
    while pos < len(data):   # in blocks of about 64 KB
        cut = data.rfind(b"\n", pos, pos + 65536) + 1 or len(data)
        try:
            if not _BULK_DECODE:
                raise ValueError("no long double for the bulk decoder")
            try:
                states = _decode_block(data[pos:cut], width)
            except ValueError:   # once more without comment and blank lines
                states = _decode_block(
                    _SKIPPED.sub(b"", data[pos - 1:cut])[1:], width)
        except ValueError:   # the exact reader
            lineno, counted = lineno + data.count(b"\n", counted, pos), pos
            states = _parse_rows(data[pos:cut].decode().split("\n"), lineno,
                                 width)
        z[k:k + len(states)], k, pos = states, k + len(states), cut
    return z[:k]


# The bulk decoder reads a field as M/10**k, its digits M < 10**19 over its
# k <= 27 decimals, in a long double of 64 (x87) or 113 (IEEE quad) bits:
# both are exact, so that is one correct rounding (Clinger, PLDI 1990), and
# so is the cast to a double but from a midpoint, where float() reads it.
_BULK_DECODE = np.finfo(np.longdouble).nmant in (63, 112)
_POW10 = np.cumprod([1] + [10] * 27, dtype=np.longdouble)
_PLAIN = b"0123456789.\t\n"
_ZEROS = bytes(c if c in _PLAIN else 48 for c in range(256))
# A newline and the blank or comment line after it, as _is_data reads them
_SKIPPED = re.compile(rb"\n[ \t]*(#[^\n]*)?(?=\n)")


def _decode_block(b: bytes, width: int) -> np.ndarray:
    """The first fields of the ``width``-field rows of ``b``."""
    odd = b.translate(None, _PLAIN)
    if odd.translate(None, b"+-_eEaAfFiInNtTyY") or width == 1 and b"\t" in b:
        raise ValueError("not a sign, an exponent, inf or nan: a space, a #")
    a = np.frombuffer(b, np.uint8)
    ends = np.flatnonzero((a == 9) | (a == 10) if width > 1 else a == 10)
    if len(ends) % width or width == 2 and (
            a[ends].reshape(-1, 2) != (9, 10)).any():
        raise ValueError("a row not of width - 1 tabs and a newline")
    starts = np.r_[0, ends + 1][:-1]   # of each field
    dots = np.flatnonzero(a == 46)
    one = len(dots) == len(ends) and ((dots >= starts) & (dots < ends)).all()
    at = slice(None) if one else np.searchsorted(ends, dots)   # dots' fields
    k = np.full(len(ends), -1)   # decimals, -1 without a dot
    k[at] = ends[at] - dots - 1
    if (ends - starts <= (k >= 0)).any() or (k >= 0).sum() < len(dots):
        raise ValueError("a field without digits, or with two dots")
    m = np.fromstring(b.translate(_ZEROS, b".") if odd else b.replace(b".", b""),
                      np.uint64, sep="\n")
    # np.fromstring saturates at 2**64 - 1: float() reads M of 20 digits
    bad = (m >= 10 ** 19) | (k > 27)
    if odd:   # a sign, an exponent, inf or nan: float() reads the field
        bad[np.searchsorted(ends, np.flatnonzero(
            (a > 57) | (a == 43) | (a == 45)))] = True
    q = m.astype(np.longdouble) / _POW10[np.clip(k, 0, 27)]
    x = q.astype(float)
    # at a midpoint q, q - x is half the gap from x to its neighbour toward q
    r = (q - x).astype(float)
    bad |= 2 * r == np.nextafter(x, np.copysign(np.inf, r)) - x
    x[bad] = [float(a[i:j].tobytes()) for i, j in zip(starts[bad], ends[bad])]
    return x[::width]


def _is_data(line: str) -> bool:
    line = line.strip()
    return bool(line) and not line.startswith("#")


def _parse_rows(lines: list, first_lineno: int, width: int) -> np.ndarray:
    """First fields of the data rows of ``lines``, ``width`` numbers each."""
    z = []
    for lineno, line in enumerate(lines, start=first_lineno):
        if not _is_data(line):
            continue
        parts = line.strip().split("\t")
        if len(parts) != width:
            raise ChainFormatError(
                f"chain line {lineno}: {len(parts)} tab-separated fields, "
                f"expected {width}: {line!r}")
        try:
            z.append([float(v) for v in parts][0])
        except ValueError:
            raise ChainFormatError(
                f"chain line {lineno}: not a number: {line!r}") from None
    return np.array(z, dtype=float)
