"""Slow reference implementations that the fast kernels are tested against.

Each oracle follows the defining formula literally: the design matrix holds
one cosine or sine per basis function and point, the coefficients are its
column means (or, exactly as summed before the binned transform, blocked
products of the phase recurrence), the denominator counts the
transitions of a ``transitions x grid`` mask, the risk sweep evaluates one
model at a time (its density at the jump images as a product with the
design matrix, the ``1/ln n`` threshold written out, the integral by scipy's
Simpson rule), and a chain is stepped one sampler call at a time, the
quadratic rate's by a numpy Cardano step of its own; a second Cardano step
in Python floats with ``math.cbrt`` and a bisection in exact rationals check
the package's step.  The pointwise basis
function, the finite-difference transition weight, the penalty of one model
and the best model in hindsight are spelled out one value at a time, for
the tests that check the package's array versions, and the minimized
contrast is minus the squared norm of the coefficients.  The
diagnostics' null distance sums the row variances of the two design
matrices.  A numeric draw integrates the hazard by adaptive quadrature and
finds its root by Brent's method, one transition at a time, and
``sample_next_generic`` takes numeric draws for any model through the public
``GenericSampler``.  The stationary law of a power-rate chain is the
perpetuity of its AR(1) step in ``w = z**p``, summed in closed form.  The
flow map and its travel time, the hazard pair, the fit-record reader and
the coefficients of one model alone are used only by tests, and the jump
times' durations are spelled out as the flow's travel time plus the
formulas where the pre-jump position overflows.  A chain or grid file's
rows are written one ``%`` format at a time, and a block of a chain file
is decoded in every field, the times too, with a midpoint found from the
gap between a double and its neighbour.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
from scipy import integrate, optimize

from pdmprate.basis import PHASE_BLOCK, Basis, _phase_table, design_means
from pdmprate.density import DensityFit, _criterion
from pdmprate.errors import (CapExceededError, EmptyModelSetError,
                             StateRangeError)
from pdmprate.jumprate import risk_sweep, threshold
from pdmprate.model import ADDITIVE, PowerRate, ShiftedQuadraticRate
from pdmprate.numeric import CAP_FACTOR, GenericSampler, _scalar_integrand
from pdmprate.simulate import _POW10, _PLAIN, _ZEROS, sample_next


def contrast(coeffs):
    """Minimized contrast value: minus the squared norm of the coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    return -float(np.sum(coeffs ** 2))


def coefficients(samples, basis, m):
    """Empirical projection coefficients of model ``m`` alone.

    Entry ``l`` is the sample mean of the l-th basis function, from the
    package's ``design_means`` at dimension ``D_m``; ``select_model`` sums at
    the largest dimension, so its prefixes are checked against this.
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n < 1:
        raise EmptyModelSetError("empty sample")
    if basis.dim(m) ** 2 > n:
        raise EmptyModelSetError(
            f"dimension {basis.dim(m)} inadmissible for sample size {n}")
    return design_means(samples, basis, basis.dim(m))


def design_oracle(basis, x, dim):
    """Matrix of basis values, shape ``(dim, len(x))``."""
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= basis.a_max)
    out = np.zeros((dim, len(x)))
    out[0] = np.where(inside, 1.0 / np.sqrt(basis.a_max), 0.0)
    amp = np.sqrt(2.0 / basis.a_max)
    theta = 2.0 * np.pi * x / basis.a_max
    # an even dim ends on the cosine of frequency dim // 2
    for j in range(1, dim // 2 + 1):
        arg = j * theta
        out[2 * j - 1] = np.where(inside, amp * np.cos(arg), 0.0)
        if 2 * j < dim:
            out[2 * j] = np.where(inside, amp * np.sin(arg), 0.0)
    return out


def series_error_bound(coeffs, basis):
    """Bound on ``|series(x) - coeffs @ design_oracle(basis, x, D)|``.

    ``series`` is the last row of the cumulative sum of
    ``pdmprate.basis.series_terms``, ``D = len(coeffs)``, ``m = D // 2`` the
    highest frequency, ``amp = sqrt(2/a_max)`` and ``eps/2`` the unit
    roundoff.  Both sides share ``theta = 2 pi x / a_max``.  As derived for
    the coefficients in ``test_basis._check_against_oracle``, the two phases
    of frequency ``j`` differ by at most ``((pi + 1.9)*j + 1)*eps``.  The
    kernel's term ``Re(conj*phase)`` adds the rounding of ``conj = amp*(c_cos
    - i*c_sin)`` (eps/2) and of one complex multiply (sqrt(5)*eps/2), the
    oracle's ``amp*cos`` one more eps/2: a pair is off by at most
    ``amp*(|c_cos| + |c_sin|)*((pi + 1.9)*j + 3.2)*eps``, and the constant
    term by ``1.5*eps*amp*|c_0|``.  Summing the ``m + 1`` rows costs the
    kernel ``m*eps/2`` and the oracle's dot product of ``D <= 2m + 1`` terms
    ``(m + 1/2)*eps``, each times ``amp*sum|c|``, the sum of the terms'
    magnitudes.  With ``j <= m`` that is ``((pi + 3.4)*m + 3.7)*eps*amp*
    sum|c|``; rounding 3.7 up to 4 covers the second-order terms, below
    1e-25 relative for ``m < 500``.
    """
    m = len(coeffs) // 2
    eps = np.finfo(float).eps
    return (((np.pi + 3.4) * m + 4.0) * eps * np.sqrt(2.0 / basis.a_max)
            * np.sum(np.abs(coeffs)))


def eval_one(basis, l, x):
    """Evaluate the l-th basis function (1-based index), 0 off-window."""
    if l < 1:
        raise ValueError("basis index starts at 1")
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= basis.a_max)
    if l == 1:
        vals = np.full_like(x, 1.0 / np.sqrt(basis.a_max))
    else:
        # same association order as in design_oracle so results are bit-equal
        j = l // 2
        arg = j * (2.0 * np.pi * x / basis.a_max)
        amp = np.sqrt(2.0 / basis.a_max)
        vals = amp * (np.cos(arg) if l % 2 == 0 else np.sin(arg))
    out = np.where(inside, vals, 0.0)
    return out if out.ndim else float(out)


def transition_weight_numeric(model, x, y):
    """Finite-difference version of ``Model.transition_weight``, started at ``x``.

    Central differences of the travel-time map from ``x`` with step
    ``h = 1e-6 * max(1, y)``.
    """
    h = 1e-6 * max(1.0, y)

    def inv_time(v):
        return travel_time(model.flow, x, model.jump.invert(v))

    return (inv_time(y + h) - inv_time(y - h)) / (2.0 * h)


def penalty(m, n, sigma=2.0, sigma_prime=0.0):
    """Dimension penalty ``sigma*D_m/n + sigma_prime/n`` of model ``m``."""
    if n < 1:
        raise ValueError("sample size must be positive")
    return sigma * Basis.dim(m) / n + sigma_prime / n


def oracle_dimension(fit, chain, ys, denom=None):
    """Best model index in hindsight and its risk; ties to the smallest index."""
    risks = risk_sweep(fit, chain, ys, denom=denom)
    if len(risks) == 0:
        raise EmptyModelSetError("no admissible model index")
    m_opt = int(np.argmin(risks))
    return m_opt, float(risks[m_opt])


def rate_at_model(fit, chain, model, ys, m, denom=None):
    """Quotient estimate of the rate on ``ys`` from model ``m``.

    The density of model ``m`` at the jump images, divided by the
    denominator where the density is nonnegative and the denominator is at
    least ``1/ln n``; zero elsewhere.
    """
    ys = np.asarray(ys, dtype=float)
    if denom is None:
        denom = denominator_mask_oracle(chain, model, ys)
    dim = fit.basis.dim(m)
    nu_f = fit.coeffs[:dim] @ design_oracle(fit.basis, model.jump.apply(ys),
                                            dim)
    fire = (nu_f >= 0.0) & (denom >= threshold(chain.n))
    rate = np.zeros(len(ys))
    rate[fire] = nu_f[fire] / denom[fire]
    return rate


def risk_sweep_oracle(fit, chain, model, ys, denom=None):
    """L2 risk against the model's rate of every model index, one at a time."""
    if denom is None:
        denom = denominator_mask_oracle(chain, model, ys)
    lam_true = model.rate.rate(ys)
    return np.array([
        integrate.simpson(
            (rate_at_model(fit, chain, model, ys, m, denom) - lam_true) ** 2,
            x=ys)
        for m in range(fit.m_max + 1)])


def design_means_oracle(samples, basis, dim, chunk=16384):
    """Column means of ``design_oracle``, summed over chunks of samples."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    total = np.zeros(dim)
    for start in range(0, n, chunk):
        block = samples[start:start + chunk]
        total += design_oracle(basis, block, dim).sum(axis=1)
    return total / n


def design_means_blocked(samples, basis, dim, chunk=4096):
    """Column means of the design matrix as blocked phase products.

    Per chunk of in-window samples, the phase sums of block ``b`` are ``low
    @ high``, the table of ``pdmprate.basis._phase_table`` times the block's
    phases: ``n*dim`` complex multiply-adds, the exact sum that the
    Taylor-binned ``design_means`` approximates.
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    inside = samples[(samples >= 0.0) & (samples <= basis.a_max)]
    n_cos, n_sin = dim // 2, (dim - 1) // 2
    n_blocks = -(-(n_cos + 1) // PHASE_BLOCK)
    sums = np.zeros(n_blocks * PHASE_BLOCK, dtype=complex)
    for start in range(0, len(inside), chunk):
        theta = 2.0 * np.pi * inside[start:start + chunk] / basis.a_max
        low = np.empty((PHASE_BLOCK, len(theta)), dtype=complex)
        step = np.empty(len(theta), dtype=complex)
        _phase_table(theta, low, step)
        high = np.ones(len(theta), dtype=complex)
        for b in range(n_blocks):
            if b:
                high *= step
            sums[b * PHASE_BLOCK:(b + 1) * PHASE_BLOCK] += low @ high
    out = np.empty(dim)
    out[0] = len(inside) / np.sqrt(basis.a_max) / n
    amp = np.sqrt(2.0 / basis.a_max)
    out[1::2] = amp * sums[1:n_cos + 1].real / n
    out[2::2] = amp * sums[1:n_sin + 1].imag / n
    return out


def denominator_mask_oracle(chain, model, ys, chunk=64):
    """Weighted share of transitions with ``prev <= y`` and ``next >= f(y)``."""
    ys = np.asarray(ys, dtype=float)
    prev = chain.z[:-1]
    nxt = chain.z[1:]
    out = np.empty(len(ys))
    for s in range(0, len(ys), chunk):
        yb = ys[s:s + chunk][:, None]
        fy = model.jump.apply(yb)
        hit = (prev[None, :] <= yb) & (nxt[None, :] >= fy)
        if model.flow.variant == "additive":
            w = 1.0 / (model.jump.kappa * model.flow.c)
        else:
            w = 1.0 / (model.flow.c * fy[:, 0])
        out[s:s + chunk] = w * hit.sum(axis=1) / chain.n
    return out


def quadratic_step_oracle(model, z, e):
    """Next state for the additive flow / shifted quadratic rate family.

    The hazard recursion reduces to a depressed cubic; its unique real root
    is written with sign-preserving cube roots, in numpy.
    """
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


def quadratic_step_cardano(model, z, e):
    """Next state of the same family by Cardano in Python floats, with
    ``math.cbrt``: the real root of ``t**3 + 3*b*t = q`` as the difference
    of two cube roots, the smaller one's argument formed through its
    conjugate, and the state ``kappa*(a + t)``.  Within a few ulps of the
    package's step where ``a + t`` does not cancel."""
    a, b, c = model.rate.a, model.rate.b, model.flow.c
    u = float(z) - a
    q = 3.0 * c * float(e) + u * u * u + 3.0 * b * u
    r = math.sqrt(4.0 * b ** 3 + q * q)
    if q >= 0.0:
        s = q + r
        # s = 0 only when q = b = 0, whose root is t = 0
        t = math.cbrt(s / 2.0) - math.cbrt(2.0 * b ** 3 / s) if s else 0.0
    else:
        s = r - q
        t = math.cbrt(2.0 * b ** 3 / s) - math.cbrt(s / 2.0)
    return model.jump.kappa * (a + t)


def quadratic_increment_oracle(model, z, e):
    """Next state of the same family, exact but for its last rounding.

    With ``u = z - a``, the increment ``d = y/kappa - z`` solves
    ``d*(u*u + u*d + d*d/3 + b) = c*e``, whose left side increases in
    ``d >= 0``; bisection in exact rationals brackets it to 2**-90 of its
    size, and ``kappa*(z + d)`` is rounded once.
    """
    a, b, c, kappa, z, e = (Fraction(v) for v in (
        model.rate.a, model.rate.b, model.flow.c, model.jump.kappa, z, e))
    u = z - a
    target = c * e

    def lhs(d):
        return d * (u * u + u * d + d * d / 3 + b)

    lo, hi = Fraction(0), Fraction(int(target > 0))
    while lhs(hi) < target:
        lo, hi = hi, 2 * hi
    while hi - lo > hi * Fraction(1, 2 ** 90):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if lhs(mid) < target else (lo, mid)
    return float(kappa * (z + (lo + hi) / 2))


def power_log_step_oracle(model, z, e):
    """Next state ``kappa * (z**p + x)**(1/p)`` of a power-rate chain, with
    ``x = p*c*e/lam``, by its logarithm ``log(z**p + x)``, the log-sum of
    ``p*log(z)`` and ``log(x)``: neither ``z**p`` nor, where it overflows,
    ``x`` is formed, so either may exceed the largest double while the
    states fit."""
    p, c, lam, e = model.power_exponent, model.flow.c, model.rate.lam, float(e)
    x = p * c * e / lam
    log_x = (math.log(x) if x < math.inf else
             math.log(p) + math.log(c) + math.log(e) - math.log(lam))
    terms = sorted([p * math.log(z), log_x if x > 0.0 else -math.inf])
    log_sum = terms[1] + math.log1p(math.exp(terms[0] - terms[1]))
    return model.jump.kappa * math.exp(log_sum / p)


def _perpetuity(model, terms=120):
    """``(p, C, mu)`` of the stationary law of a power-rate chain.

    In ``w = z**p`` the chain is ``w' = r*(w + s*e)``, with ``r = kappa**p``
    and ``s = p*c/lam``, so its stationary ``W`` is the perpetuity
    ``sum_{k>=1} r**k * s * E_k``, whose Laplace transform
    ``prod_k 1/(1 + r**k*s*t)`` splits into partial fractions: the density
    is ``sum_k C_k*mu_k*exp(-mu_k*w)``, with ``mu_k = 1/(s*r**k)`` and
    ``C_k = prod_{j != k} 1/(1 - r**(j-k))`` (the exponential functional of
    AIMD; Dumas, Guillemin & Robert, Adv. Appl. Prob. 34(1), 2002).  The
    sums stop at ``terms``, past which ``r**k`` is below 3e-12 for
    ``r <= 0.8``; ``max |C_k|`` is 3.5, 64 and 2.2e3 for ``r = 1/2,
    1/sqrt(2)`` and ``0.8``, so the sums lose at most about 4 digits.
    """
    p = model.power_exponent
    r = model.jump.kappa ** p
    k = np.arange(1, terms + 1)
    mu = 1.0 / (p * model.flow.c / model.rate.lam * r ** k)
    gaps = k[None, :] - k[:, None]      # j - k in row k
    # the identity puts a factor 1 on the diagonal, where j = k
    factors = 1.0 / (1.0 - r ** gaps + np.eye(terms))
    return p, np.prod(factors, axis=1), mu


def perpetuity_density(model, y):
    """The stationary density of a power-rate chain at the states ``y``:
    ``p*y**(p-1)`` times the density of ``W = Z**p`` (:func:`_perpetuity`)."""
    p, coeffs, mu = _perpetuity(model)
    y = np.asarray(y, dtype=float)
    terms = np.exp(-np.multiply.outer(y ** p, mu))
    out = p * y ** (p - 1.0) * (terms @ (coeffs * mu))
    return out if out.ndim else float(out)


def perpetuity_cdf(model, y):
    """The stationary distribution function of a power-rate chain at ``y``,
    ``1 - sum_k C_k*exp(-mu_k*y**p)`` (:func:`_perpetuity`)."""
    p, coeffs, mu = _perpetuity(model)
    y = np.asarray(y, dtype=float)
    out = 1.0 - np.exp(-np.multiply.outer(y ** p, mu)) @ coeffs
    return out if out.ndim else float(out)


def simulate_chain_oracle(model, z0, n, seed):
    """States ``z[0..n]`` by one step call per transition.

    Each step is ``quadratic_step_oracle`` for the shifted quadratic rate
    under the additive flow, and a scalar ``sample_next`` call otherwise:
    the chain's own first step, so that a loop of them checks the power
    scan's later passes and the numeric chain's phi steps.  The draws are
    those of ``simulate_chain``.
    """
    quadratic = (model.flow.variant == ADDITIVE
                 and isinstance(model.rate, ShiftedQuadraticRate))
    step = quadratic_step_oracle if quadratic else sample_next
    draws = chain_draws(seed, n)
    z = np.empty(n + 1)
    z[0] = z0
    for k in range(n):
        z[k + 1] = step(model, z[k], draws[k])
    return z


def sample_next_generic(model, z, e):
    """``sample_next`` by numeric draws, whatever the model's family.

    One ``GenericSampler`` moves from state to state over the broadcast
    ``z`` and ``e``, so its hazard table serves them all; a float for
    scalars.
    """
    z, e = np.broadcast_arrays(np.asarray(z, dtype=float),
                               np.asarray(e, dtype=float))
    zs, es = z.ravel().tolist(), e.ravel().tolist()
    out = np.empty(z.shape)
    flat = out.reshape(-1)
    sampler = GenericSampler(model, zs[0]) if zs else None
    for k, (zk, ek) in enumerate(zip(zs, es)):
        sampler.move_to(zk)
        flat[k] = sampler.draw(ek)
    return out if out.ndim else float(out)


def generic_draw_oracle(model, z, e, kinks=()):
    """Next state from ``z`` for the draw ``e``, by quadrature and Brent's method.

    Each hazard is a ``quad`` of the integrand from the jump image
    ``kappa*z`` to within 1e-13 of itself or of ``e``, split where the flow
    reaches a state in ``kinks``, at which the rate is not smooth.  The root is
    bracketed by steps that double, up to the cap ``CAP_FACTOR * max(z, 1)``,
    past which :class:`CapExceededError` is raised as by ``GenericSampler``.
    """
    g = _scalar_integrand(model)
    lo = model.jump.apply(float(z))
    cap = CAP_FACTOR * max(float(z), 1.0)
    if e == 0.0:
        return lo
    breaks = sorted(model.jump.apply(float(x)) for x in kinks)

    def hazard(y):
        ends = [lo] + [b for b in breaks if lo < b < y] + [y]
        total = 0.0
        for a, b in zip(ends, ends[1:]):
            with warnings.catch_warnings():
                # quad warns on intervals a few ulps wide, where it cannot
                # halve further; its own error estimate is checked instead
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                part, err = integrate.quad(g, a, b, epsabs=1e-13 * e,
                                           epsrel=1e-13, limit=200)
            assert err <= 1e-12 * max(part, e), (a, b, part, err)
            total += part
        return total

    hi, step = lo, max(lo, 1.0)
    while hazard(hi) < e:
        if hi == cap:
            raise CapExceededError(f"hazard below target {e:.3g} before cap")
        hi, step = min(hi + step, cap), 2.0 * step
    return optimize.brentq(lambda y: hazard(y) - e, lo, hi, xtol=1e-300,
                           rtol=4.0 * np.finfo(float).eps)


def chain_draws(seed, n):
    """The ``n`` unit-exponential draws ``simulate_chain`` makes from ``seed``."""
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    return np.random.default_rng(ss).exponential(1.0, size=n)


def null_distance_oracle(basis, first, second, dim):
    """Summed sampling variance of both halves' empirical means, from the matrices."""
    var1 = design_oracle(basis, first, dim).var(axis=1) / len(first)
    var2 = design_oracle(basis, second, dim).var(axis=1) / len(second)
    return float(np.sum(var1 + var2))


def advance(flow, x, t):
    """Position after following ``flow`` from ``x`` for time ``t``."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(x < 0) or np.any(t < 0):
        raise ValueError("flow arguments must be nonnegative")
    if flow.variant == "additive":
        out = x + flow.c * t
    else:
        out = x * np.exp(flow.c * t)
    return out if out.ndim else float(out)


def travel_time(flow, x, y):
    """Time needed to move from ``x`` to ``y`` along the flow.

    Raises ``ValueError`` when ``y`` lies behind ``x``, and
    :class:`StateRangeError` when the time exceeds double range.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y < x):
        raise ValueError("target state precedes current state")
    with np.errstate(over="ignore"):
        if flow.variant == ADDITIVE:
            out = (y - x) / flow.c
        else:
            if np.any(x <= 0):
                raise ValueError(
                    "exponential flow needs a positive start state")
            out = np.log(y / x) / flow.c
            # y/x overflows for a subnormal x, though its log may fit
            far = out == np.inf
            if np.any(far):
                out = np.where(far, (np.log(y) - np.log(x)) / flow.c, out)
    if np.any(out == np.inf):
        raise StateRangeError(
            f"a travel time exceeds double range (flow speed c = "
            f"{flow.c!r})")
    return out if out.ndim else float(out)


def jump_gaps_oracle(chain):
    """Inter-jump durations of ``chain`` as ``reconstruct_times`` forms them
    before their sum: :func:`travel_time` to the pre-jump position
    ``max(z/kappa, x)``, and where ``z/kappa`` overflows, ``z/(kappa*c) -
    x/c`` under the additive flow and ``(log z - log kappa - log x)/c``
    under the exponential one.  The additive formula is NaN where both of
    its terms overflow; the package forms ``(z - kappa*x)/(kappa*c)`` there.
    """
    model = chain.model
    prev, z = chain.z[:-1], chain.z[1:]
    with np.errstate(over="ignore"):
        pre_jump = np.maximum(model.jump.invert(z), prev)
        far = pre_jump == math.inf
        pre_jump[far] = prev[far]
        gaps = travel_time(model.flow, prev, pre_jump)
        if far.any():
            x, y, kappa, c = prev[far], z[far], model.jump.kappa, model.flow.c
            gaps[far] = (y / (kappa * c) - x / c
                         if model.flow.variant == ADDITIVE else
                         (np.log(y) - math.log(kappa) - np.log(x)) / c)
    return np.atleast_1d(gaps)


def cumulative(rate, x):
    """Primitive of a power or shifted quadratic rate, vanishing at 0."""
    x = np.asarray(x, dtype=float)
    if isinstance(rate, PowerRate):
        p = rate.delta + 1.0
        out = rate.lam * np.power(x, p) / p
    else:
        # (x-a)^3/3 + b*x + a^3/3: the constant pins cumulative(0) = 0
        out = (x - rate.a) ** 3 / 3.0 + rate.b * x + rate.a ** 3 / 3.0
    return out if out.ndim else float(out)


def hazard(rate, x):
    """Return ``(rate(x), cumulative(x))`` for ``x >= 0``."""
    if np.any(np.asarray(x, dtype=float) < 0):
        raise ValueError("hazard argument must be nonnegative")
    return rate.rate(x), cumulative(rate, x)


def fit_from_text(text):
    """Parse the record produced by ``pdmprate.density.fit_to_text``."""
    fields = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, *rest = line.split("\t")
        fields[key] = rest
    basis = Basis(a_max=float(fields["a_max"][0]))
    coeffs = np.array([float(v) for v in fields["coefficients"]])
    n = int(fields["n"][0])
    sigma = float(fields["sigma"][0])
    sigma_prime = float(fields["sigma_prime"][0])
    contrasts, penalties = _criterion(coeffs, basis, n, sigma, sigma_prime)
    return DensityFit(basis=basis, coeffs=coeffs, contrasts=contrasts,
                      penalties=penalties, m_hat=int(fields["m_hat"][0]),
                      n=n, sigma=sigma, sigma_prime=sigma_prime)


def text_rows(*columns):
    """One line per row: the columns' values to 17 significant digits, tabbed,
    each formatted by Python's ``%``; ``pdmprate.simulate.text_blocks`` is its
    vectorized form."""
    row = "\t".join(["%.17g"] * len(columns))
    return [row % r for r in zip(*(np.asarray(c, dtype=float).tolist()
                                  for c in columns))]


def decode_block_oracle(b, width):
    """The first fields of the ``width``-field rows of ``b``, which holds no
    comment or blank line: every field, the times too, as ``M/10**k`` in a
    long double, a midpoint found from the gap between the double it casts
    to and that double's neighbour, and ``float()`` where M or k is out of
    range or the field has a sign, an exponent, inf or nan."""
    odd = b.translate(None, _PLAIN)
    if odd.translate(None, b"+-_eEaAfFiInNtTyY"):
        raise ValueError("not a sign, an exponent, inf or nan: a space, a #")
    a = np.frombuffer(b, np.uint8)
    ends = np.flatnonzero((a == 9) | (a == 10))
    if width > 2 or len(ends) % width or (a[ends].reshape(-1, width)
                                          != (9, 10)[2 - width:]).any():
        raise ValueError("a row not of width - 1 tabs and a newline")
    starts = np.concatenate(([0], ends[:-1] + 1))
    dots = np.flatnonzero(a == 46)
    at = np.searchsorted(ends, dots)
    k = np.full(len(ends), -1)
    k[at] = ends[at] - dots - 1
    if (ends - starts <= (k >= 0)).any() or (k >= 0).sum() < len(dots):
        raise ValueError("a field without digits, or with two dots")
    m = np.fromstring(b.translate(_ZEROS, b"."), np.uint64, sep="\n")
    bad = (m >= 10 ** 19) | (k > 27)
    if odd:
        bad[np.searchsorted(ends, np.flatnonzero(
            (a > 57) | (a == 43) | (a == 45)))] = True
    q = m.astype(np.longdouble) / _POW10[np.clip(k, 0, 27)]
    x = q.astype(float)
    r = (q - x).astype(float)
    bad |= 2 * r == np.nextafter(x, np.copysign(np.inf, r)) - x
    x[bad] = [float(a[i:j].tobytes()) for i, j in zip(starts[bad], ends[bad])]
    return x[::width]
