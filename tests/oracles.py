"""Slow reference implementations that the fast kernels are tested against.

Each oracle follows the defining formula literally: the coefficients are the
column means of the full design matrix, the denominator counts the
transitions of a ``transitions x grid`` mask, the risk sweep evaluates one
model at a time (its density at the jump images as a product with the
design matrix, the ``1/ln n`` threshold written out, the integral by scipy's
Simpson rule), and a chain is stepped one sampler call at a time.  The
pointwise basis function, the finite-difference transition weight, the
penalty of one model and the best model in hindsight are spelled out one
value at a time, for the tests that check the package's array versions.  The
diagnostics' null distance sums the row variances of the two design
matrices.  A numeric draw integrates the hazard by adaptive quadrature and
finds its root by Brent's method, one transition at a time.  The flow map,
the hazard pair and the fit-record reader are used only by tests.
"""

import warnings

import numpy as np
from scipy import integrate, optimize

from pdmprate.basis import Basis
from pdmprate.density import DensityFit, _criterion
from pdmprate.errors import CapExceededError, EmptyModelSetError
from pdmprate.jumprate import denominator_grid, risk_sweep, threshold
from pdmprate.simulate import CAP_FACTOR, _scalar_integrand, sample_next


def eval_one(basis, l, x):
    """Evaluate the l-th basis function (1-based index), 0 off-window."""
    if l < 1:
        raise ValueError("basis index starts at 1")
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= basis.a_max)
    if l == 1:
        vals = np.full_like(x, 1.0 / np.sqrt(basis.a_max))
    else:
        # same association order as in Basis.design so results are bit-equal
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
        return model.flow.travel_time(x, model.jump.invert(v))

    return (inv_time(y + h) - inv_time(y - h)) / (2.0 * h)


def penalty(m, n, sigma=2.0, sigma_prime=0.0):
    """Dimension penalty ``sigma*D_m/n + sigma_prime/n`` of model ``m``."""
    if n < 1:
        raise ValueError("sample size must be positive")
    return sigma * Basis.dim(m) / n + sigma_prime / n


def oracle_dimension(fit, chain, model, ys, denom=None):
    """Best model index in hindsight and its risk; ties to the smallest index."""
    risks = risk_sweep(fit, chain, model, ys, denom=denom)
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
        denom = denominator_grid(chain, model, ys)
    dim = fit.basis.dim(m)
    nu_f = fit.coeffs[:dim] @ fit.basis.design(model.jump.apply(ys), dim)
    fire = (nu_f >= 0.0) & (denom >= threshold(chain.n))
    rate = np.zeros(len(ys))
    rate[fire] = nu_f[fire] / denom[fire]
    return rate


def risk_sweep_oracle(fit, chain, model, ys, denom=None):
    """L2 risk against the model's rate of every model index, one at a time."""
    if denom is None:
        denom = denominator_grid(chain, model, ys)
    lam_true = model.rate.rate(ys)
    return np.array([
        integrate.simpson(
            (rate_at_model(fit, chain, model, ys, m, denom) - lam_true) ** 2,
            x=ys)
        for m in range(fit.m_max + 1)])


def design_means_oracle(samples, basis, dim, chunk=16384):
    """Column means of ``basis.design``, summed over chunks of samples."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    total = np.zeros(dim)
    for start in range(0, n, chunk):
        block = samples[start:start + chunk]
        total += basis.design(block, dim).sum(axis=1)
    return total / n


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


def simulate_chain_oracle(model, z0, n, seed):
    """States ``z[0..n]`` by one ``sample_next`` call per transition.

    Each step calls the numpy sampler of the model's family on 0-d arrays,
    from the same draws as ``simulate_chain``.
    """
    draws = chain_draws(seed, n)
    z = np.empty(n + 1)
    z[0] = z0
    for k in range(n):
        z[k + 1] = sample_next(model, z[k], draws[k])
    return z


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
    var1 = basis.design(first, dim).var(axis=1) / len(first)
    var2 = basis.design(second, dim).var(axis=1) / len(second)
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


def hazard(rate, x):
    """Return ``(rate(x), cumulative(x))`` for ``x >= 0``."""
    if np.any(np.asarray(x, dtype=float) < 0):
        raise ValueError("hazard argument must be nonnegative")
    return rate.rate(x), rate.cumulative(x)


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
