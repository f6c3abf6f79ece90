"""Slow reference implementations that the fast kernels are tested against.

Each oracle follows the defining formula literally: the coefficients are the
column means of the full design matrix, the denominator counts the
transitions of a ``transitions x grid`` mask, the risk sweep evaluates one
model at a time, and a chain is stepped one sampler call at a time.  The
pointwise basis function, the finite-difference transition weight, the
penalty of one model and the best model in hindsight are spelled out one
value at a time, for the tests that check the package's array versions.  The
diagnostics' null distance sums the row variances of the two design
matrices.  The flow map, the hazard pair and the fit-record reader
are used only by tests.
"""

import numpy as np

from pdmprate.basis import Basis
from pdmprate.density import DensityFit, _criterion
from pdmprate.errors import EmptyModelSetError
from pdmprate.jumprate import (denominator_grid, l2_risk, rate_grid,
                               risk_sweep)
from pdmprate.simulate import sample_next


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
    """Finite-difference version of ``Model.transition_weight``.

    Central differences of the travel-time map with step
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


def oracle_dimension(fit, chain, model, ys, truth, denom=None):
    """Best model index in hindsight and its risk; ties to the smallest index."""
    risks = risk_sweep(fit, chain, model, ys, truth, denom=denom)
    if len(risks) == 0:
        raise EmptyModelSetError("no admissible model index")
    m_opt = int(np.argmin(risks))
    return m_opt, float(risks[m_opt])


def risk_sweep_oracle(fit, chain, model, ys, truth, denom=None):
    """L2 risk of every model index, one ``rate_grid`` and ``l2_risk`` each."""
    if denom is None:
        denom = denominator_grid(chain, model, ys)
    lam_true = truth(ys)
    return np.array([
        l2_risk(ys, rate_grid(fit, chain, model, ys, m=m, denom=denom)[0],
                lam_true)
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
