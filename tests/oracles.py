"""Slow reference implementations that the fast kernels are tested against.

Each oracle follows the defining formula literally: the coefficients are the
column means of the full design matrix, the denominator counts the
transitions of a ``transitions x grid`` mask, and a chain is stepped one
sampler call at a time.  The pointwise basis function, the finite-difference
transition weight, the penalty of one model and the best model in hindsight
are spelled out one value at a time, for the tests that check the package's
array versions.
"""

import numpy as np

from pdmprate.basis import Basis
from pdmprate.errors import EmptyModelSetError
from pdmprate.jumprate import risk_sweep
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
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    draws = np.random.default_rng(ss).exponential(1.0, size=n)
    z = np.empty(n + 1)
    z[0] = z0
    for k in range(n):
        z[k + 1] = sample_next(model, z[k], draws[k])
    return z
