"""Slow reference implementations that the fast kernels are tested against.

Each oracle follows the defining formula literally: the coefficients are the
column means of the full design matrix, the denominator counts the
transitions of a ``transitions x grid`` mask, and a chain is stepped one
sampler call at a time.
"""

import numpy as np

from pdmprate.model import BACTERIAL_POWER, TCP_POWER, TCP_QUADRATIC
from pdmprate.simulate import (sample_next_bacterial_power, sample_next_generic,
                               sample_next_tcp_power, sample_next_tcp_quadratic)


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
    """States ``z[0..n]`` by one family-sampler call per transition.

    Each step calls the numpy sampler of the model's family on 0-d arrays,
    from the same draws as ``simulate_chain``.
    """
    step = {TCP_POWER: sample_next_tcp_power,
            TCP_QUADRATIC: sample_next_tcp_quadratic,
            BACTERIAL_POWER: sample_next_bacterial_power}.get(
                model.family, sample_next_generic)
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    draws = np.random.default_rng(ss).exponential(1.0, size=n)
    z = np.empty(n + 1)
    z[0] = z0
    for k in range(n):
        z[k + 1] = step(model, z[k], draws[k])
    return z
