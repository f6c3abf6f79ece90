"""Slow reference implementations that the fast estimator kernels are tested against.

Each oracle follows the defining formula literally: the coefficients are the
column means of the full design matrix, and the denominator counts the
transitions of a ``transitions x grid`` mask.
"""

import numpy as np


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
