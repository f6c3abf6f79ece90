"""Quotient estimator of the jump rate and its L2 risk on a grid.

The rate at ``y`` is the estimated stationary density at the jump image of
``y`` divided by an empirical denominator, gated by two indicators: the
density estimate must be nonnegative and the denominator must clear the
``1/ln(n)`` threshold.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
from scipy import integrate

from .density import DensityFit
from .errors import ChainTooShortError
from .model import Model
from .simulate import JumpChain

DEFAULT_GRID_POINTS = 513


def threshold(n: int) -> float:
    """Denominator cutoff ``1/ln(n)``; requires ``n >= 9`` so it is < 1."""
    if n < 9:
        raise ChainTooShortError(f"threshold undefined for n = {n} < 9")
    return 1.0 / np.log(n)


def denominator_grid(chain: JumpChain, model: Optional[Model],
                     ys: np.ndarray) -> np.ndarray:
    """Empirical denominator at each grid point.

    Averages the change-of-variable weight over transitions whose previous
    state is at most ``y`` and whose next state is at least the jump image
    ``f(y)``.  A transition with ``next >= f(prev)`` has ``prev <= y``
    whenever ``next < f(y)``, so among those transitions the count is the
    number of previous states up to ``y`` minus the number of next states
    below ``f(y)``: two binary searches per grid point.  A transition with
    ``next < f(prev)`` (none in a chain the model can produce) never counts,
    because ``prev <= y`` would put ``next`` below ``f(y)``; rounding keeps
    both implications, as ``f`` rounds monotonically.
    """
    model = model or chain.model
    ys = np.asarray(ys, dtype=float)
    prev = chain.z[:-1]
    nxt = chain.z[1:]
    fy = model.jump.apply(ys)
    ok = nxt >= model.jump.apply(prev)
    count = (np.searchsorted(np.sort(prev[ok]), ys, side="right")
             - np.searchsorted(np.sort(nxt[ok]), fy, side="left"))
    return model.transition_weight(ys, fy) * count / chain.n


def rate_grid(fit: DensityFit, chain: JumpChain, model: Optional[Model],
              ys: np.ndarray, m: Optional[int] = None,
              denom: Optional[np.ndarray] = None):
    """Thresholded quotient estimate of the rate on a grid.

    Returns ``(rate_hat, density_at_image, denominator)``.  ``denom`` may be
    passed in to reuse a previously computed denominator (it does not depend
    on the model index).
    """
    model = model or chain.model
    ys = np.asarray(ys, dtype=float)
    if denom is None:
        denom = denominator_grid(chain, model, ys)
    nu_f = fit.evaluate(model.jump.apply(ys), m=m)
    thr = threshold(chain.n)
    fire = (nu_f >= 0.0) & (denom >= thr)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate_hat = np.where(fire, nu_f / denom, 0.0)
    return rate_hat, nu_f, denom


def l2_risk(ys: np.ndarray, values_hat: np.ndarray, values_true: np.ndarray,
            interval: Optional[tuple] = None) -> float:
    """Integrated squared error by composite Simpson on the grid."""
    ys = np.asarray(ys, dtype=float)
    if interval is not None:
        lo, hi = interval
        if ys[0] > lo + 1e-12 or ys[-1] < hi - 1e-12:
            raise ValueError(f"grid [{ys[0]}, {ys[-1]}] does not cover "
                             f"interval [{lo}, {hi}]")
    diff = np.asarray(values_hat, dtype=float) - np.asarray(values_true, dtype=float)
    return float(integrate.simpson(diff ** 2, x=ys))


def make_grid(interval: tuple, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Equispaced evaluation grid with an odd point count for Simpson."""
    lo, hi = interval
    if points < 3 or points % 2 == 0:
        raise ValueError("grid needs an odd number of points, at least 3")
    if not 0 < lo < hi:
        raise ValueError("interval must satisfy 0 < lo < hi")
    return np.linspace(lo, hi, points)


def risk_sweep(fit: DensityFit, chain: JumpChain, model: Optional[Model],
               ys: np.ndarray, truth: Callable[[np.ndarray], np.ndarray],
               denom: Optional[np.ndarray] = None) -> np.ndarray:
    """L2 risk of the quotient estimator for every admissible model index."""
    model = model or chain.model
    ys = np.asarray(ys, dtype=float)
    if denom is None:
        denom = denominator_grid(chain, model, ys)
    lam_true = np.asarray(truth(ys), dtype=float)
    dims_max = fit.m_max + 1
    risks = np.empty(dims_max)
    thr = threshold(chain.n)
    design = fit.basis.design(model.jump.apply(ys), fit.basis.dim(fit.m_max))
    nu_f = np.zeros(len(ys))
    lo_dim = 0
    denom_ok = denom >= thr
    for m in range(dims_max):
        dim = fit.basis.dim(m)
        nu_f = nu_f + fit.coeffs[lo_dim:dim] @ design[lo_dim:dim]
        lo_dim = dim
        fire = (nu_f >= 0.0) & denom_ok
        rate_hat = np.where(fire, nu_f / np.where(denom_ok, denom, 1.0), 0.0)
        risks[m] = l2_risk(ys, rate_hat, lam_true)
    return risks


def grid_to_tsv(ys: np.ndarray, rate_hat: np.ndarray, nu_f: np.ndarray,
                denom: np.ndarray,
                rate_true: Optional[np.ndarray] = None) -> str:
    """TSV with the four curves usually plotted together."""
    cols = ["y", "lambda_hat"]
    if rate_true is not None:
        cols.append("lambda_true")
    cols += ["nu_hat_of_f", "d_hat"]
    lines = ["\t".join(cols)]
    for i in range(len(ys)):
        row = [f"{ys[i]:.17g}", f"{rate_hat[i]:.17g}"]
        if rate_true is not None:
            row.append(f"{rate_true[i]:.17g}")
        row += [f"{nu_f[i]:.17g}", f"{denom[i]:.17g}"]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
