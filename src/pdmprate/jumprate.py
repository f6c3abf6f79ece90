"""Quotient estimator of the jump rate and its L2 risk on a grid.

The rate at ``y`` is the estimated stationary density at the jump image of
``y`` divided by an empirical denominator, gated by two indicators: the
density estimate must be nonnegative and the denominator must clear the
``1/ln(n)`` threshold.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .density import DensityFit
from .errors import ChainTooShortError, is_integer, require
from .model import Model
from .simulate import JumpChain

DEFAULT_GRID_POINTS = 513


def threshold(n: int) -> float:
    """Denominator cutoff ``1/ln(n)``; requires ``n >= 9`` so it is < 1."""
    if n < 9:
        raise ChainTooShortError(f"threshold undefined for n = {n} < 9")
    return 1.0 / np.log(n)


def denominator_grid(chain: JumpChain, model: Model,
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
    ys = np.asarray(ys, dtype=float)
    prev = chain.z[:-1]
    nxt = chain.z[1:]
    fy = model.jump.apply(ys)
    ok = nxt >= model.jump.apply(prev)
    count = (np.searchsorted(np.sort(prev[ok]), ys, side="right")
             - np.searchsorted(np.sort(nxt[ok]), fy, side="left"))
    return model.transition_weight(fy) * count / chain.n


def rate_grid(fit: DensityFit, chain: JumpChain, model: Model,
              ys: np.ndarray, denom: Optional[np.ndarray] = None):
    """Thresholded quotient estimate of the rate on a grid.

    Returns ``(rate_hat, density_at_image, denominator)`` of the selected
    model.  ``denom`` may be passed in to reuse a computed denominator.
    """
    ys = np.asarray(ys, dtype=float)
    if denom is None:
        denom = denominator_grid(chain, model, ys)
    nu_f = fit.evaluate(model.jump.apply(ys))
    return _quotient(nu_f, denom, chain.n), nu_f, denom


def _quotient(nu_f: np.ndarray, denom: np.ndarray, n: int) -> np.ndarray:
    """``nu_f/denom`` where ``nu_f >= 0`` and ``denom`` clears the threshold."""
    denom_ok = denom >= threshold(n)
    return np.where((nu_f >= 0.0) & denom_ok,
                    nu_f / np.where(denom_ok, denom, 1.0), 0.0)


def _simpson_weights(ys: np.ndarray) -> np.ndarray:
    """Composite Simpson weights ``h/3 * (1, 4, 2, 4, ..., 2, 4, 1)``.

    ``ys`` must be an odd equispaced grid, as :func:`make_grid` builds; the
    spacing ``h`` is taken from its ends.
    """
    g = len(ys)
    h = (ys[-1] - ys[0]) / (g - 1) if g > 1 else 0.0
    if g < 3 or g % 2 == 0 or not np.allclose(np.diff(ys), h, rtol=1e-9,
                                              atol=0.0):
        raise ValueError(f"Simpson's rule needs an odd equispaced grid of "
                         f"at least 3 points, got {g} points")
    w = np.full(g, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def make_grid(interval: tuple,
              grid_points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Equispaced evaluation grid with an odd point count for Simpson."""
    require(is_integer(grid_points) and grid_points >= 3
            and grid_points % 2 == 1, "grid_points",
            "expected an odd integer >= 3", grid_points)
    lo, hi = interval
    require(0 < lo < hi < np.inf, "interval",
            "need 0 < lo < hi < inf", interval)
    return np.linspace(lo, hi, grid_points)


def risk_sweep(fit: DensityFit, chain: JumpChain, model: Model,
               ys: np.ndarray,
               denom: Optional[np.ndarray] = None) -> np.ndarray:
    """L2 risk against the model's own rate for every admissible model index.

    Row ``m`` of ``nu_f`` first holds the terms model ``m`` adds to the
    density at the jump images (the constant for ``m = 0``, the m-th
    cosine/sine pair after it); one cumulative sum over the rows then gives
    the density of every model, and one product with the Simpson weights
    every risk.
    """
    ys = np.asarray(ys, dtype=float)
    if denom is None:
        denom = denominator_grid(chain, model, ys)
    lam_true = np.asarray(model.rate.rate(ys), dtype=float)
    terms = fit.basis.design(model.jump.apply(ys), fit.basis.dim(fit.m_max))
    terms *= fit.coeffs[:, None]
    nu_f = np.empty((fit.m_max + 1, len(ys)))
    nu_f[0] = terms[0]
    np.add(terms[1::2], terms[2::2], out=nu_f[1:])
    np.cumsum(nu_f, axis=0, out=nu_f)
    sq_err = (_quotient(nu_f, denom, chain.n) - lam_true) ** 2
    return sq_err @ _simpson_weights(ys)


def grid_to_tsv(ys: np.ndarray, rate_hat: np.ndarray, nu_f: np.ndarray,
                denom: np.ndarray, rate_true: np.ndarray) -> str:
    """TSV with the curves usually plotted together."""
    cols = ["y", "lambda_hat", "lambda_true", "nu_hat_of_f", "d_hat"]
    lines = ["\t".join(cols)]
    for i in range(len(ys)):
        row = [f"{ys[i]:.17g}", f"{rate_hat[i]:.17g}", f"{rate_true[i]:.17g}",
               f"{nu_f[i]:.17g}", f"{denom[i]:.17g}"]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
