"""Quotient estimator of the jump rate and its L2 risk on a grid.

The rate at ``y`` is the estimated stationary density at the jump image of
``y`` divided by an empirical denominator, gated by two indicators: the
density estimate must be nonnegative and the denominator must clear the
``1/ln(n)`` threshold.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .basis import series_terms
from .density import DensityFit
from .errors import ChainTooShortError, StateRangeError, is_integer, require
from .simulate import JumpChain, text_blocks

DEFAULT_GRID_POINTS = 513


def threshold(n: int) -> float:
    """Denominator cutoff ``1/ln(n)``; requires ``n >= 9`` so it is < 1."""
    if n < 9:
        raise ChainTooShortError(f"threshold undefined for n = {n} < 9")
    return 1.0 / np.log(n)


def denominator_grid(chain: JumpChain, ys: np.ndarray) -> np.ndarray:
    """Empirical denominator at each grid point, under the chain's model.

    Averages the change-of-variable weight over transitions whose previous
    state is at most ``y`` and whose next state is at least the jump image
    ``f(y)``.  Among transitions with ``next >= f(prev)``, ``next < f(y)``
    implies ``prev <= y``, so the count is ``#{prev <= y} - #{next < f(y)}``:
    ``#{z <= y} - [z_n <= y]`` less ``#{z < f(y)} - [z_0 < f(y)]``, from one
    sort of ``z``.  One with ``next < f(prev)`` (none in a chain the model
    can produce) never counts, as ``prev <= y`` would put ``next`` below
    ``f(y)``: it comes off both numbers, from its own sorted states.
    Rounding keeps both implications, as ``f`` rounds monotonically.
    """
    ys = np.asarray(ys, dtype=float)
    model = chain.model
    z = chain.z
    fy = model.jump.apply(ys)
    below = z[1:] < model.jump.apply(z[:-1])
    zs = np.sort(z)
    count = (np.searchsorted(zs, ys, side="right") - (z[-1] <= ys)
             - np.searchsorted(zs, fy, side="left") + (z[0] < fy)
             - np.searchsorted(np.sort(z[:-1][below]), ys, side="right")
             + np.searchsorted(np.sort(z[1:][below]), fy, side="left"))
    return model.transition_weight(fy) * count / chain.n


def rate_grid(fit: DensityFit, chain: JumpChain, ys: np.ndarray,
              denom: Optional[np.ndarray] = None):
    """Thresholded quotient estimate of the rate on a grid.

    Returns ``(rate_hat, density_at_image, denominator)`` of the selected
    model.  ``denom`` may be passed in to reuse a computed denominator.
    """
    ys = np.asarray(ys, dtype=float)
    if denom is None:
        denom = denominator_grid(chain, ys)
    nu_f = fit.evaluate(chain.model.jump.apply(ys))
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
    if g < 3 or g % 2 == 0 or not _equispaced(ys):
        raise ValueError(f"Simpson's rule needs an odd equispaced grid of "
                         f"at least 3 points, got {g} points")
    h = (ys[-1] - ys[0]) / (g - 1)
    w = np.full(g, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def _equispaced(ys: np.ndarray) -> bool:
    """Whether every step of ``ys`` is its mean step, to 1e-9 of it."""
    h = (ys[-1] - ys[0]) / (len(ys) - 1)
    return bool(np.all(np.abs(np.diff(ys) - h) <= 1e-9 * abs(h)))


def make_grid(interval: tuple,
              grid_points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Equispaced evaluation grid with an odd point count for Simpson.

    Raises :class:`ConfigError` naming ``interval`` unless ``0 < lo < hi <
    inf`` and the interval is wide enough for doubles to space the points
    as Simpson's rule needs.
    """
    require(is_integer(grid_points) and grid_points >= 3
            and grid_points % 2 == 1, "grid_points",
            "expected an odd integer >= 3", grid_points)
    lo, hi = interval
    require(0 < lo < hi < np.inf, "interval",
            "need 0 < lo < hi < inf", interval)
    ys = np.linspace(float(lo), float(hi), int(grid_points))
    require(_equispaced(ys), "interval", f"too narrow for {grid_points} "
            "equispaced points in double precision", interval)
    return ys


def risk_sweep(fit: DensityFit, chain: JumpChain, ys: np.ndarray,
               denom: Optional[np.ndarray] = None) -> np.ndarray:
    """L2 risk against the chain model's rate for every admissible model index.

    One cumulative sum over the rows of :func:`series_terms` at the jump
    images gives the density of every model, and one product with the
    Simpson weights every risk.
    """
    ys = np.asarray(ys, dtype=float)
    model = chain.model
    if denom is None:
        denom = denominator_grid(chain, ys)
    lam_true = np.asarray(model.rate.rate(ys), dtype=float)
    nu_f = series_terms(fit.coeffs, fit.basis, model.jump.apply(ys))
    np.cumsum(nu_f, axis=0, out=nu_f)
    with np.errstate(over="ignore"):
        risks = (_quotient(nu_f, denom, chain.n) - lam_true) ** 2 \
            @ _simpson_weights(ys)
    if not np.all(risks < np.inf):
        raise StateRangeError("the squared error of the rate on the grid "
                              "overflows double precision; the true rate "
                              f"reaches {np.max(lam_true):.3g}")
    return risks


def grid_to_tsv(ys: np.ndarray, rate_hat: np.ndarray, nu_f: np.ndarray,
                denom: np.ndarray, rate_true: np.ndarray) -> str:
    """TSV with the curves usually plotted together."""
    return "y\tlambda_hat\tlambda_true\tnu_hat_of_f\td_hat\n" + b"".join(
        text_blocks(ys, rate_hat, rate_true, nu_f, denom)).decode()
