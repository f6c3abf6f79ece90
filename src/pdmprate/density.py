"""Projection estimator of the stationary density with penalized selection.

The least-squares contrast restricted to a subspace is minimized by the
empirical coefficients, where it equals minus the sum of their squares.  The
selected index minimizes contrast plus a linear dimension penalty over all
indices whose squared dimension stays below the sample size.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .basis import Basis, design_means, series_terms
from .errors import ChainTooShortError, require

DEFAULT_SIGMA = 2.0
DEFAULT_SIGMA_PRIME = 0.0


@dataclass(frozen=True)
class DensityFit:
    """Result of penalized model selection on one sample.

    ``coeffs`` holds the coefficients at the largest admissible dimension;
    every smaller model reuses its prefix.
    """

    basis: Basis
    coeffs: np.ndarray
    contrasts: np.ndarray
    penalties: np.ndarray
    m_hat: int
    n: int
    sigma: float
    sigma_prime: float

    @property
    def m_max(self) -> int:
        return len(self.contrasts) - 1

    def evaluate(self, x):
        """Estimated density at the points ``x`` using the selected model.

        May be negative; no positivity correction is applied here.  It is
        bit-identical to row ``m_hat`` of the model densities of any sweep.
        A float for a scalar ``x``.
        """
        x = np.asarray(x, dtype=float)
        dim = self.basis.dim(self.m_hat)
        out = np.cumsum(series_terms(self.coeffs[:dim], self.basis,
                                     np.atleast_1d(x)), axis=0)[-1]
        return out if x.ndim else float(out[0])


def _criterion(coeffs: np.ndarray, basis: Basis, n: int, sigma: float,
               sigma_prime: float):
    """Contrasts and penalties ``sigma*D_m/n + sigma_prime/n`` of every model.

    The contrast at model m is minus the sum of squares of the first ``D_m``
    of ``coeffs``, the coefficients at the largest model.
    """
    m_max = (len(coeffs) - 1) // 2
    dims = np.array([basis.dim(m) for m in range(m_max + 1)])
    # contrasts are at most D*2/a_max, up to rounding: twice that must fit
    require(4.0 * int(dims[-1]) / float(basis.a_max) < np.inf, "a_max",
            f"must keep 4*D/a_max finite at D = {dims[-1]}", basis.a_max)
    contrasts = -np.cumsum(coeffs ** 2)[dims - 1]
    penalties = sigma * dims / n + sigma_prime / n
    return contrasts, penalties


def select_model(samples: np.ndarray, basis: Basis,
                 sigma: float = DEFAULT_SIGMA,
                 sigma_prime: float = DEFAULT_SIGMA_PRIME) -> DensityFit:
    """Fit all admissible models and pick the penalized-contrast minimizer.

    Ties break toward the smallest index.  Requires at least 9 observations
    so the downstream log-threshold is well defined.  ``sigma_prime`` adds
    the same ``sigma_prime/n`` to every model's criterion, so it does not
    change ``m_hat`` (rounding could at most flip a near-tie); it shows only
    in ``penalties`` and the fit record.
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n < 9:
        raise ChainTooShortError(f"need n >= 9 observations, got {n}")
    coeffs = design_means(samples, basis, basis.dim(basis.max_model_index(n)))
    contrasts, penalties = _criterion(coeffs, basis, n, sigma, sigma_prime)
    crit = contrasts + penalties
    m_hat = int(np.argmin(crit))  # argmin returns the first, i.e. smallest m
    return DensityFit(basis=basis, coeffs=coeffs, contrasts=contrasts,
                      penalties=penalties, m_hat=m_hat, n=n,
                      sigma=sigma, sigma_prime=sigma_prime)


def fit_to_text(fit: DensityFit) -> str:
    """Serialize a fit to a plain text record (17 significant digits)."""
    buf = io.StringIO()
    buf.write(f"a_max\t{fit.basis.a_max:.17g}\n")
    buf.write(f"d_max\t{fit.basis.dim(fit.m_max)}\n")
    buf.write(f"m_hat\t{fit.m_hat}\n")
    buf.write(f"n\t{fit.n}\n")
    buf.write(f"sigma\t{fit.sigma:.17g}\n")
    buf.write(f"sigma_prime\t{fit.sigma_prime:.17g}\n")
    buf.write("coefficients\t" + "\t".join(f"{c:.17g}" for c in fit.coeffs) + "\n")
    return buf.getvalue()

