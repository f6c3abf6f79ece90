"""Trigonometric orthonormal system on the estimation window.

The nested subspaces have dimensions ``2m + 1``: the constant function plus
``m`` full cosine/sine pairs, orthonormal for the Lebesgue inner product on
``[0, a_max]``.  Functions vanish outside the window, so observations off the
window simply contribute zero to the empirical coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyModelSetError, positive

# Frequencies per block of the factored phase sum in design_means, and the
# number of in-window samples whose phases are held in memory at once.  Both
# are fixed so that coefficient bits do not depend on the dimension asked for.
PHASE_BLOCK = 16
SAMPLE_CHUNK = 4096


@dataclass(frozen=True)
class Basis:
    """Window ``[0, a_max]`` and the associated dimension schedule."""

    a_max: float = 6.0

    def __post_init__(self):
        positive("a_max", self.a_max)

    @staticmethod
    def dim(m: int) -> int:
        """Dimension of the m-th subspace."""
        return 2 * m + 1

    def max_model_index(self, n: int) -> int:
        """Largest index m whose squared dimension does not exceed n."""
        if n < 1:
            raise EmptyModelSetError("no admissible dimension for n < 1")
        # (2m+1)^2 <= n
        return int((np.sqrt(n) - 1.0) // 2)


def coefficients(samples: np.ndarray, basis: Basis, m: int) -> np.ndarray:
    """Empirical projection coefficients for the m-th subspace.

    Entry ``l`` is the sample mean of the l-th basis function; prefixes are
    exactly nested across m because each entry is computed the same way
    regardless of m.
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n < 1:
        raise EmptyModelSetError("empty sample")
    if basis.dim(m) ** 2 > n:
        raise EmptyModelSetError(
            f"dimension {basis.dim(m)} inadmissible for sample size {n}")
    return design_means(samples, basis, basis.dim(m))


def design_means(samples: np.ndarray, basis: Basis, dim: int) -> np.ndarray:
    """Column means of the design matrix, computed without forming it.

    Per chunk of in-window samples, the phase sums of block ``b`` are ``low
    @ high``, the table of :func:`_phase_table` times the block's phases.
    Every block is a separate product of one shape, with phases formed in
    the same order whatever ``dim`` is, so each entry's summation order, and
    with it the exact prefix nesting across dimensions, does not depend on
    ``dim`` (BLAS sums a one-column product unlike a wider one).
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    inside = samples[(samples >= 0.0) & (samples <= basis.a_max)]
    # frequencies 1..n_cos have a cosine entry, 1..n_sin a sine entry
    n_cos, n_sin = dim // 2, (dim - 1) // 2
    n_blocks = -(-(n_cos + 1) // PHASE_BLOCK)
    sums = np.zeros(n_blocks * PHASE_BLOCK, dtype=complex)
    width = min(SAMPLE_CHUNK, len(inside))
    low = np.empty((PHASE_BLOCK, width), dtype=complex)
    high = np.empty(width, dtype=complex)
    step = np.empty(width, dtype=complex)
    for start in range(0, len(inside), SAMPLE_CHUNK):
        theta = 2.0 * np.pi * inside[start:start + SAMPLE_CHUNK] / basis.a_max
        k = len(theta)
        lo, hi, st = low[:, :k], high[:k], step[:k]
        _phase_table(theta, lo, st)
        hi[:] = 1.0
        for b in range(n_blocks):
            if b:
                hi *= st
            sums[b * PHASE_BLOCK:(b + 1) * PHASE_BLOCK] += lo @ hi
    out = np.empty(dim)
    out[0] = len(inside) / np.sqrt(basis.a_max) / n
    amp = np.sqrt(2.0 / basis.a_max)
    out[1::2] = amp * sums[1:n_cos + 1].real / n
    out[2::2] = amp * sums[1:n_sin + 1].imag / n
    return out


def series_terms(coeffs: np.ndarray, basis: Basis, x) -> np.ndarray:
    """Per-model terms of the series with coefficients ``coeffs`` at ``x``.

    Row 0 is ``c_0/sqrt(a_max)`` and row ``j`` is ``Re(amp*(c_cos - i*c_sin)
    * e^{ij theta})``, with the phases of :func:`_phase_table`; every row is
    0 off the window.  Row ``m`` of the cumulative sum over rows is the series
    of model ``m``, bit-identical to that of ``coeffs[:2m+1]`` alone.
    """
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= basis.a_max)
    amp = np.sqrt(2.0 / basis.a_max)
    conj = np.zeros(len(coeffs) // 2 + 1, dtype=complex)
    conj.real[1:] = amp * coeffs[1::2]
    conj.imag[1:(len(coeffs) + 1) // 2] = -amp * coeffs[2::2]
    theta = 2.0 * np.pi * np.where(inside, x, 0.0) / basis.a_max
    low = np.empty((PHASE_BLOCK, len(x)), dtype=complex)
    step = np.empty(len(x), dtype=complex)
    _phase_table(theta, low, step)
    high = np.ones(len(x), dtype=complex)
    terms = np.empty((len(conj), len(x)))
    for start in range(0, len(conj), PHASE_BLOCK):
        if start:
            high *= step
        block = low[:len(conj) - start] * high
        block *= conj[start:start + PHASE_BLOCK, None]
        terms[start:start + PHASE_BLOCK] = block.real
    terms[0] = coeffs[0] / np.sqrt(basis.a_max)
    terms[:, ~inside] = 0.0
    return terms


def _phase_table(theta: np.ndarray, low: np.ndarray, step: np.ndarray) -> None:
    """Phases of the trigonometric recurrence at ``theta = 2*pi*x/a_max``.

    With ``j = a + PHASE_BLOCK*b``, ``e^{ij theta}`` is ``low[a]`` times the
    phase of block ``b``: 1, then times ``step = e^{i PHASE_BLOCK theta}``
    per block.  Only ``e^{i theta}`` comes from a cosine and a sine, and low
    row ``a`` is row ``a-1`` times it, so errors grow linearly in ``j``.
    """
    low[0] = 1.0
    np.cos(theta, out=low[1].real)
    np.sin(theta, out=low[1].imag)
    for a in range(2, PHASE_BLOCK):
        np.multiply(low[a - 1], low[1], out=low[a])
    np.multiply(low[-1], low[1], out=step)
