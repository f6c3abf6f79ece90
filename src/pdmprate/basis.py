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

    def design(self, x: np.ndarray, dim: int) -> np.ndarray:
        """Matrix of basis values, shape ``(dim, len(x))``."""
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= self.a_max)
        out = np.zeros((dim, len(x)))
        out[0] = np.where(inside, 1.0 / np.sqrt(self.a_max), 0.0)
        amp = np.sqrt(2.0 / self.a_max)
        theta = 2.0 * np.pi * x / self.a_max
        # an even dim ends on the cosine of frequency dim // 2
        for j in range(1, dim // 2 + 1):
            arg = j * theta
            out[2 * j - 1] = np.where(inside, amp * np.cos(arg), 0.0)
            if 2 * j < dim:
                out[2 * j] = np.where(inside, amp * np.sin(arg), 0.0)
        return out


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

    With ``theta = 2*pi*x/a_max`` and ``j = a + PHASE_BLOCK*b``, the phase
    ``e^{ij theta}`` factors into ``e^{ia theta} * e^{i PHASE_BLOCK b theta}``.
    Per chunk of in-window samples, a table ``low`` (``PHASE_BLOCK`` x chunk)
    of the low phases and a row ``high`` of the phases of block ``b`` give
    the phase sums of the frequencies in block ``b`` as ``low @ high``.  Only
    ``e^{i theta}`` is taken from a cosine and a sine; every other phase is
    one complex multiply away (a trigonometric recurrence): low row ``a`` is
    row ``a-1`` times ``e^{i theta}``, and ``high`` starts at 1 and is
    multiplied by ``step = e^{i PHASE_BLOCK theta}`` from block to block.
    Each rounding of a factor reaches the phase once per factor, so the
    error of ``e^{ij theta}`` grows linearly in ``j``.  Every block is a
    separate product of the same shape, and the phases are formed in the
    same order, whatever ``dim`` is, so the summation order of each entry,
    and with it the exact prefix nesting across dimensions, does not depend
    on ``dim``.  A single product over all blocks would not keep it: BLAS
    sums a one-column product in another order than a wider one.
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
        lo[0] = 1.0
        _phases(theta, lo[1])
        for a in range(2, PHASE_BLOCK):
            np.multiply(lo[a - 1], lo[1], out=lo[a])
        np.multiply(lo[-1], lo[1], out=st)
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


def _phases(arg: np.ndarray, out: np.ndarray) -> None:
    """Write ``e^{i arg}`` into ``out``, from one cosine and one sine per entry."""
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
