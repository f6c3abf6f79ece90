"""Trigonometric orthonormal system on the estimation window.

The nested subspaces have dimensions ``2m + 1``: the constant function plus
``m`` full cosine/sine pairs, orthonormal for the Lebesgue inner product on
``[0, a_max]``.  Functions vanish outside the window, so observations off the
window simply contribute zero to the empirical coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyModelSetError, positive, require

# Frequencies per block of the phase recurrence in series_terms.
PHASE_BLOCK = 16
# In-window samples binned at once by design_means, the bound on its Taylor
# truncation per sample, and 2*pi as a 31-bit head and the rest.
SAMPLE_CHUNK = 16384
TAYLOR_TOL = 2.0 ** -60
TWO_PI = (6.2831853069365025, 2.430840202602477e-10)


@dataclass(frozen=True)
class Basis:
    """Window ``[0, a_max]`` and the associated dimension schedule."""

    a_max: float = 6.0

    def __post_init__(self):
        positive("a_max", self.a_max)
        # the kernels form sqrt(2/a_max) and 2*pi*x/a_max for 0 <= x <= a_max
        a_max = float(self.a_max)
        require(max(2.0 / a_max, 2.0 * np.pi * a_max) < np.inf, "a_max",
                "must keep 2/a_max and 2*pi*a_max finite", self.a_max)

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


def design_means(samples: np.ndarray, basis: Basis, dim: int) -> np.ndarray:
    """Column means of the design matrix, by the Taylor-binned transform.

    With ``theta = 2 pi b/B + e`` at the nearest of ``B`` bin centres,
    ``e^{ij theta} = e^{2 pi i jb/B} sum_p (ij e)^p/p!`` (Anderson and Dahleh,
    SIAM J. Sci. Comput. 17(4), 1996).  Per order ``p``, bincounts sum
    ``e^p`` per bin, one conjugated rfft turns the bins into phase sums, and
    factors ``(ij)^p/p!`` combine the orders.  ``B`` (a power of two, at
    least ``8*top`` and 512) and ``P`` (truncation ``(top pi/B)^{P+1}/(P+1)!
    <= TAYLOR_TOL``) follow from ``top``, n's largest frequency or ``dim``'s,
    and chunks have a fixed size, so no admissible dimension changes a bit.
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    inside = samples[(samples >= 0.0) & (samples <= basis.a_max)]
    # frequencies 1..n_cos have a cosine entry, 1..n_sin a sine entry
    n_cos, n_sin = dim // 2, (dim - 1) // 2
    top = max(basis.max_model_index(n), n_cos)
    bins = max(512, 1 << (8 * top - 1).bit_length())
    order, bound = 0, top * np.pi / bins
    while bound > TAYLOR_TOL:
        order += 1
        bound *= top * np.pi / bins / (order + 1)
    powers = np.zeros((order + 1, bins))
    for start in range(0, len(inside), SAMPLE_CHUNK):
        theta = 2.0 * np.pi * inside[start:start + SAMPLE_CHUNK] / basis.a_max
        b = np.rint(theta * (bins / (2.0 * np.pi)))
        # b*TWO_PI[0]/bins (b < 2**22) and theta minus it are exact
        e = theta - b * (TWO_PI[0] / bins) - b * (TWO_PI[1] / bins)
        b = b.astype(np.intp) & (bins - 1)  # x = a_max wraps to bin 0
        powers[0] += np.bincount(b, minlength=bins)
        term = e
        for p in range(1, order + 1):
            powers[p] += np.bincount(b, term, bins)
            term = term * e
    # numpy imports np.fft on first use, not with the package
    phases = np.fft.rfft(powers, axis=1)[:, :top + 1].conj()
    taylor = np.empty_like(phases)
    taylor[0] = 1.0
    taylor[1:] = 1j * np.arange(top + 1) / np.arange(1, order + 1)[:, None]
    sums = (phases * np.cumprod(taylor, axis=0)).sum(axis=0)
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
