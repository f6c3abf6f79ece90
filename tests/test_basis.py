import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from oracles import (coefficients, design_means_blocked, design_means_oracle,
                     design_oracle, eval_one, series_error_bound)
from pdmprate import Basis, EmptyModelSetError, select_model
from pdmprate.basis import (PHASE_BLOCK, SAMPLE_CHUNK, design_means,
                            series_terms)


class TestBasisFunctions:
    def test_constant_function(self):
        b = Basis()
        xs = np.linspace(0, 6, 7)
        assert np.allclose(eval_one(b, 1, xs), 1 / np.sqrt(6))

    def test_first_cosine_at_zero(self):
        b = Basis(a_max=6.0)
        assert eval_one(b, 2, 0.0) == pytest.approx(np.sqrt(1.0 / 3.0))

    def test_vanishes_off_window(self):
        b = Basis(a_max=6.0)
        for l in (1, 2, 3, 8):
            assert eval_one(b, l, -0.5) == 0.0
            assert eval_one(b, l, 6.5) == 0.0

    def test_design_consistent_with_eval_one(self):
        b = Basis(a_max=4.0)
        xs = np.linspace(-1, 5, 40)
        design = design_oracle(b, xs, 9)
        for l in range(1, 10):
            assert np.array_equal(design[l - 1], eval_one(b, l, xs))

    def test_gram_identity(self):
        # 2048-interval composite Simpson of the Gram matrix
        b = Basis(a_max=6.0)
        dim = 63
        xs = np.linspace(0, 6, 2049)
        design = design_oracle(b, xs, dim)
        gram = np.array([[integrate.simpson(design[i] * design[j], x=xs)
                          for j in range(dim)] for i in range(dim)])
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-8

    def test_norm_connection(self):
        # sup of the squared-sum over a fine grid is D_m / a_max
        b = Basis(a_max=6.0)
        xs = np.linspace(0, 6, 10_000)
        for m in (0, 1, 3, 10):
            dim = b.dim(m)
            total = (design_oracle(b, xs, dim) ** 2).sum(axis=0)
            assert total.max() <= (2.0 / 6.0) * dim + 1e-9

    def test_dimension_schedule(self):
        b = Basis()
        dims = [b.dim(m) for m in range(6)]
        assert dims == [1, 3, 5, 7, 9, 11]

    def test_max_model_index(self):
        b = Basis()
        assert b.max_model_index(9) == 1     # D_1 = 3, 9 <= 9
        assert b.max_model_index(8) == 0
        assert b.max_model_index(100) == 4   # D_4 = 9, 81 <= 100 < 121
        assert b.max_model_index(10_000) == 49
        with pytest.raises(EmptyModelSetError, match="n < 1"):
            b.max_model_index(0)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            eval_one(Basis(), 0, 1.0)

    @pytest.mark.parametrize("dim", [2, 4, 10])
    def test_even_dim_design_matches_eval_one(self, dim):
        # an even dimension ends on the cosine of frequency dim // 2
        b = Basis()
        xs = np.linspace(-1, 7, 60)
        design = design_oracle(b, xs, dim)
        assert design.shape == (dim, len(xs))
        for l in range(1, dim + 1):
            assert np.array_equal(design[l - 1], eval_one(b, l, xs)), l


class TestCoefficients:
    def test_point_mass(self):
        b = Basis(a_max=6.0)
        samples = np.full(100, 2.5)
        coeffs = coefficients(samples, b, 0)
        assert coeffs[0] == pytest.approx(1 / np.sqrt(6))

    def test_off_window_mass(self):
        b = Basis(a_max=6.0)
        samples = np.full(100, 10.0)
        assert np.all(coefficients(samples, b, 2) == 0.0)

    def test_matches_bruteforce_longdouble(self):
        b = Basis(a_max=6.0)
        rng = np.random.default_rng(3)
        samples = rng.uniform(0, 8, 500)
        coeffs = coefficients(samples, b, 5)
        for l in range(1, b.dim(5) + 1):
            acc = np.longdouble(0.0)
            for x in samples:
                acc += np.longdouble(eval_one(b, l, float(x)))
            assert coeffs[l - 1] == pytest.approx(float(acc / len(samples)),
                                                  abs=1e-12)

    def test_prefix_nesting_exact(self):
        b = Basis()
        rng = np.random.default_rng(4)
        samples = rng.uniform(0, 6, 2000)
        small = coefficients(samples, b, 3)
        large = coefficients(samples, b, 12)
        assert np.array_equal(large[:len(small)], small)

    def test_prefix_nesting_across_blocks(self):
        # D_max = 99 spans several phase blocks; every prefix must be exact
        b = Basis()
        rng = np.random.default_rng(5)
        samples = rng.gamma(2.0, 1.0, 10_000)
        fit = select_model(samples, b)
        assert fit.m_max == 49
        for m in range(fit.m_max + 1):
            small = coefficients(samples, b, m)
            assert np.array_equal(fit.coeffs[:len(small)], small), m

    def test_prefix_nesting_beyond_six_blocks(self):
        # D up to 257 (more than 8 phase blocks of series_terms) over 4 sample
        # chunks, at n = 67,036 >= 257**2, so that every dimension is
        # admissible: the bins, the Taylor order and the chunks follow n
        # alone, and every prefix is exact
        b = Basis()
        rng = np.random.default_rng(6)
        samples = rng.uniform(-0.5, 6.5, 67_036)
        m_big = b.max_model_index(len(samples))
        assert m_big >= 8 * PHASE_BLOCK
        assert np.count_nonzero((samples >= 0) & (samples <= 6)) > 3 * SAMPLE_CHUNK
        big = design_means(samples, b, b.dim(m_big))
        for m in range(m_big):
            small = design_means(samples, b, b.dim(m))
            assert np.array_equal(big[:len(small)], small), m

    @given(n=st.integers(1, 3 * SAMPLE_CHUNK), m=st.integers(0, 40),
           a_max=st.sampled_from([6.0, 4.0, 2.5]),
           seed=st.integers(0, 2 ** 32 - 1),
           special=st.lists(st.sampled_from(["zero", "edge", "below", "above"]),
                            max_size=8))
    @settings(max_examples=60, deadline=None)
    # a lone sample at x = a_max: every sine is sin(2 pi j) = 0, so only the
    # absolute bound applies, and the error of each kernel there grows with j
    @example(n=1, m=17, a_max=6.0, seed=0, special=["edge"])
    @example(n=1, m=40, a_max=6.0, seed=0, special=["edge"])
    def test_matches_design_matrix_oracle(self, n, m, a_max, seed, special):
        # window ends and off-window points included; chunk boundaries crossed
        _check_against_oracle(*_oracle_case(n, m, a_max, seed, special))

    @given(n=st.integers(SAMPLE_CHUNK - 50, 2 * SAMPLE_CHUNK + 50),
           m=st.integers(499, 560), a_max=st.sampled_from([6.0, 2.5]),
           seed=st.integers(0, 2 ** 32 - 1),
           special=st.lists(st.sampled_from(["zero", "edge", "below", "above"]),
                            max_size=4))
    @settings(max_examples=8, deadline=None)
    @example(n=SAMPLE_CHUNK + 1, m=499, a_max=6.0, seed=1, special=["edge"])
    # few samples: the mean does not average the phase errors away
    @example(n=2, m=560, a_max=6.0, seed=3, special=[])
    def test_matches_design_matrix_oracle_high_dim(self, n, m, a_max, seed,
                                                   special):
        # D >= 999: the recurrence error is largest at the top frequencies
        _check_against_oracle(*_oracle_case(n, m, a_max, seed, special),
                              chunk=1024)

    @pytest.mark.parametrize("n", [100_000, 300_000])
    def test_matches_blocked_products_at_large_n(self, n):
        # select_model's dimension, over many chunks and 2,048 or 4,096 bins,
        # against the blocked phase products that design_means replaced
        b = Basis()
        samples = np.random.default_rng(n).gamma(2.0, 1.0, n)
        dim = b.dim(b.max_model_index(n))
        _check_against_oracle(samples, b, dim, oracle=design_means_blocked)

    # dim 32 needs frequency 16, the first of the second phase block
    @pytest.mark.parametrize("dim", [2, 4, 10, 32])
    def test_even_dim_matches_design_matrix_oracle(self, dim):
        samples = np.random.default_rng(0).uniform(0, 6, 1000)
        _check_against_oracle(samples, Basis(), dim)
        # and it is the prefix of the next odd dimension
        assert np.array_equal(design_means(samples, Basis(), dim + 1)[:dim],
                              design_means(samples, Basis(), dim))

    def test_inadmissible_dimension(self):
        b = Basis()
        with pytest.raises(EmptyModelSetError):
            coefficients(np.ones(10), b, 2)  # D_2 = 5, 25 > 10


class TestSeriesTerms:
    """The fitted series at points, from the phase table and block step."""

    @given(dim=st.integers(1, 999), a_max=st.floats(0.5, 20.0),
           g=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
           special=st.lists(st.sampled_from(["zero", "edge", "below",
                                             "above"]), max_size=6))
    @settings(max_examples=40, deadline=None)
    # at x = a_max every sine is sin(2 pi j) = 0 and only the bound applies
    @example(dim=999, a_max=6.0, g=3, seed=0, special=["edge", "zero"])
    @example(dim=32, a_max=6.0, g=5, seed=1, special=["below", "above"])
    def test_matches_design_matrix_oracle(self, dim, a_max, g, seed, special):
        # every model's series, points on, at and off the window; the bound
        # (k1*m + k2)*eps*amp*sum|c| with k1 = pi + 3.4 and k2 = 4 is derived
        # at oracles.series_error_bound
        b, x, coeffs = _series_case(dim, a_max, g, seed, special)
        sums = np.cumsum(series_terms(coeffs, b, x), axis=0)
        assert sums.shape == (dim // 2 + 1, g)
        design = design_oracle(b, x, dim)
        for m in range(len(sums)):
            d = min(b.dim(m), dim)
            err = np.abs(sums[m] - coeffs[:d] @ design[:d])
            assert np.all(err <= series_error_bound(coeffs[:d], b)), m
        # off the window every term is +0.0
        off = (x < 0.0) | (x > a_max)
        assert np.all(sums[:, off] == 0.0)
        assert not np.any(np.signbit(sums[:, off]))

    @given(dim=st.integers(1, 300), g=st.integers(1, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_prefix_series_bit_identical(self, dim, g, seed):
        # a model's series from its own coefficients is the matching row of
        # the sweep over all of them, bit for bit
        b, x, coeffs = _series_case(dim, 6.0, g, seed, ["edge", "below"])
        sums = np.cumsum(series_terms(coeffs, b, x), axis=0)
        for m in range(len(sums)):
            d = min(b.dim(m), dim)
            own = np.cumsum(series_terms(coeffs[:d], b, x), axis=0)[-1]
            assert np.array_equal(own, sums[m]), m


def _series_case(dim, a_max, g, seed, special):
    """Basis, points and decaying coefficients of one series comparison."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.5 * a_max, 1.5 * a_max, g)
    where = {"zero": 0.0, "edge": a_max, "below": -1e-9,
             "above": a_max * (1 + 1e-15)}
    for name in special:
        x[rng.integers(g)] = where[name]
    coeffs = rng.normal(size=dim) / (1.0 + np.arange(dim))
    return Basis(a_max=a_max), x, coeffs


def _oracle_case(n, m, a_max, seed, special):
    """Samples, basis and dimension D_m of one oracle comparison."""
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-0.5, a_max + 0.5, n)
    where = {"zero": 0.0, "edge": a_max, "below": -1e-9,
             "above": a_max * (1 + 1e-15)}
    for name in special:
        samples[rng.integers(n)] = where[name]
    b = Basis(a_max=a_max)
    return samples, b, b.dim(m)


def _check_against_oracle(samples, b, dim, chunk=16384,
                          oracle=design_means_oracle):
    a_max = b.a_max
    fast = design_means(samples, b, dim)
    slow = oracle(samples, b, dim, chunk=chunk)
    # Both kernels share theta = 2 pi x / a_max <= 2 pi; eps/2 is the unit
    # roundoff.  The oracle rounds the angle j*theta once, off by at most
    # j*theta*eps/2 <= pi*j*eps, then takes its cosine and sine (one ulp,
    # eps/2, each): its phase is off by at most (pi*j + 1)*eps.  The binned
    # kernel writes theta = 2 pi b/B + e, 2 pi split so that only e's last
    # subtraction rounds: j*e is off by at most j*(pi/B)*eps/2 <= 0.2*eps
    # (B >= 8j), and the Taylor series is cut at 2^-60.  With t_p the size
    # (j|e|)^p/p! of order p (sum below e^{pi/8} < 1.48, sum of p*t_p below
    # 0.58), e^p is off by (2p - 1)*eps/2, the factor (ij)^p/p! by 2p*eps/2
    # and their product by sqrt(5)*eps/2; the rfft takes each bin through
    # log2(B) levels of butterflies, each a twiddle (eps/2), its complex
    # multiply (sqrt(5)*eps/2) and an add (eps/2), so 2.12*log2(B)*eps
    # relative to the bins' total (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2002, sec. 24.1); and the sum over the P + 1
    # orders adds P*eps/2.  To first order a binned phase is thus off by at
    # most (3.2*log2(B) + 0.74*P + 3)*eps, and the two kernels' terms differ
    # by more than (2 pi j + 8)*eps, plus the floor below, for j below 8 to
    # 14 (B from 512 to 8192); the bound is kept unchanged there.  The
    # deviations seen stay under 45 % of it, at most 7.8*eps*amp for j <= 5,
    # since the rfft and the per-bin sums round far from their worst case.
    # The 1e-15 floor and rtol cover the summation orders (bins, chunks and
    # the oracle's sums).
    j = np.concatenate(([0], np.repeat(np.arange(1, dim // 2 + 1), 2)))[:dim]
    eps = np.finfo(float).eps
    atol = np.sqrt(2.0 / a_max) * eps * (2.0 * np.pi * j + 8.0) + 1e-15
    err = np.abs(fast - slow)
    assert np.all(err <= 1e-12 * np.abs(slow) + atol), \
        (err - 1e-12 * np.abs(slow) - atol).max()
