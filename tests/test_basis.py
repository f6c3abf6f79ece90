import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from oracles import design_means_oracle, eval_one
from pdmprate import Basis, EmptyModelSetError, coefficients, select_model
from pdmprate.basis import SAMPLE_CHUNK, design_means


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
        design = b.design(xs, 9)
        for l in range(1, 10):
            assert np.array_equal(design[l - 1], eval_one(b, l, xs))

    def test_gram_identity(self):
        # 2048-interval composite Simpson of the Gram matrix
        b = Basis(a_max=6.0)
        dim = 63
        xs = np.linspace(0, 6, 2049)
        design = b.design(xs, dim)
        gram = np.array([[integrate.simpson(design[i] * design[j], x=xs)
                          for j in range(dim)] for i in range(dim)])
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-8

    def test_norm_connection(self):
        # sup of the squared-sum over a fine grid is D_m / a_max
        b = Basis(a_max=6.0)
        xs = np.linspace(0, 6, 10_000)
        for m in (0, 1, 3, 10):
            dim = b.dim(m)
            total = (b.design(xs, dim) ** 2).sum(axis=0)
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

    def test_bad_index(self):
        with pytest.raises(ValueError):
            eval_one(Basis(), 0, 1.0)


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
        rng = np.random.default_rng(seed)
        samples = rng.uniform(-0.5, a_max + 0.5, n)
        where = {"zero": 0.0, "edge": a_max, "below": -1e-9,
                 "above": a_max * (1 + 1e-15)}
        for name in special:
            samples[rng.integers(n)] = where[name]
        b = Basis(a_max=a_max)
        dim = b.dim(m)
        fast = design_means(samples, b, dim)
        slow = design_means_oracle(samples, b, dim)
        # Both kernels share theta = 2 pi x / a_max <= 2 pi.  The oracle rounds
        # the angle j*theta once, the fast kernel rounds a*theta and 16b*theta
        # (a + 16b = j): each angle is off by at most j*theta*eps/2 <= pi*j*eps,
        # so the two phases differ by at most 2 pi j eps.  On top of that come
        # the cosine and sine (one ulp each) and the complex product of the
        # two factors: at most 8 eps together.  Every sample's term therefore
        # differs by at most amp*eps*(2 pi j + 8), and so does their mean; the
        # 1e-15 floor and rtol cover the two summation orders.
        j = np.concatenate(([0], np.repeat(np.arange(1, dim // 2 + 1), 2)))
        eps = np.finfo(float).eps
        atol = np.sqrt(2.0 / a_max) * eps * (2.0 * np.pi * j + 8.0) + 1e-15
        err = np.abs(fast - slow)
        assert np.all(err <= 1e-12 * np.abs(slow) + atol), \
            (err - 1e-12 * np.abs(slow) - atol).max()

    def test_inadmissible_dimension(self):
        b = Basis()
        with pytest.raises(EmptyModelSetError):
            coefficients(np.ones(10), b, 2)  # D_2 = 5, 25 > 10
