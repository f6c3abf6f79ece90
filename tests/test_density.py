import numpy as np
import pytest
from scipy import integrate

from oracles import fit_from_text, penalty
from pdmprate import (Basis, ChainTooShortError, contrast, select_model,
                      simulate_chain, tcp_model)
from pdmprate.density import fit_to_text


@pytest.fixture(scope="module")
def chain_samples():
    chain = simulate_chain(tcp_model(), 1.0, 5000, 314)
    return chain.samples


class TestContrast:
    def test_empty(self):
        assert contrast(np.array([])) == 0.0

    def test_two_coefficients(self):
        assert contrast(np.array([0.5, -0.5])) == pytest.approx(-0.5)

    def test_matches_direct_evaluation(self, chain_samples):
        # general form ||s||^2 - (2/n) sum s(Z_k) at the minimizer
        b = Basis()
        fit = select_model(chain_samples, b)
        m = fit.m_hat
        dim = b.dim(m)
        coeffs = fit.coeffs[:dim]
        values = coeffs @ b.design(chain_samples, dim)
        direct = float(np.sum(coeffs ** 2)) - 2.0 * values.mean()
        assert contrast(coeffs) == pytest.approx(direct, abs=1e-10)


class TestPenalty:
    def test_paper_value(self):
        # sigma=2, D_m = 21 (m = 10), n = 1e4
        assert penalty(10, 10_000, 2.0, 0.0) == pytest.approx(0.0042)

    def test_zero(self):
        assert penalty(0, 5, 0.0, 0.0) == 0.0

    def test_offset(self):
        assert penalty(2, 10, 3.0, 1.5) == pytest.approx(1.65)

    def test_select_model_penalties(self, chain_samples):
        fit = select_model(chain_samples, Basis(), sigma=3.0, sigma_prime=1.5)
        assert np.array_equal(fit.penalties, [penalty(m, fit.n, 3.0, 1.5)
                                              for m in range(fit.m_max + 1)])


class TestSelectModel:
    def test_too_short(self):
        with pytest.raises(ChainTooShortError):
            select_model(np.ones(8), Basis())

    def test_huge_penalty_selects_smallest(self):
        samples = np.full(100, 3.0)
        fit = select_model(samples, Basis(), sigma=1e9)
        assert fit.m_hat == 0

    def test_no_penalty_selects_largest(self, chain_samples):
        fit = select_model(chain_samples, Basis(), sigma=0.0, sigma_prime=0.0)
        assert fit.m_hat == fit.m_max

    def test_contrast_monotone(self, chain_samples):
        fit = select_model(chain_samples, Basis())
        assert np.all(np.diff(fit.contrasts) <= 0.0)

    def test_argmin_consistency(self, chain_samples):
        fit = select_model(chain_samples, Basis())
        crit = fit.contrasts + fit.penalties
        best = crit[fit.m_hat]
        assert np.all(best <= crit + 1e-15)

    def test_selected_dimension_shrinks_with_sigma(self, chain_samples):
        selected = [select_model(chain_samples, Basis(), sigma=s).m_hat
                    for s in (0.0, 0.5, 2.0, 8.0, 32.0)]
        assert all(a >= b for a, b in zip(selected, selected[1:]))

    def test_norm_identity(self, chain_samples):
        # L2 norm of the estimate equals the coefficient norm exactly
        fit = select_model(chain_samples, Basis())
        dim = fit.basis.dim(fit.m_hat)
        assert -contrast(fit.coeffs[:dim]) == pytest.approx(
            float(np.sum(fit.coeffs[:dim] ** 2)), abs=0.0)


class TestEvaluate:
    def test_zero_coefficients(self):
        b = Basis()
        fit = select_model(np.full(100, 10.0), b)  # all mass off-window
        xs = np.linspace(0, 6, 11)
        assert np.all(fit.evaluate(xs) == 0.0)

    def test_constant_term_only(self):
        samples = np.full(100, 2.0)
        fit = select_model(samples, Basis(), sigma=1e9)
        xs = np.linspace(0, 6, 5)
        assert fit.m_hat == 0
        assert np.allclose(fit.evaluate(xs), 1.0 / 6.0)

    def test_outside_window_zero(self, chain_samples):
        fit = select_model(chain_samples, Basis())
        assert np.array_equal(fit.evaluate([-1.0, 7.0]), [0.0, 0.0])

    def test_integral_equals_constant_coefficient(self, chain_samples):
        # only the constant basis function integrates to a nonzero value
        fit = select_model(chain_samples, Basis())
        xs = np.linspace(0, 6, 2049)
        vals = fit.evaluate(xs)
        total = integrate.simpson(vals, x=xs)
        assert total == pytest.approx(fit.coeffs[0] * np.sqrt(6), abs=1e-8)


class TestSerialization:
    def test_roundtrip(self, chain_samples):
        fit = select_model(chain_samples, Basis())
        back = fit_from_text(fit_to_text(fit))
        assert np.array_equal(back.coeffs, fit.coeffs)
        assert back.m_hat == fit.m_hat
        assert back.n == fit.n
        assert np.array_equal(back.contrasts, fit.contrasts)
        assert np.array_equal(back.penalties, fit.penalties)
