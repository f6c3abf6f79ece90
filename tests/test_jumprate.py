import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from oracles import (denominator_mask_oracle, design_oracle, oracle_dimension,
                     rate_at_model, risk_sweep_oracle, series_error_bound)
from pdmprate import (Basis, JumpChain, bacterial_model, denominator_grid,
                      make_grid, rate_grid, risk_sweep, select_model,
                      simulate_chain, tcp_model, tcp_quadratic_model,
                      threshold)
from pdmprate.basis import series_terms
from pdmprate.jumprate import _simpson_weights, grid_to_tsv
from pdmprate.model import CustomRate, Flow, JumpMap, Model, PowerRate


@pytest.fixture(scope="module")
def tcp_setup():
    model = tcp_model(kappa=0.5, c=1.0, lam=1.0, delta=0.0)
    chain = simulate_chain(model, 1.0, 10_000, 99)
    fit = select_model(chain.samples, Basis())
    ys = make_grid((0.2, 4.0))
    return model, chain, fit, ys


class TestThreshold:
    def test_value(self):
        assert threshold(100_000) == pytest.approx(1.0 / np.log(100_000))

    def test_too_small(self):
        from pdmprate import ChainTooShortError
        with pytest.raises(ChainTooShortError):
            threshold(8)


class TestDenominator:
    def test_single_transition(self):
        model = tcp_model(kappa=0.5, c=1.0)
        chain = JumpChain(z=np.array([1.0, 3.0]), model=model)
        # weight is 2, both indicators fire at y = 2
        assert denominator_grid(chain, [2.0])[0] == pytest.approx(2.0)

    def test_below_support(self):
        model = tcp_model(kappa=0.5, c=1.0)
        chain = JumpChain(z=np.array([1.0, 3.0]), model=model)
        assert denominator_grid(chain, [0.5])[0] == 0.0
        assert denominator_grid(chain, [-1.0])[0] == 0.0

    def test_reads_chain_model(self, tcp_setup):
        # the same states under another model: its flow, jump map and rate
        model, chain, fit, ys = tcp_setup
        other = Model(Flow("exponential", 2.0), JumpMap(0.25),
                      PowerRate(2.0, 1.0))
        rebuilt = JumpChain(chain.z, other)
        denom = denominator_grid(rebuilt, ys)
        assert np.array_equal(denom, denominator_mask_oracle(rebuilt, other, ys))
        assert not np.array_equal(denom, denominator_grid(chain, ys))
        rate_hat, nu_f, _ = rate_grid(fit, rebuilt, ys)
        assert np.array_equal(nu_f, fit.evaluate(other.jump.apply(ys)))
        fire = (nu_f >= 0.0) & (denom >= threshold(chain.n))
        assert np.array_equal(rate_hat, np.divide(
            nu_f, denom, out=np.zeros_like(nu_f), where=fire))
        np.testing.assert_allclose(risk_sweep(fit, rebuilt, ys),
                                   risk_sweep_oracle(fit, rebuilt, other, ys),
                                   rtol=1e-12, atol=0.0)

    def test_grid_matches_bruteforce(self, tcp_setup):
        model, chain, _, ys = tcp_setup
        grid_vals = denominator_grid(chain, ys[:50])
        for i, y in enumerate(ys[:50]):
            acc = 0.0
            for k in range(chain.n):
                if chain.z[k] <= y and chain.z[k + 1] >= model.jump.apply(y):
                    acc += model.transition_weight(model.jump.apply(y))
            assert grid_vals[i] == pytest.approx(acc / chain.n, rel=1e-12)

    def test_zero_beyond_max(self, tcp_setup):
        model, chain, _, _ = tcp_setup
        y_big = model.jump.invert(chain.z[1:].max()) * 1.01
        assert denominator_grid(chain, [y_big])[0] == 0.0

    def test_bacterial_weight_depends_on_grid_point(self):
        model = bacterial_model(c=1.0, delta=2.0)
        chain = simulate_chain(model, 1.0, 1000, 12)
        ys = np.array([0.8, 1.6])
        vals = denominator_grid(chain, ys)
        for i, y in enumerate(ys):
            fy = model.jump.apply(y)
            hits = np.sum((chain.z[:-1] <= y) & (chain.z[1:] >= fy))
            assert vals[i] == pytest.approx(hits / chain.n / fy, rel=1e-12)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 400),
           kappa=st.sampled_from([0.5, 0.2, 0.7, 1.0 / 3.0]),
           c=st.sampled_from([1.0, 2.5]), exponential=st.booleans(),
           consistent=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_mask_oracle(self, seed, n, kappa, c, exponential,
                                 consistent):
        # consistent chains (next >= kappa*prev) and arbitrary ones; grid
        # points below zero, equal to states, and with jump images equal to
        # next states
        rng = np.random.default_rng(seed)
        model = Model(Flow("exponential" if exponential else "additive", c),
                      JumpMap(kappa), PowerRate(1.0, 1.0))
        z = np.empty(n + 1)
        z[0] = rng.uniform(0.1, 3.0)
        for k in range(n):
            lo = model.jump.apply(z[k]) if consistent else 0.05
            z[k + 1] = lo + rng.exponential(1.0) * rng.integers(0, 2)
        ys = np.concatenate([rng.uniform(-0.5, 4.0, 20),
                             rng.choice(z, 10), rng.choice(z, 10) / kappa])
        # some next states placed exactly on jump images of grid points
        hits = rng.integers(1, n + 1, min(n, 5))
        z[hits] = model.jump.apply(rng.choice(ys[ys > 0], len(hits)))
        if consistent:
            for k in range(n):
                z[k + 1] = max(z[k + 1], model.jump.apply(z[k]))
        chain = JumpChain(z=z, model=model)
        assert np.array_equal(denominator_grid(chain, ys),
                              denominator_mask_oracle(chain, model, ys))

    @pytest.mark.parametrize("below", [False, True])
    def test_end_states_on_grid(self, below):
        # the previous states are z less z[n], the next states z less z[0]:
        # grid points on z[0] and z[n], and grid points whose jump images
        # are z[0] and z[n], meet both end corrections of the one sort
        model = tcp_model(kappa=0.5)
        z = simulate_chain(model, 1.0, 60, 4).z.copy()
        if below:
            z[10::7] *= 0.25    # next states below the jump image
        chain = JumpChain(z=z, model=model)
        ends = np.array([z[0], z[-1]])
        ys = np.concatenate([ends, model.jump.invert(ends),
                             np.linspace(0.1, 4.0, 9)])
        assert np.array_equal(model.jump.apply(ys[2:4]), ends)
        assert chain.model.below_support(z[:-1], z[1:]).any() == below
        assert np.array_equal(denominator_grid(chain, ys),
                              denominator_mask_oracle(chain, model, ys))

    def test_montecarlo_agreement(self):
        # long-chain value at y=1 vs an independent much longer run
        model = tcp_model(kappa=0.5, c=1.0, lam=1.0, delta=0.0)
        chain = simulate_chain(model, 1.0, 100_000, 60)
        big = simulate_chain(model, 1.0, 1_000_000, 61)
        d_small = denominator_grid(chain, [1.0])[0]
        d_big = denominator_grid(big, [1.0])[0]
        # summand is bounded by 2; 3 standard errors of the n=1e5 average
        se = 2.0 * 3.0 / np.sqrt(chain.n)
        assert abs(d_small - d_big) < 3 * se


class TestRateEstimate:
    def test_negativity_indicator(self, tcp_setup):
        model, chain, fit, ys = tcp_setup
        rate_hat, nu_f, denom = rate_grid(fit, chain, ys)
        neg = nu_f < 0
        assert np.all(rate_hat[neg] == 0.0)

    def test_threshold_indicator(self, tcp_setup):
        model, chain, fit, ys = tcp_setup
        rate_hat, nu_f, denom = rate_grid(fit, chain, ys)
        low = denom < threshold(chain.n)
        assert np.all(rate_hat[low] == 0.0)

    def test_quotient_arithmetic(self, tcp_setup):
        model, chain, fit, ys = tcp_setup
        rate_hat, nu_f, denom = rate_grid(fit, chain, ys)
        fire = (nu_f >= 0) & (denom >= threshold(chain.n))
        # division followed by multiplication costs at most a couple of ulps
        assert np.allclose(rate_hat[fire] * denom[fire], nu_f[fire],
                           rtol=1e-12, atol=0)

    def test_nonnegative_everywhere(self, tcp_setup):
        model, chain, fit, ys = tcp_setup
        rate_hat, _, _ = rate_grid(fit, chain, ys)
        assert np.all(rate_hat >= 0.0)

    def test_scalar_wrapper(self, tcp_setup):
        # a one-point grid gives the value of that point on the full grid
        model, chain, fit, ys = tcp_setup
        grid_val = rate_grid(fit, chain, ys)[0][0]
        one_point = rate_grid(fit, chain, ys[:1])[0][0]
        assert one_point == pytest.approx(grid_val)

    def test_threshold_zeroset_shrinks_with_n(self, tcp_setup):
        # same chain and denominator, lower threshold => fewer masked points
        model, chain, fit, ys = tcp_setup
        denom = denominator_grid(chain, ys)
        masked_small_n = denom < 1.0 / np.log(1000)
        masked_large_n = denom < 1.0 / np.log(100_000)
        assert np.all(masked_large_n <= masked_small_n)


class TestL2Risk:
    """The Simpson weights that integrate the squared error of the risk."""

    def test_constant_offset(self):
        ys = make_grid((0.2, 4.0))
        assert np.ones_like(ys) @ _simpson_weights(ys) == pytest.approx(3.8)

    def test_sine_quadrature(self):
        ys = make_grid((0.2, 4.0), 513)
        diff = np.sin(ys)
        # integral of sin^2 over [a, b]
        a, b = 0.2, 4.0
        exact = (b - a) / 2 - (np.sin(2 * b) - np.sin(2 * a)) / 4
        assert diff ** 2 @ _simpson_weights(ys) == pytest.approx(exact, abs=1e-8)

    @given(g=st.integers(1, 200).map(lambda k: 2 * k + 1),
           lo=st.floats(0.01, 5.0), width=st.floats(0.01, 20.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy_simpson(self, g, lo, width, seed):
        ys = make_grid((lo, lo + width), g)
        vals = np.random.default_rng(seed).normal(size=g)
        expected = integrate.simpson(vals ** 2, x=ys)
        assert vals ** 2 @ _simpson_weights(ys) == pytest.approx(expected,
                                                                 rel=1e-12)

    @pytest.mark.parametrize("ys", [np.linspace(0.2, 4.0, 4),
                                    np.linspace(0.2, 4.0, 1),
                                    np.array([0.2, 0.3, 4.0]),
                                    np.array([0.2, np.nan, 4.0])])
    def test_rejects_even_or_uneven_grid(self, ys):
        with pytest.raises(ValueError, match="odd equispaced"):
            _simpson_weights(ys)


class TestOracle:
    def test_self_match(self, tcp_setup):
        model, chain, fit, ys = tcp_setup
        m0 = max(0, fit.m_hat - 1)
        synth = rate_at_model(fit, chain, model, ys, m0)
        truth = CustomRate(lambda y: np.interp(y, ys, synth))
        # the risks are against the rate of the chain's own model
        scored = JumpChain(chain.z, Model(model.flow, model.jump, truth))
        m_opt, risk_opt = oracle_dimension(fit, scored, ys)
        assert m_opt == m0
        assert risk_opt == pytest.approx(0.0, abs=1e-18)

    def test_oracle_never_worse(self, tcp_setup):
        model, chain, fit, ys = tcp_setup
        risks = risk_sweep(fit, chain, ys)
        m_opt, risk_opt = oracle_dimension(fit, chain, ys)
        assert risk_opt <= risks[fit.m_hat]
        assert np.all(risk_opt <= risks + 1e-18)

    @given(family=st.sampled_from(["tcp", "bacterial", "quadratic"]),
           n=st.integers(9, 3000), seed=st.integers(0, 2 ** 32 - 1),
           lo=st.floats(0.01, 1.0), width=st.floats(0.5, 10.0),
           grid_points=st.sampled_from([3, 5, 33, 129]))
    @settings(max_examples=40, deadline=None)
    # both ends fall below the 1/ln(n) threshold here
    @example(family="tcp", n=400, seed=0, lo=0.02, width=7.98, grid_points=65)
    @example(family="bacterial", n=50, seed=2, lo=0.02, width=7.98,
             grid_points=65)
    def test_sweep_matches_oracle(self, family, n, seed, lo, width,
                                  grid_points):
        model = {"tcp": tcp_model(), "bacterial": bacterial_model(delta=1.0),
                 "quadratic": tcp_quadratic_model()}[family]
        chain = simulate_chain(model, 1.0, n, seed)
        fit = select_model(chain.samples, Basis())
        ys = make_grid((lo, lo + width), grid_points)
        risks = risk_sweep(fit, chain, ys)
        expected = risk_sweep_oracle(fit, chain, model, ys)
        assert risks.shape == (fit.m_max + 1,)
        np.testing.assert_allclose(risks, expected, rtol=1e-12, atol=0.0)

    def test_sweep_matches_individual_models(self, tcp_setup):
        model, chain, fit, ys = tcp_setup
        denom = denominator_grid(chain, ys)
        truth_vals = model.rate.rate(ys)
        risks = risk_sweep(fit, chain, ys, denom=denom)
        for m in (0, 2, fit.m_hat, fit.m_max):
            rate_hat = rate_at_model(fit, chain, model, ys, m, denom)
            risk = integrate.simpson((rate_hat - truth_vals) ** 2, x=ys)
            assert risks[m] == pytest.approx(risk, rel=1e-12)
        # rate_grid is the estimate of the selected model: its density is
        # row m_hat of the sweep's, bit for bit, and within the derived bound
        # of the design-matrix oracle (oracles.series_error_bound)
        rate_hat, nu_f, _ = rate_grid(fit, chain, ys, denom=denom)
        fy = model.jump.apply(ys)
        sweep = np.cumsum(series_terms(fit.coeffs, fit.basis, fy), axis=0)
        assert np.array_equal(nu_f, sweep[fit.m_hat])
        dim = fit.basis.dim(fit.m_hat)
        bound = series_error_bound(fit.coeffs[:dim], fit.basis)
        slow_nu = fit.coeffs[:dim] @ design_oracle(fit.basis, fy, dim)
        assert np.all(np.abs(nu_f - slow_nu) <= bound)
        # both quotients divide by the same denominator where it clears the
        # threshold, each rounding once; elsewhere both are 0
        slow = rate_at_model(fit, chain, model, ys, fit.m_hat, denom)
        tol = (bound / np.maximum(denom, threshold(chain.n))
               + np.finfo(float).eps * np.abs(slow))
        assert np.all(np.abs(rate_hat - slow) <= tol)

    @pytest.mark.parametrize("family", ["tcp", "bacterial", "quadratic"])
    @pytest.mark.parametrize("n, seed", [(400, 1), (5000, 2)])
    def test_rate_grid_density_is_sweep_row(self, family, n, seed):
        model = {"tcp": tcp_model(), "bacterial": bacterial_model(delta=1.0),
                 "quadratic": tcp_quadratic_model()}[family]
        chain = simulate_chain(model, 1.0, n, seed)
        fit = select_model(chain.samples, Basis())
        ys = make_grid((0.05, 4.0), 129)
        sweep = np.cumsum(series_terms(fit.coeffs, fit.basis,
                                       model.jump.apply(ys)), axis=0)
        assert np.array_equal(rate_grid(fit, chain, ys)[1],
                              sweep[fit.m_hat])


def _grid_to_tsv_per_value(ys, rate_hat, nu_f, denom, rate_true):
    """``grid_to_tsv`` as one f-string per value."""
    lines = ["y\tlambda_hat\tlambda_true\tnu_hat_of_f\td_hat"]
    for i in range(len(ys)):
        lines.append("\t".join([f"{ys[i]:.17g}", f"{rate_hat[i]:.17g}",
                                f"{rate_true[i]:.17g}", f"{nu_f[i]:.17g}",
                                f"{denom[i]:.17g}"]))
    return "\n".join(lines) + "\n"


class TestGridTsv:
    @given(g=st.integers(0, 40), seed=st.integers(0, 2 ** 32 - 1),
           special=st.lists(st.tuples(st.integers(0, 4),
                                      st.sampled_from([np.inf, -np.inf,
                                                       np.nan, -0.0, 0.0,
                                                       5e-324, 1e308])),
                            max_size=10))
    @settings(max_examples=40, deadline=None)
    @example(g=3, seed=0, special=[(1, np.inf), (3, np.nan), (4, -0.0)])
    def test_matches_per_value_format(self, g, seed, special):
        rng = np.random.default_rng(seed)
        cols = rng.normal(size=(5, g)) * 10.0 ** rng.integers(-300, 300,
                                                              (5, g))
        if g:
            for col, value in special:
                cols[col, rng.integers(g)] = value
        assert grid_to_tsv(*cols) == _grid_to_tsv_per_value(*cols)

    def test_columns(self, tcp_setup):
        model, chain, fit, ys = tcp_setup
        rate_hat, nu_f, denom = rate_grid(fit, chain, ys)
        text = grid_to_tsv(ys, rate_hat, nu_f, denom,
                           rate_true=model.rate.rate(ys))
        lines = text.strip().split("\n")
        assert lines[0] == "y\tlambda_hat\tlambda_true\tnu_hat_of_f\td_hat"
        assert len(lines) == 1 + len(ys)
        first = [float(v) for v in lines[1].split("\t")]
        assert first[0] == ys[0]
