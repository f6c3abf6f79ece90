import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from oracles import (advance, chain_draws, generic_draw_oracle,
                     simulate_chain_oracle)
from pdmprate import (CapExceededError, ChainFormatError, ConfigError,
                      FamilyMismatchError, GenericSampler,
                      InconsistentChainError, JumpChain,
                      StateRangeError, bacterial_model,
                      chain_from_text, chain_to_text, reconstruct_times,
                      sample_next, sample_next_generic,
                      sample_next_tcp_quadratic, simulate_chain, tcp_model,
                      tcp_quadratic_model)
from pdmprate.model import (CustomRate, Flow, JumpMap, Model, PowerRate,
                            ShiftedQuadraticRate)


class TestTcpPowerSampler:
    def test_paper_substitution(self):
        m = tcp_model(kappa=0.5, c=1.0, lam=1.0, delta=0.0)
        assert sample_next(m, 1.0, 1.0) == pytest.approx(1.0)

    def test_zero_draw(self):
        m = tcp_model(kappa=0.3, c=2.0, lam=0.5, delta=1.0)
        assert sample_next(m, 2.5, 0.0) == pytest.approx(0.3 * 2.5)

    def test_against_root_finder(self):
        # solve cumulative(Z/kappa) = cumulative(z) + c*e numerically
        m = tcp_model(kappa=0.5, c=1.0, lam=2.0, delta=1.0)
        z, e = 2.0, 3.0
        target = m.rate.cumulative(z) + m.flow.c * e
        root = optimize.brentq(
            lambda v: m.rate.cumulative(v / m.jump.kappa) - target, 1e-9, 1e6)
        got = sample_next(m, z, e)
        assert got == pytest.approx(root, rel=1e-10)
        assert got == pytest.approx(np.sqrt(7.0) / 2.0, rel=1e-12)


class TestTcpQuadraticSampler:
    def test_zero_draw(self):
        m = tcp_quadratic_model(kappa=0.2, c=1.0, a=1.0, b=0.5)
        assert sample_next_tcp_quadratic(m, 1.0, 0.0) == pytest.approx(0.2)

    def test_b_zero_cube(self):
        m = tcp_quadratic_model(kappa=0.5, c=1.0, a=1.0, b=0.0)
        # exact root: (Z/kappa - 1)^3 = 27
        assert sample_next_tcp_quadratic(m, 1.0, 9.0) == pytest.approx(2.0, rel=1e-12)

    @given(a=st.floats(0.2, 3.0), b=st.floats(0.0, 3.0),
           z=st.floats(0.05, 5.0), e=st.floats(0.0, 10.0))
    @settings(max_examples=300)
    def test_cubic_residual(self, a, b, z, e):
        kappa, c = 0.2, 1.0
        m = tcp_quadratic_model(kappa=kappa, c=c, a=a, b=b)
        out = sample_next_tcp_quadratic(m, z, e)
        t = out / kappa - a
        q = 3.0 * c * e + (z - a) ** 3 + 3.0 * b * (z - a)
        assert abs(t ** 3 + 3.0 * b * t - q) < 1e-9 * max(1.0, abs(q))

    def test_family_mismatch(self):
        with pytest.raises(FamilyMismatchError):
            sample_next_tcp_quadratic(bacterial_model(delta=2.0), 1.0, 1.0)


class TestBacterialSampler:
    def test_paper_substitution(self):
        m = bacterial_model(c=1.0, lam=1.0, delta=1.0)
        assert sample_next(m, 1.0, 1.0) == pytest.approx(1.0)

    def test_zero_draw(self):
        m = bacterial_model(c=1.0, lam=2.0, delta=2.0)
        assert sample_next(m, 3.0, 0.0) == pytest.approx(1.5)

    def test_against_survival_inversion(self):
        m = bacterial_model(c=1.0, lam=1.0, delta=2.0)
        z, e = 2.0, 6.0
        # survival S(y|z) = exp(-lam/(delta c) ((2y)^delta - z^delta));
        # invert S(y) = exp(-e)
        root = optimize.brentq(
            lambda y: (m.rate.lam / (m.rate.delta * m.flow.c))
            * ((2 * y) ** m.rate.delta - z ** m.rate.delta) - e, z / 2, 100.0)
        got = sample_next(m, z, e)
        assert got == pytest.approx(root, rel=1e-10)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_any_kappa_against_survival_inversion(self):
        # survival S(y|z) = exp(-lam/(delta c) ((y/kappa)^delta - z^delta))
        kappa, c, lam, delta = 0.3, 2.0, 1.5, 1.5
        m = Model(Flow("exponential", c), JumpMap(kappa), PowerRate(lam, delta))
        z, e = 1.2, 0.7
        root = optimize.brentq(
            lambda y: lam / (delta * c) * ((y / kappa) ** delta - z ** delta)
            - e, kappa * z, 100.0)
        assert sample_next(m, z, e) == \
            pytest.approx(root, rel=1e-10)


MC_GENERIC = Model(Flow("exponential", 2.0), JumpMap(0.5),
                   ShiftedQuadraticRate(1.0, 0.5))

# CustomRates for the numeric sampler, with the states where they have a kink
GENERIC_RATES = {
    "smooth": (lambda x: 0.5 + x * x / (1.0 + x), ()),
    "kink": (lambda x: max(x - 1.0, 0.0) + 0.1, (1.0,)),
    "steep": (lambda x: math.exp(3.0 * x), ()),
}


def generic_case(kind, kappa, delta):
    """A model for the numeric sampler, and the states where its rate has a kink."""
    if kind == "mc_generic":
        return MC_GENERIC, ()
    if kind == "power":
        # exponential flow with delta <= 0: no closed-form chain
        return Model(Flow("exponential", 1.5), JumpMap(kappa),
                     PowerRate(1.2, delta)), ()
    rate, kinks = GENERIC_RATES[kind]
    return Model(Flow("additive", 1.0), JumpMap(kappa), CustomRate(rate)), kinks


class TestGenericSampler:
    def test_matches_tcp_analytic_single(self):
        m = tcp_model(kappa=0.5, c=1.0, lam=1.0, delta=0.0)
        assert sample_next_generic(m, 1.0, 1.0) == pytest.approx(1.0, rel=1e-9)

    def test_zero_draw(self):
        m = tcp_model(kappa=0.5)
        assert sample_next_generic(m, 3.0, 0.0) == pytest.approx(1.5)

    def test_monotone_in_draw(self):
        m = bacterial_model(delta=2.0)
        gs = GenericSampler(m, 1.0)
        draws = [gs.draw(e) for e in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(a < b for a, b in zip(draws, draws[1:]))

    def test_cap_exceeded(self):
        # a rate that dies off: hazard integral converges, cannot reach e
        m = Model(Flow("additive", 1.0), JumpMap(0.5), CustomRate(
            rate_fn=lambda x: np.exp(-np.asarray(x) * 5.0)))
        with pytest.raises(CapExceededError):
            GenericSampler(m, 1.0).draw(10.0)

    @pytest.mark.parametrize("model, z", [
        (tcp_model(delta=200.0), 40.0),
        (Model(Flow("exponential", 1.0), JumpMap(0.5),
               ShiftedQuadraticRate(1.0, 0.5)), 1e160),
    ])
    def test_hazard_overflow_raises_state_range(self, model, z):
        # the float integrand overflows on the way to the root
        with pytest.raises(StateRangeError, match="overflows"):
            sample_next_generic(model, z, 1.0)
        with pytest.raises(StateRangeError, match="overflows"):
            GenericSampler(model, z).draw(1.0)

    def test_hazard_overflow_names_transition(self):
        m = Model(Flow("exponential", 1.0), JumpMap(0.5),
                  ShiftedQuadraticRate(1.0, 0.5))
        with pytest.raises(StateRangeError,
                           match="at transition 0: the hazard from z = 1e"):
            simulate_chain(m, 1e160, 3, 0)

    @pytest.mark.parametrize("z, e, error, field", [
        (math.inf, 1.0, ConfigError, "z"),
        (0.0, 1.0, ConfigError, "z"),
        (-1.0, 1.0, ConfigError, "z"),
        (math.nan, 1.0, ConfigError, "z"),
        (1.0, math.nan, ValueError, "e"),
        (1.0, -1.0, ValueError, "e"),
    ])
    def test_impossible_state_or_draw_rejected(self, z, e, error, field):
        with pytest.raises(error, match=f"^{field}: "):
            sample_next_generic(MC_GENERIC, z, e)

    def test_underflowing_jump_image_raises(self):
        m = Model(Flow("additive", 1.0), JumpMap(1e-300), PowerRate(1.0, -0.5))
        with pytest.raises(StateRangeError, match="jump image"):
            GenericSampler(m, 1e-30)

    @given(kind=st.sampled_from(["mc_generic", "power", "smooth", "kink",
                                 "steep"]),
           kappa=st.floats(0.05, 0.95), delta=st.floats(-0.95, 0.0),
           z=st.floats(0.05, 20.0), e=st.floats(0.0, 8.0))
    # a draw far below one ulp of the hazard, from a panel edge
    @example(kind="mc_generic", kappa=0.5, delta=0.0, z=1.0, e=1e-115)
    @settings(max_examples=150, deadline=None)
    def test_matches_quadrature_oracle(self, kind, kappa, delta, z, e):
        model, kinks = generic_case(kind, kappa, delta)
        try:
            want = generic_draw_oracle(model, z, e, kinks)
        except CapExceededError:
            with pytest.raises(CapExceededError):
                GenericSampler(model, z).draw(e)
            return
        # leave out roots so ill-conditioned that a relative error of eps in
        # the hazard moves them by more than 1e3 eps
        slope = want * model.rate.rate(want / model.jump.kappa) \
            * model.transition_weight(want)
        assume(e <= 1e3 * slope)
        assert GenericSampler(model, z).draw(e) == pytest.approx(want,
                                                                 rel=1e-12)

    @pytest.mark.parametrize("model, z0", [
        (MC_GENERIC, 1.0),
        # the chain falls from far above, so the table grows downward
        (MC_GENERIC, 50.0),
        (Model(Flow("additive", 1.0), JumpMap(0.3),
               CustomRate(lambda x: max(x - 1.0, 0.0) + 0.1)), 1.0),
    ])
    def test_chain_matches_one_shot_loop(self, model, z0):
        n, seed = 400, 5
        draws = chain_draws(seed, n)
        want = np.empty(n + 1)
        want[0] = z0
        for k in range(n):
            want[k + 1] = sample_next_generic(model, want[k], draws[k])
        got = simulate_chain(model, z0, n, seed).z
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("beyond", [False, True])
    def test_cap_is_exact(self, beyond):
        # constant hazard 1/(kappa*c) = 2 per unit: from z = 1, the root
        # 0.5 + e/2 reaches the cap 1000 at e = 1999
        gs = GenericSampler(tcp_model(kappa=0.5), 1.0)
        e = 1999.0 * (1.0 + (1e-10 if beyond else -1e-10))
        if beyond:
            with pytest.raises(CapExceededError):
                gs.draw(e)
        else:
            assert gs.draw(e) == pytest.approx(0.5 + e / 2.0, rel=1e-12)

    @pytest.mark.parametrize("rate, z0", [
        (lambda x: max(x - 1.0, 0.0) + 0.1, 1.0),   # a kink at x = 1
        (lambda x: math.exp(-1.0 / x), 1e-3),       # underflows near 0
        # 1 + 3x with rounding noise far above CHEB_RTOL at x ~ 100
        (lambda x: (1.0 + x) ** 3 - x ** 3 - 3.0 * x * x, 100.0),
    ])
    def test_kinked_underflowing_and_noisy_chains_finish(self, rate, z0):
        model = Model(Flow("additive", 1.0), JumpMap(0.5), CustomRate(rate))
        start = time.perf_counter()
        chain = simulate_chain(model, z0, 200, 0)
        assert time.perf_counter() - start < 5.0
        assert np.all(np.isfinite(chain.z)) and chain.z[1:].min() > 0.0

    def test_ks_vs_analytic_bacterial(self):
        m = bacterial_model(c=1.0, lam=1.0, delta=2.0)
        rng = np.random.default_rng(11)
        es = rng.exponential(1.0, 2000)
        analytic = sample_next(m, 1.0, rng.exponential(1.0, 2000))
        gs = GenericSampler(m, 1.0)
        generic = np.array([gs.draw(e) for e in es])
        stat = stats.ks_2samp(analytic, generic).statistic
        assert stat < 0.05

    def test_ks_vs_analytic_exponential_flow_any_kappa(self):
        m = Model(Flow("exponential", 2.0), JumpMap(0.3), PowerRate(1.0, 1.5))
        rng = np.random.default_rng(12)
        analytic = sample_next(m, np.full(2000, 1.0),
                               rng.exponential(1.0, 2000))
        gs = GenericSampler(m, 1.0)
        generic = np.array([gs.draw(e) for e in rng.exponential(1.0, 2000)])
        assert stats.ks_2samp(analytic, generic).statistic < 0.05


def power_model(exponential, kappa, c, lam, delta):
    flow = Flow("exponential" if exponential else "additive", c)
    return Model(flow, JumpMap(kappa), PowerRate(lam, delta))


# Chain lengths of one and two transitions and lengths on both sides of powers
# of two, for the doubling scan of the power chain; the long-chain test adds
# one past 2**16.
CHAIN_LENGTHS = st.sampled_from([1, 2, 3, 5, 31, 64, 100, 1000, 1025, 3000])


class TestChainKernels:
    """``simulate_chain`` against the per-step loop in ``tests/oracles.py``."""

    @given(exponential=st.booleans(), kappa=st.floats(0.05, 0.95),
           c=st.floats(0.5, 2.0), lam=st.floats(0.5, 2.0),
           delta=st.floats(0.0, 50.0), z0=st.floats(0.1, 3.0),
           n=CHAIN_LENGTHS, seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_power_matches_step_loop(self, exponential, kappa, c, lam, delta,
                                     z0, n, seed):
        # the loop's own roundings are amplified by 1/p in z = w**(1/p); with
        # p = delta >= 0.5 they stay below the tolerance
        if exponential:
            delta = max(delta, 0.5)
        m = power_model(exponential, kappa, c, lam, delta)
        fast = simulate_chain(m, z0, n, seed).z
        slow = simulate_chain_oracle(m, z0, n, seed)
        np.testing.assert_allclose(fast, slow, rtol=1e-13, atol=0)

    @given(kappa=st.floats(0.05, 0.95), c=st.floats(0.5, 2.0),
           a=st.floats(0.2, 3.0), b=st.floats(0.0, 3.0),
           z0=st.floats(0.1, 3.0), n=CHAIN_LENGTHS,
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_quadratic_matches_step_loop(self, kappa, c, a, b, z0, n, seed):
        # a state is kappa*(a + t) with t the cubic's root; when the pre-jump
        # state is far below a, t is close to -a and the sum cancels, so one
        # ulp of a in t (the two kernels' cube roots differ by that much) is
        # an absolute error of order kappa*a*eps in the state
        m = tcp_quadratic_model(kappa=kappa, c=c, a=a, b=b)
        fast = simulate_chain(m, z0, n, seed).z
        slow = simulate_chain_oracle(m, z0, n, seed)
        np.testing.assert_allclose(fast, slow, rtol=1e-13,
                                   atol=1e-13 * kappa * a)

    @pytest.mark.parametrize("model", [
        tcp_model(kappa=0.9, delta=1.0),
        power_model(True, 0.3, 2.0, 1.0, 1.5),
        tcp_quadratic_model(),
    ], ids=["tcp", "exponential", "quadratic"])
    def test_long_chain_matches_step_loop(self, model):
        n = 2 ** 16 + 3
        np.testing.assert_allclose(simulate_chain(model, 1.0, n, 4).z,
                                   simulate_chain_oracle(model, 1.0, n, 4),
                                   rtol=1e-13, atol=0)

    def test_overflow_names_first_transition(self):
        with pytest.raises(StateRangeError, match="at transition 0:"):
            simulate_chain(tcp_model(delta=200.0), 40.0, 50, 0)

    def test_overflow_midway_names_first_transition(self):
        # with lam = 1e-308 the states are 1e308 times those of the lam = 1
        # chain from the same draws, so the first state past the largest
        # double is known from the unscaled chain
        unscaled = simulate_chain(tcp_model(), 1e-300, 200, 6).z
        first = int(np.argmax(unscaled > np.finfo(float).max / 1e308))
        assert first > 1
        with pytest.raises(StateRangeError,
                           match=f"at transition {first - 1}:"):
            simulate_chain(tcp_model(lam=1e-308), 1e-300 * 1e308, 200, 6)

    def test_underflowing_recursion_factor_raises(self):
        # kappa**p = 0.5**1101 is below the smallest double; a scan with it
        # would emit zero states
        with pytest.raises(StateRangeError, match="underflows"):
            simulate_chain(tcp_model(delta=1100.0), 1.0, 10, 0)

    @pytest.mark.parametrize("c, z0", [(1e306, 1.0), (1.0, 1e103)])
    def test_quadratic_overflow_raises(self, c, z0):
        m = tcp_quadratic_model(c=c)
        with pytest.raises(StateRangeError, match="at transition 0:"):
            simulate_chain(m, z0, 5, 0)


class TestSimulateChain:
    def test_deterministic_replay(self):
        m = tcp_model()
        c1 = simulate_chain(m, 1.0, 200, 123)
        c2 = simulate_chain(m, 1.0, 200, 123)
        assert np.array_equal(c1.z, c2.z)

    def test_single_step(self):
        m = tcp_model()
        chain = simulate_chain(m, 1.0, 1, 5)
        assert len(chain.z) == 2
        assert chain.z[1] == sample_next(m, 1.0, chain_draws(5, 1)[0])

    def test_seed_changes_chain(self):
        m = tcp_model()
        assert not np.array_equal(simulate_chain(m, 1.0, 50, 1).z,
                                  simulate_chain(m, 1.0, 50, 2).z)

    @pytest.mark.parametrize("z0, n, field", [
        (1.0, 0, "n"), (1.0, -4, "n"), (1.0, 2.5, "n"),
        (float("nan"), 10, "z0"), (0.0, 10, "z0"), (float("inf"), 10, "z0"),
    ])
    def test_bad_start_or_length_names_field(self, z0, n, field):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            simulate_chain(tcp_model(), z0, n, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", [1, 2]])
    def test_bad_seed_names_field(self, seed):
        with pytest.raises(ConfigError, match="^seed: "):
            simulate_chain(tcp_model(), 1.0, 5, seed)

    def test_stationary_mean(self):
        # stationary mean of the kappa=1/2, c=1, constant-rate chain is
        # c*kappa/(1-kappa) = 1; variance of the sample mean accounts for
        # the geometric autocorrelation kappa^k
        m = tcp_model(kappa=0.5, c=1.0, lam=1.0, delta=0.0)
        n = 100_000
        chain = simulate_chain(m, 1.0, n, 2024)
        var = 0.25 / (1 - 0.25)
        se = np.sqrt(var * (1 + 0.5) / (1 - 0.5) / n)
        assert abs(chain.samples.mean() - 1.0) < 3 * se

    def test_positive_states(self):
        for m in (tcp_model(), bacterial_model(delta=2.0),
                  tcp_quadratic_model()):
            chain = simulate_chain(m, 1.0, 500, 9)
            assert np.all(chain.z > 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_chain_rejects_non_finite_and_non_positive(self, bad):
        with pytest.raises(InconsistentChainError, match=r"z\[1\]"):
            JumpChain(z=np.array([1.0, bad, 2.0]), model=tcp_model())

    @given(z=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                      min_size=1, max_size=20))
    def test_chain_accepts_exactly_finite_positive(self, z):
        z = np.array(z)
        ok = bool(np.all(np.isfinite(z) & (z > 0)))
        try:
            JumpChain(z=z, model=tcp_model())
        except InconsistentChainError:
            assert not ok
        else:
            assert ok


class TestReconstructTimes:
    def test_tcp_direct_formula(self):
        m = tcp_model(kappa=0.5, c=1.0)
        chain = simulate_chain(m, 1.0, 1, 0)
        chain = chain.__class__(z=np.array([1.0, 1.0]), model=m)
        times = reconstruct_times(chain)
        assert times[0] == pytest.approx(1.0)

    def test_bacterial_direct_formula(self):
        m = bacterial_model(c=1.0, delta=2.0)
        chain = simulate_chain(m, 2.0, 1, 0)
        chain = chain.__class__(z=np.array([2.0, 2.0]), model=m)
        assert reconstruct_times(chain)[0] == pytest.approx(np.log(2.0))

    def test_roundtrip_matches_draws(self):
        # jump-time increments along the flow must reproduce the recorded
        # exponential draws through the cumulative hazard
        m = tcp_model(kappa=0.5, c=1.0, lam=1.0, delta=0.0)
        chain = simulate_chain(m, 1.0, 200, 77)
        draws = chain_draws(77, chain.n)
        times = reconstruct_times(chain)
        gaps = np.diff(np.concatenate([[0.0], times]))
        for k in range(chain.n):
            z_prev = chain.z[k]
            # hazard accumulated along the flow over the gap equals the draw
            upper = advance(m.flow, z_prev, gaps[k])
            acc = (m.rate.cumulative(upper) - m.rate.cumulative(z_prev)) / m.flow.c
            assert acc == pytest.approx(draws[k], rel=1e-10, abs=1e-12)

    def test_strictly_increasing(self):
        m = bacterial_model(delta=2.0)
        chain = simulate_chain(m, 1.0, 300, 3)
        times = reconstruct_times(chain)
        assert np.all(np.diff(times) > 0)

    def test_state_rounded_below_jump_image(self):
        # z[1] is one ulp below kappa*z[0] = 10, inside the support tolerance
        chain = simulate_chain(tcp_model(delta=20.0), 20.0, 5, 0)
        assert chain.z[1] < chain.model.jump.apply(chain.z[0])
        times = reconstruct_times(chain)
        assert np.all(np.isfinite(times))
        assert np.all(np.diff(times) >= 0) and times[0] >= 0

    def test_state_rounded_below_jump_image_roundtrip(self):
        chain = simulate_chain(tcp_model(delta=20.0), 20.0, 5, 0)
        text = chain_to_text(chain, include_times=True)
        back = chain_from_text(text, chain.model)
        assert np.array_equal(back.z, chain.z)
        assert np.array_equal(reconstruct_times(back),
                              reconstruct_times(chain))

    def test_inconsistent_chain(self):
        m = tcp_model(kappa=0.5)
        chain = simulate_chain(m, 1.0, 1, 0)
        bad = chain.__class__(z=np.array([10.0, 1.0]), model=m)
        with pytest.raises(InconsistentChainError):
            reconstruct_times(bad)


class TestSurvivalIdentity:
    @pytest.mark.parametrize("model,survival", [
        (tcp_model(kappa=0.5, c=1.0, lam=1.0, delta=0.0),
         lambda m, x, y: np.exp(-(m.rate.cumulative(y / m.jump.kappa)
                                  - m.rate.cumulative(x)) / m.flow.c)),
        (bacterial_model(c=1.0, lam=1.0, delta=2.0),
         lambda m, x, y: np.exp(-(m.rate.lam / (m.rate.delta * m.flow.c))
                                * ((2 * y) ** m.rate.delta - x ** m.rate.delta))),
    ])
    def test_empirical_survival(self, model, survival):
        x, n = 1.0, 20_000
        rng = np.random.default_rng(5)
        draws = sample_next(model, np.full(n, x), rng.exponential(1.0, n))
        lo = model.jump.apply(x)
        ys = np.linspace(lo * 1.01, np.quantile(draws, 0.98), 20)
        for y in ys:
            p = survival(model, x, y)
            emp = np.mean(draws >= y)
            se = np.sqrt(p * (1 - p) / n)
            assert abs(emp - p) < max(3 * se, 1e-3)


class TestSerialization:
    def test_roundtrip_bits(self):
        m = tcp_model()
        chain = simulate_chain(m, 1.0, 100, 42)
        text = chain_to_text(chain)
        back = chain_from_text(text, m)
        assert np.array_equal(back.z, chain.z)

    def test_roundtrip_with_times(self):
        m = bacterial_model(delta=2.0)
        chain = simulate_chain(m, 1.0, 50, 8)
        text = chain_to_text(chain, include_times=True)
        back = chain_from_text(text, m)
        assert np.array_equal(back.z, chain.z)

    @pytest.mark.parametrize("times", [False, True])
    def test_blank_and_comment_lines_in_body(self, times):
        # such lines make the fast reader fail; the exact reader skips them
        m = bacterial_model(delta=2.0)
        chain = simulate_chain(m, 1.0, 30, 9)
        lines = chain_to_text(chain, include_times=times).splitlines()
        lines[10:10] = ["", "   ", "# note"]
        back = chain_from_text("\n".join(lines), m)
        assert np.array_equal(back.z, chain.z)

    def test_single_state(self):
        back = chain_from_text("# columns: z\n1.5\n", tcp_model())
        assert np.array_equal(back.z, [1.5])

    @pytest.mark.parametrize("bad_line, lineno", [
        ("0.7x", 6),            # not a number
        ("0.7\t1.0\t2.0", 6),   # too many columns
        ("0.7\t1.0", 6),        # time column in a file without times
    ])
    def test_malformed_line_named(self, bad_line, lineno):
        m = tcp_model()
        lines = chain_to_text(simulate_chain(m, 1.0, 5, 1)).splitlines()
        lines[lineno - 1] = bad_line
        with pytest.raises(ChainFormatError, match=f"line {lineno}:"):
            chain_from_text("\n".join(lines), m)

    def test_no_states_rejected(self):
        with pytest.raises(ChainFormatError, match="no data rows"):
            chain_from_text("# columns: z\n\n", tcp_model())

    def test_time_column_on_first_state_rejected(self):
        with pytest.raises(ChainFormatError, match="line 2:"):
            chain_from_text("# columns: z\tt\n1.0\t0.0\n0.8\t1.0\n", tcp_model())


class TestChainFileConsistency:
    """A chain file state below the jump image of the one before is rejected."""

    @given(family=st.sampled_from(["tcp", "exponential", "quadratic",
                                   "generic"]),
           kappa=st.floats(0.05, 0.95), n=st.integers(2, 40),
           times=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_simulated_accepted_shrunk_state_rejected(self, family, kappa, n,
                                                      times, seed, data):
        m = {"tcp": tcp_model(kappa=kappa, delta=1.0),
             "exponential": power_model(True, kappa, 2.0, 1.0, 1.5),
             "quadratic": tcp_quadratic_model(kappa=kappa),
             "generic": Model(Flow("exponential", 2.0), JumpMap(kappa),
                              ShiftedQuadraticRate(1.0, 0.5))}[family]
        chain = simulate_chain(m, 1.0, n, seed)
        lines = chain_to_text(chain, include_times=times).splitlines()
        assert np.array_equal(chain_from_text("\n".join(lines), m).z, chain.z)
        # z[k] is on line k + 4, after three header lines
        k = data.draw(st.integers(1, n))
        image = kappa * chain.z[k - 1]
        for z_k, ok in ((np.nextafter(image, 0.0), True),
                        (image * (1.0 - 1e-9), False)):
            edited = list(lines)
            edited[k + 3] = "\t".join([f"{z_k:.17g}"]
                                      + lines[k + 3].split("\t")[1:])
            if ok:
                chain_from_text("\n".join(edited), m)
            else:
                with pytest.raises(InconsistentChainError,
                                   match=f"chain line {k + 4}: z\\[{k}\\]"):
                    chain_from_text("\n".join(edited), m)

    def test_line_named_past_comment_lines(self):
        # blank and comment lines send the parse through the exact reader;
        # the line number still counts them
        m = tcp_model()
        lines = chain_to_text(simulate_chain(m, 1.0, 10, 3)).splitlines()
        lines[8] = f"{0.4 * float(lines[7]):.17g}"    # z[5] on line 9
        lines[5:5] = ["", "# note"]
        with pytest.raises(InconsistentChainError,
                           match=r"chain line 11: z\[5\]"):
            chain_from_text("\n".join(lines), m)
