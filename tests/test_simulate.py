import decimal
import functools
import gc
import math
import os
import subprocess
import sys
import time
import warnings
import weakref
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from oracles import (advance, chain_draws, cumulative, decode_block_oracle,
                     generic_draw_oracle, perpetuity_cdf, perpetuity_density,
                     power_log_step_oracle, quadratic_increment_oracle,
                     quadratic_step_cardano, sample_next_generic,
                     simulate_chain_oracle, text_rows)
import pdmprate
import pdmprate.simulate as simulate
from pdmprate import (CapExceededError, ChainFormatError, ConfigError,
                      GenericSampler, InconsistentChainError, JumpChain,
                      StateRangeError, bacterial_model,
                      chain_from_text, chain_to_text, reconstruct_times,
                      sample_next, simulate_chain, tcp_model,
                      tcp_quadratic_model)
from pdmprate.model import (CustomRate, Flow, JumpMap, Model, PowerRate,
                            ShiftedQuadraticRate)
from pdmprate.numeric import (CAP_FACTOR, NEWTON_STEPS, _CAPPED_MAX,
                              _clenshaw, _fit_panel,
                              _generic_chain, _hold_at_jump_image, _invert,
                              _panel_edge, _panel_index, _scalar_integrand,
                              _store)
from pdmprate.simulate import (_BLOCK_STEPS, _BLOCKS, _block_chain, _cardano,
                               _cardano_loop, _cardano_terms, _family_kernel,
                               _power_chain, _quadratic_chain)


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
        target = cumulative(m.rate, z) + m.flow.c * e
        root = optimize.brentq(
            lambda v: cumulative(m.rate, v / m.jump.kappa) - target, 1e-9, 1e6)
        got = sample_next(m, z, e)
        assert got == pytest.approx(root, rel=1e-10)
        assert got == pytest.approx(np.sqrt(7.0) / 2.0, rel=1e-12)


class TestTcpQuadraticSampler:
    def test_zero_draw(self):
        m = tcp_quadratic_model(kappa=0.2, c=1.0, a=1.0, b=0.5)
        assert sample_next(m, 1.0, 0.0) == pytest.approx(0.2)

    def test_b_zero_cube(self):
        m = tcp_quadratic_model(kappa=0.5, c=1.0, a=1.0, b=0.0)
        # exact root: (Z/kappa - 1)^3 = 27
        assert sample_next(m, 1.0, 9.0) == pytest.approx(2.0, rel=1e-12)

    def test_b_zero_at_minimum_zero_draw(self):
        # q = b = 0 makes s = 0, and 2b^3/s is 0/0 unless the step guards it
        m = tcp_quadratic_model(kappa=0.3, c=1.0, a=1.3, b=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sample_next(m, 1.3, 0.0) == 0.3 * 1.3
            assert sample_next(m, np.array([1.3]), 0.0)[0] == 0.3 * 1.3

    @given(a=st.floats(0.2, 3.0), b=st.floats(0.0, 3.0),
           z=st.floats(0.05, 5.0), e=st.floats(0.0, 10.0))
    @settings(max_examples=300)
    def test_cubic_residual(self, a, b, z, e):
        kappa, c = 0.2, 1.0
        m = tcp_quadratic_model(kappa=kappa, c=c, a=a, b=b)
        out = sample_next(m, z, e)
        t = out / kappa - a
        q = 3.0 * c * e + (z - a) ** 3 + 3.0 * b * (z - a)
        assert abs(t ** 3 + 3.0 * b * t - q) < 1e-9 * max(1.0, abs(q))


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


def inverse_pieces(sampler, between=None):
    """The pieces of every inverse built in the tables the sampler reads, or
    only of the sub-panels holding the state ``between``."""
    return [piece for edges, _, _, inverses in sampler._stored.values()
            for a, b, inverse in zip(edges, edges[1:], inverses)
            if inverse is not None and (between is None or a < between < b)
            for piece in inverse[1]]


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


# The numeric chains held to the per-step loop: MC_GENERIC from within its
# range and from far above it, the three custom rates, a rate that vanishes
# at the jump image of 1, and two more exponential flows, the second with an
# integrand that changes by a factor of 2 across some sub-panels
CHAIN_MODELS = [
    (MC_GENERIC, 1.0),
    (MC_GENERIC, 50.0),
    *[(Model(Flow("additive", 1.0), JumpMap(kappa), CustomRate(rate)), 1.0)
      for kappa, (rate, _) in zip((0.5, 0.3, 0.5), GENERIC_RATES.values())],
    (Model(Flow("exponential", 2.0), JumpMap(0.5),
           ShiftedQuadraticRate(1.0, 0.0)), 1.0),
    (Model(Flow("exponential", 0.5), JumpMap(0.6),
           CustomRate(lambda x: 0.2 + x ** 1.5)), 1.0),
    (Model(Flow("exponential", 2.0), JumpMap(0.6),
           ShiftedQuadraticRate(2.0, 0.2)), 1.0),
]
CHAIN_IDS = ["mc_generic", "mc_generic_from_50", *GENERIC_RATES,
             "vanishing", "exponential_custom", "exponential_quadratic"]

# a chain from 1 that falls toward 1e-126 over 2500 transitions of seed 1
FALLING = Model(Flow("exponential", 1.0), JumpMap(0.7),
                ShiftedQuadraticRate(2.0, 1.0))


# one model of each sampler family: power under either flow, the Cardano
# step and numeric draws
BOUNDARY_MODELS = [tcp_model(), bacterial_model(delta=2.0),
                   tcp_quadratic_model(), MC_GENERIC]
BOUNDARY_IDS = ["power", "bacterial", "quadratic", "generic"]


class TestDrawCheck:
    """``sample_next`` rejects a negative or NaN draw whatever the family,
    with the message the numeric sampler gives."""

    @pytest.mark.parametrize("model", BOUNDARY_MODELS, ids=BOUNDARY_IDS)
    @pytest.mark.parametrize("e", [-5.0, math.nan])
    def test_rejects_bad_draw(self, model, e):
        with pytest.raises(ValueError, match="^e: ") as scalar:
            sample_next(model, 1.0, e)
        with pytest.raises(ValueError) as numeric:
            sample_next_generic(model, 1.0, e)
        assert str(scalar.value) == str(numeric.value)
        with pytest.raises(ValueError, match="^e: ") as array:
            sample_next(model, [1.0, 2.0, 3.0], [0.5, e, 1.0])
        assert str(array.value) == str(numeric.value)


class TestStateCheck:
    """``sample_next`` rejects a state that is not finite and positive
    whatever the family, with the message of ``GenericSampler``."""

    @pytest.mark.parametrize("model", BOUNDARY_MODELS, ids=BOUNDARY_IDS)
    @pytest.mark.parametrize("z", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_state(self, model, z):
        with pytest.raises(ConfigError) as sampler:
            GenericSampler(model, z)
        assert str(sampler.value).startswith("z: ")
        for args in ((z, 1.0), ([1.0, z, 2.0], [0.5, 1.0, 1.5]),
                     ([[2.0], [z]], [0.5, 1.0])):
            with pytest.raises(ConfigError) as got:
                sample_next(model, *args)
            assert str(got.value) == str(sampler.value)
        # the draw is checked first
        with pytest.raises(ValueError, match="^e: "):
            sample_next(model, [1.0, z], -1.0)


# sample_next against the first transition of simulate_chain, per family
FIRST_STEP_MODELS = {
    "tcp": tcp_model(),
    "tcp_p3.5": tcp_model(kappa=0.3, delta=2.5),
    "bacterial_sqrt": bacterial_model(delta=0.5),
    # z**201 overflows past z = 34.2, z**300 past 10.6
    "tcp_p201": tcp_model(delta=200.0),
    "bacterial_p300": bacterial_model(delta=300.0),
    # the draw factor r*p*c/lam is 7.6e351, though every state fits
    "tcp_factor_overflow": tcp_model(delta=500.0, c=1e200, lam=1e-300),
    "quadratic": tcp_quadratic_model(),
    "mc_generic": MC_GENERIC,
}


@pytest.mark.parametrize("model", FIRST_STEP_MODELS.values(),
                         ids=FIRST_STEP_MODELS)
def test_sample_next_is_the_chains_first_step(model):
    # a chain of one transition from each state, on its own seed, against
    # sample_next on that seed's draw: scalar calls and arrays of two shapes
    zs = np.geomspace(0.05, 50.0, 40)
    es = np.array([chain_draws(seed, 1)[0] for seed in range(len(zs))])
    first = np.array([simulate_chain(model, z, 1, seed).z[1]
                      for seed, z in enumerate(zs)])
    assert np.array_equal([sample_next(model, z, e) for z, e in zip(zs, es)],
                          first)
    assert np.array_equal(sample_next(model, zs, es), first)
    assert np.array_equal(sample_next(model, zs.reshape(5, 8),
                                      es.reshape(5, 8)), first.reshape(5, 8))


@pytest.mark.parametrize("model, z, e, k", [
    # b**3 overflows, which leaves a nan state
    (tcp_quadratic_model(b=1e300), 1.0, 1.0, 0),
    # c/lam = 1e310: the state is about 5e309*e, and 0*inf for e = 0
    (tcp_model(c=1e10, lam=1e-300), 1.0, 1.0, 0),
    (tcp_model(c=1e10, lam=1e-300), 1.0, 0.0, 0),
    # the draws' factor is 5e306, so a draw above 36 overflows
    (tcp_model(c=1e10, lam=1e-297), [1.0, 2.0, 3.0, 1.0],
     [1.0, 2.0, 40.0, 50.0], 2),
], ids=["cube_overflow", "factor_overflow", "zero_draw", "third_of_four"])
def test_sample_next_fails_where_the_chain_fails(model, z, e, k):
    # the chain fails on the first two at transition 0 too (TestChainKernels)
    with pytest.raises(StateRangeError, match=(
            f"^at transition {k}: next state (inf|nan) is not a finite")):
        sample_next(model, z, e)


# The models of test_model.py::TestFamilies, each with the sampler it takes
DISPATCH_MODELS = [
    (tcp_model(delta=-0.5), "power"),
    (tcp_model(delta=0.0), "power"),
    (tcp_model(delta=2.0), "power"),
    (bacterial_model(delta=0.5), "power"),
    (bacterial_model(delta=2.0), "power"),
    (Model(Flow("exponential", 1.0), JumpMap(0.5), PowerRate(1.0, 0.0)),
     "numeric"),
    (Model(Flow("exponential", 1.0), JumpMap(0.5), PowerRate(1.0, -0.5)),
     "numeric"),
    (tcp_quadratic_model(), "quadratic"),
    (Model(Flow("exponential", 1.0), JumpMap(0.5),
           ShiftedQuadraticRate(1.0, 0.5)), "numeric"),
    (Model(Flow("additive", 1.0), JumpMap(0.5), CustomRate(np.exp)),
     "numeric"),
]


@pytest.mark.parametrize("model, family", DISPATCH_MODELS)
def test_family_dispatch(model, family):
    # sample_next and simulate_chain take the family's kernel, and the chain
    # matches its oracle
    assert _family_kernel(model) is {"power": _power_chain,
                                     "quadratic": _quadratic_chain,
                                     "numeric": _generic_chain}[family]
    # the p = -0.5 model's hazard from z is finite, 2/sqrt(z) in all; from
    # 0.01 down it exceeds every draw.  Its states halve at each step, and
    # the quadrature oracle loses its accuracy below about 1e-6.
    z0, n, seed = 0.01, 12, 3
    got = simulate_chain(model, z0, n, seed).z
    assert sample_next(model, z0, chain_draws(seed, 1)[0]) == got[1]
    if family == "numeric":
        draws = chain_draws(seed, n)
        want = [generic_draw_oracle(model, got[k], draws[k]) for k in range(n)]
        np.testing.assert_allclose(got[1:], want, rtol=1e-12, atol=0)
    else:
        atol = 1e-13 * model.jump.kappa * model.rate.a \
            if family == "quadratic" else 0.0
        np.testing.assert_allclose(got, simulate_chain_oracle(model, z0, n,
                                                              seed),
                                   rtol=1e-13, atol=atol)


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

    def test_hazard_zero_at_and_below_jump_image(self):
        gs = GenericSampler(MC_GENERIC, 1.0)
        assert gs.hazard_to(gs.lo) == gs.hazard_to(0.5 * gs.lo) == 0.0
        assert gs.hazard_to(1.01 * gs.lo) > 0.0

    def test_newton_bisects_where_the_slope_vanishes(self):
        # the rate is 0 below x = 2: from z = 1, with jump image 0.5, the
        # hazard is flat up to y = 1 and 2*(y - 1)**2 past it, so a start
        # at 0.75 has no slope to step along
        m = Model(Flow("additive", 1.0), JumpMap(0.5),
                  CustomRate(lambda x: max(x - 2.0, 0.0)))
        gs = GenericSampler(m, 1.0)
        y, steps = gs._newton(1.0, 0.75, gs.lo, 4.0, math.inf, 1.0)
        assert y == pytest.approx(1.0 + math.sqrt(0.5), rel=1e-15)
        assert y == gs.draw(1.0)

    def test_newton_stops_after_its_step_limit(self):
        # a slope a million times too steep makes each step a millionth of
        # the way to the root: the loop ends at its limit, inside the
        # bracket.  The model is the test's own, and its table is fitted
        # before the slope changes, so no other sampler reads that table
        gs = GenericSampler(Model(Flow("additive", 1.0), JumpMap(0.5),
                                  CustomRate(lambda x: 1.0 + x)), 1.0)
        assert gs.hazard_to(4.0) > 1.0
        g = gs._integrand
        gs._integrand = lambda u: 1e6 * g(u)
        y, steps = gs._newton(1.0, 0.6, gs.lo, 4.0, math.inf, 1.0)
        assert steps == NEWTON_STEPS
        assert 0.6 < y < 0.61 and 0.0 < gs.hazard_to(y) < 1.0

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

    def test_subnormal_jump_image_raises(self):
        # 0.7 * 5e-324 rounds back to 5e-324; below the smallest normal
        # double the panel edges collapse, which ended in an IndexError
        m = Model(Flow("exponential", 1e300), JumpMap(0.7),
                  ShiftedQuadraticRate(1.0, 0.5))
        for z in (5e-324, 2e-308):
            with pytest.raises(StateRangeError,
                               match="below the smallest normal double"):
                simulate_chain(m, z, 5, 0)
            with pytest.raises(StateRangeError,
                               match="below the smallest normal double"):
                sample_next(m, z, 1.0)
        with pytest.raises(StateRangeError, match="jump image"):
            GenericSampler(m, 2.2250738585072014e-308 / 0.7 * 0.999)
        GenericSampler(m, 2.2250738585072014e-308 / 0.7 * 1.001)

    def test_subnormal_jump_image_message(self):
        # sample_next names the flat index of the failing draw; a chain's
        # start fails before any transition, so its message has no index
        # (the CLI prints it as it is)
        with pytest.raises(StateRangeError, match=(
                r"^at transition 1: the jump image of z = 5e-324 ")):
            sample_next(MC_GENERIC, [1.0, 5e-324], [1.0, 1.0])
        with pytest.raises(StateRangeError, match=(
                r"^the jump image of z = 5e-324 is below the smallest normal "
                r"double$")):
            simulate_chain(MC_GENERIC, 5e-324, 5, 0)

    def test_sampler_made_at_first_start(self):
        # a batch's one sampler is made at its first start, not at z = 1.0:
        # with kappa = 1e-310 the jump image of 1e300 is a normal double, so
        # the draw from it fails on its hazard, as a two-step chain does; and
        # a first start the sampler refuses fails as a chain's start does
        m = Model(Flow("exponential", 2.0), JumpMap(1e-310),
                  ShiftedQuadraticRate(1.0, 0.5))
        overflow = (r"^at transition 0: the hazard from z = 1e\+300 overflows "
                    r"double precision before reaching the draw$")
        for run in (lambda: sample_next(m, 1e300, 1.0),
                    lambda: simulate_chain(m, 1e300, 1, 0),
                    lambda: simulate_chain(m, 1e300, 2, 0)):
            with pytest.raises(StateRangeError, match=overflow):
                run()
        refused = (r"^the jump image of z = 5e-324 is below the smallest "
                   r"normal double$")
        for run in (lambda: simulate_chain(MC_GENERIC, 5e-324, 1, 0),
                    lambda: simulate_chain(MC_GENERIC, 5e-324, 2, 0),
                    lambda: sample_next(MC_GENERIC, [5e-324, 1.0], 1.0)):
            with pytest.raises(StateRangeError, match=refused):
                run()

    def test_overflowing_cap_is_no_cap(self):
        # CAP_FACTOR * z0 overflows: the chain's cap check used to raise a
        # RuntimeWarning, which warnings as errors made a traceback
        m = Model(Flow("exponential", 2.0), JumpMap(0.5),
                  ShiftedQuadraticRate(1.0, 0.5))
        with pytest.raises(StateRangeError, match="overflows double"):
            simulate_chain(m, 1.7e308, 5, 0)
        assert CAP_FACTOR * _CAPPED_MAX < math.inf
        assert CAP_FACTOR * math.nextafter(_CAPPED_MAX, math.inf) == math.inf

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

    def test_counters_on_a_chain(self):
        # the chain simulate_chain makes, by the sampler's own loop: two G
        # evaluations and one Newton step per draw, plus the tables' builds,
        # each sampler from an empty store
        n, seed = 3000, 0
        draws = chain_draws(seed, n).tolist()
        z = [1.0]
        _store.cache_clear()
        sampler = GenericSampler(MC_GENERIC, z[0])
        for e in draws:
            sampler.move_to(z[-1])
            z.append(sampler.draw(e))
        np.testing.assert_allclose(z, simulate_chain(MC_GENERIC, 1.0, n,
                                                     seed).z,
                                   rtol=1e-13, atol=0.0)
        assert sampler.g_evals <= 2.5 * n
        assert sampler.newton_steps == n
        assert sampler.fallback_draws == 0
        assert 0 < sampler.inverses_built <= sampler.panels_built
        # simulate_chain's own sampler walks in hazard coordinates: a phi
        # sub-panel or so per panel, few exact steps, and few states left to
        # the scalar solve
        _store.cache_clear()
        walker = GenericSampler(MC_GENERIC, 1.0)
        walker.chain(draws)
        assert 0 < walker.phi_built <= walker.panels_built
        assert walker.exact_steps <= 0.05 * n
        assert walker.exact_states <= 0.02 * n
        assert walker.g_evals <= 0.5 * n
        assert walker.fallback_draws == 0

    def test_states_in_a_flagged_piece_take_the_scalar_solve(self):
        # the integrand vanishes at u = kappa*a = 0.5, the left edge of its
        # panel, where the inverse of the first sub-panel is one flagged
        # piece; a pair inside it is the scalar solve's state, bit for bit
        model = Model(Flow("exponential", 2.0), JumpMap(0.5),
                      ShiftedQuadraticRate(1.0, 0.0))
        sampler = GenericSampler(model, 1.0)
        k = _panel_index(0.5)
        edges, bases, _, _ = sampler._panel(k)
        assert edges[0] == 0.5 and not any(sampler._inverse(k, 1)[1])
        hs = np.linspace(0.0, bases[1], 7)[1:-1]
        before = sampler.exact_states
        got = sampler.states(np.full(5, k), hs)
        assert sampler.exact_states == before + 5
        assert got.tolist() == [sampler._state(k, h) for h in hs.tolist()]

    @pytest.mark.parametrize("model, z, draws, kinks, flagged", [
        # the kink's sub-panel about kappa*1 = 0.3, where the hazard from
        # 0.15 reaches 0.05: its hazard series is one polynomial across the
        # kink, and the pieces of that polynomial's inverse start every draw
        (Model(Flow("additive", 1.0), JumpMap(0.3),
               CustomRate(lambda x: max(x - 1.0, 0.0) + 0.1)), 0.5,
         [0.05 + k * 1e-17 for k in range(-30, 31)], (1.0,), False),
        # b = 0: g vanishes at the jump image 0.5, a panel edge, where no
        # inverse piece can be made
        (Model(Flow("exponential", 2.0), JumpMap(0.5),
               ShiftedQuadraticRate(1.0, 0.0)), 1.0,
         [1e-6, 1e-3, 0.01, 0.1, 0.5], (), True),
    ], ids=["kink", "vanishing"])
    def test_fallback_sub_panels(self, model, z, draws, kinks, flagged):
        sampler = GenericSampler(model, z)
        got = [sampler.draw(e) for e in draws]
        assert (False in inverse_pieces(sampler)) == flagged
        assert (sampler.fallback_draws > 0) == flagged
        for e, y in zip(draws, got):
            assert y == pytest.approx(generic_draw_oracle(model, z, e, kinks),
                                      rel=1e-12)

    def test_phi_node_solves_take_few_newton_steps(self, monkeypatch):
        # a node at a sub-panel's top or bottom hazard has its root on the
        # bracket's edge, toward which Newton's method would only bisect;
        # every other node starts from the inverse, one step from its root
        steps, fitting = [], []
        newton, fit = GenericSampler._newton, GenericSampler._fit_phi

        def counted_newton(self, *args):
            y, taken = newton(self, *args)
            if fitting:
                steps.append(taken)
            return y, taken

        def counted_fit(self, k):
            fitting.append(k)
            try:
                return fit(self, k)
            finally:
                fitting.pop()

        monkeypatch.setattr(GenericSampler, "_newton", counted_newton)
        monkeypatch.setattr(GenericSampler, "_fit_phi", counted_fit)
        draws = chain_draws(0, 3000).tolist()
        for z0 in (1.0, 50.0):
            _store.cache_clear()
            GenericSampler(MC_GENERIC, z0).chain(draws)
        assert len(steps) > 100
        assert max(steps) <= 8
        assert sum(steps) <= 1.2 * len(steps)

    def test_smooth_integrand_has_no_fallback_draws(self):
        # the integrand changes by a factor of about 2 across some sub-panels
        # of the hazard table, whose inverses fail their tail test until the
        # inverse is halved: then every draw starts from an inverse and
        # takes one Newton step
        model = CHAIN_MODELS[-1][0]
        n, seed = 3000, 0
        draws = chain_draws(seed, n).tolist()
        z = [1.0]
        sampler = GenericSampler(model, z[0])
        for e in draws:
            sampler.move_to(z[-1])
            z.append(sampler.draw(e))
        assert sampler.fallback_draws == 0
        assert sampler.newton_steps == n
        assert False not in inverse_pieces(sampler)
        for k in range(0, n, 100):
            assert z[k + 1] == pytest.approx(
                generic_draw_oracle(model, z[k], draws[k]), rel=1e-12)

    @pytest.mark.parametrize("kind", ["mc_generic", "smooth", "steep"])
    def test_inverse_series_meets_hazard(self, kind):
        # the first panels above the jump image of z = 1: each inverse
        # t(h) is a position whose hazard S(t) is h, to far below INV_TOL
        model, _ = generic_case(kind, 0.5, 0.0)
        g, k0 = _scalar_integrand(model), _panel_index(model.jump.kappa)
        built = 0
        for k in range(k0, k0 + 8):
            edges, bases, series, _ = _fit_panel(g, k)
            for j, forward in enumerate(series):
                rise = bases[j + 1] - bases[j]
                (starts, pieces, curv), evals = _invert(
                    g, edges[j], edges[j + 1], forward, rise, 0)
                # 15 series evaluations per inverse tried, a halved piece's
                # included, and 2 more for each halving
                assert evals == 32 * len(pieces) - 17
                assert starts[0] == 0.0 and 0.0 < curv < math.inf
                for h0, h1, piece in zip(starts, starts[1:] + [rise],
                                         pieces):
                    if not piece:
                        continue
                    built += 1
                    # each piece spans the hazards up to the next one's
                    coeffs, scale = piece
                    assert h0 + 2.0 / scale == pytest.approx(h1, rel=1e-12)
                    for h in np.linspace(h0, h1, 201).tolist():
                        t = _clenshaw(coeffs, (h - h0) * scale - 1.0)
                        assert abs(_clenshaw(forward, t) - h) <= 1e-9 * rise
        assert built >= 4

    def test_flat_hazard_sub_panel_falls_back(self):
        # the rate is 0 below x = 1, so the hazard from kappa*z = 0.15 is
        # flat up to 0.3, inside a sub-panel whose images of the forward
        # nodes are not monotone
        model = Model(Flow("additive", 1.0), JumpMap(0.3),
                      CustomRate(lambda x: 1.0 if x >= 1.0 else 0.0))
        sampler = GenericSampler(model, 0.5)
        draws = [k * 1e-17 for k in range(1, 21)] + [1e-3, 0.5]
        got = [sampler.draw(e) for e in draws]
        assert inverse_pieces(sampler, 0.3) == [False]
        assert sampler.fallback_draws > 0
        for e, y in zip(draws, got):
            assert y == pytest.approx(
                generic_draw_oracle(model, 0.5, e, (1.0,)), rel=1e-12)

    def test_curvature_bound_below_square_root_of_tiny(self):
        # the sub-panel's half-width squared underflows, and |G''| overflows,
        # but its bound is kept in the sub-panel's position t, so Newton's
        # early exit still ends the draw after one step.  With the rate
        # ~ a**2 + b this far below a, the hazard is 1.5e6*ln(y/lo).  The
        # store starts empty, so the draw builds the inverse it takes.
        model = Model(Flow("exponential", 1e-6), JumpMap(0.5),
                      ShiftedQuadraticRate(1.0, 0.5))
        _store.cache_clear()
        sampler = GenericSampler(model, 1e-161)
        assert sampler.draw(1.0) == pytest.approx(
            5e-162 * math.exp(1.0 / 1.5e6), rel=1e-12)
        assert sampler.inverses_built == 1 and sampler.fallback_draws == 0
        assert sampler.newton_steps == 1

    @pytest.mark.parametrize("model, z0", CHAIN_MODELS, ids=CHAIN_IDS)
    def test_chain_matches_per_step_loop(self, model, z0):
        # simulate_chain walks in hazard coordinates and inverts all states
        # at once; a fresh table per step from the state before is the
        # one-shot reference
        n, seed = 600, 2
        draws = chain_draws(seed, n)
        want = np.empty(n + 1)
        want[0] = z0
        for k in range(n):
            want[k + 1] = sample_next_generic(model, want[k], draws[k])
        got = simulate_chain(model, z0, n, seed).z
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_falling_chain_matches_per_step_loop(self):
        # the chain falls toward 1e-126, into a new panel on most steps,
        # each of its hazards measured from its own panel's left edge
        model = FALLING
        n, seed = 2500, 1
        draws = chain_draws(seed, n)
        want = np.empty(n + 1)
        want[0] = 1.0
        for k in range(n):
            want[k + 1] = sample_next_generic(model, want[k], draws[k])
        assert want[-1] < 1e-120
        got = simulate_chain(model, 1.0, n, seed).z
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("model, z0", CHAIN_MODELS, ids=CHAIN_IDS)
    def test_no_state_below_its_jump_image(self, model, z0):
        # draws of 0 and far below an ulp of the hazard put the root on or
        # within rounding of the jump image, which no state may undercut
        draws = chain_draws(3, 400)
        draws[::7] = 0.0
        draws[3::7] = 1e-300
        draws[5::7] = 1e-17
        z = np.concatenate(([z0], GenericSampler(model, z0).chain(draws)))
        kappa = model.jump.kappa
        assert np.all(z[1:] >= kappa * z[:-1])

    def test_cap_error_mid_chain_names_transition(self):
        # an exponential flow with delta < 0: the hazard to the cap is
        # finite, and a draw above it ends the chain a few transitions in
        model = Model(Flow("exponential", 1.5), JumpMap(0.4),
                      PowerRate(1.2, -0.5))
        n, seed = 50, 0
        draws = chain_draws(seed, n)
        z = [1.0]
        with pytest.raises(CapExceededError) as loop:
            for e in draws:
                z.append(sample_next_generic(model, z[-1], e))
        k = len(z) - 1
        assert k > 1
        with pytest.raises(CapExceededError,
                           match=f"^at transition {k}: ") as chain:
            simulate_chain(model, 1.0, n, seed)
        assert str(chain.value).endswith(str(loop.value))

    def test_state_range_error_mid_chain_names_transition(self):
        # the hazard 1e3*log(y/(kappa*z)) barely moves a state off its jump
        # image, so the states fall as kappa**k, and the jump image of the
        # fourth underflows
        model = Model(Flow("exponential", 1.0), JumpMap(1e-100),
                      PowerRate(1e3, 0.0))
        with pytest.raises(StateRangeError,
                           match="^at transition 3: the jump image of z = "):
            simulate_chain(model, 1.0, 10, 0)

    def test_state_range_error_after_a_phi_step_names_its_state(self):
        # the rate e**x overflows at x = 709.8, inside the cap: the last draw
        # runs the hazard into it from the state the phi steps left
        model = Model(Flow("additive", 1.0), JumpMap(0.5),
                      CustomRate(math.exp))
        draws = chain_draws(0, 300).tolist()
        walker = GenericSampler(model, 1.0)
        z = walker.chain(draws)
        assert walker.exact_steps < 0.2 * len(draws)
        with pytest.raises(StateRangeError, match=(
                f"^at transition 300: the hazard from z = {float(z[-1])!r} ")):
            GenericSampler(model, 1.0).chain(draws + [1e300])

    @pytest.mark.parametrize("model", [MC_GENERIC, CHAIN_MODELS[3][0],
                                       CHAIN_MODELS[-1][0]],
                             ids=["mc_generic", "kink",
                                  "exponential_quadratic"])
    def test_sample_next_array_matches_draws(self, model):
        # one sampler moved from element to element, against a fresh sampler
        # per element; the second set of states spreads over 106 octaves,
        # each root measured from its own panel
        rng = np.random.default_rng(8)
        for zs in (np.exp(rng.uniform(np.log(0.05), np.log(20.0), 200)),
                   np.geomspace(1e-30, 1e2, 200)):
            es = rng.exponential(1.0, 200)
            es[::10] = 0.0
            got = sample_next(model, zs, es)
            want = [GenericSampler(model, z).draw(e) for z, e in zip(zs, es)]
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("model, z0, n, seed", [
        (FALLING, 1.0, 2500, 1), (MC_GENERIC, 1.0, 3000, 0),
        (MC_GENERIC, 50.0, 3000, 0)], ids=["falling", "mc_generic",
                                           "mc_generic_from_50"])
    def test_chain_inverts_its_states_once(self, model, z0, n, seed,
                                           monkeypatch):
        # a hazard is a panel and the hazard from its left edge, so the walk
        # never has to invert its states before the tables change
        calls, states = [], GenericSampler.states
        monkeypatch.setattr(GenericSampler, "states",
                            lambda self, *args: calls.append(1)
                            or states(self, *args))
        simulate_chain(model, z0, n, seed)
        assert len(calls) == 1

    def test_scalar_is_one_element_array(self):
        # a scalar call and a one-element array take the same solve, and a
        # failure names the index in both
        rng = np.random.default_rng(9)
        for z, e in zip(rng.uniform(0.3, 3.0, 20), rng.exponential(1.0, 20)):
            assert sample_next(MC_GENERIC, z, e) == \
                sample_next(MC_GENERIC, np.array([z]), np.array([e]))[0]
        # the hazard from z = 1 up to any state is below 1.6
        model = Model(Flow("exponential", 1.5), JumpMap(0.4),
                      PowerRate(1.2, -0.5))
        for z in (1.0, np.array([1.0])):
            with pytest.raises(CapExceededError, match="^at transition 0: "):
                sample_next(model, z, 8.0)
        with pytest.raises(CapExceededError, match="^at transition 1: "):
            sample_next(model, [1.0, 1.0, 1.0], [0.5, 8.0, 8.0])

    def test_sample_next_is_not_below_the_jump_image(self):
        # the root's last Newton step lands one ulp below the jump image
        # here; a chain's states are held there, and so is sample_next's
        z = 0.617422611208365
        sampler = GenericSampler(MC_GENERIC, z)
        assert sampler._root(*sampler._reach(1e-18), 1e-18) < 0.5 * z
        assert sample_next(MC_GENERIC, z, 1e-18) == 0.5 * z
        assert sample_next(MC_GENERIC, [z], [1e-18])[0] == 0.5 * z

    def test_draw_is_not_below_the_jump_image(self):
        # the public draw holds its root at the jump image too; draws from
        # 1e-18 to 1e-15 from this state once landed an ulp below it
        z = 0.617422611208365
        sampler = GenericSampler(MC_GENERIC, z)
        assert sampler.draw(1e-18) == sampler.lo == 0.5 * z
        draws = [sampler.draw(e) for e in np.geomspace(1e-18, 1e-15, 3000)]
        assert min(draws) >= sampler.lo

    def test_inverses_survive_downward_growth(self):
        # from z0 = 50 the first draws build inverses high up; the chain then
        # falls, and the store gains panels below them, each measured from
        # its own left edge; from an empty store, so that the draws build
        # the inverses they take
        n, seed, z0 = 400, 5, 50.0
        draws = chain_draws(seed, n).tolist()
        z = [z0]
        _store.cache_clear()
        sampler = GenericSampler(MC_GENERIC, z0)
        sampler.draw(draws[0])
        first_low, first_inverses = min(sampler._stored), sampler.inverses_built
        assert first_inverses > 0
        for e in draws:
            sampler.move_to(z[-1])
            z.append(sampler.draw(e))
        assert min(sampler._stored) < first_low
        assert sampler.inverses_built > first_inverses
        # an inverse found under the wrong panel would cost Newton steps
        assert sampler.newton_steps == n + 1
        want = [z0] + [sample_next_generic(MC_GENERIC, z[k], draws[k])
                       for k in range(n)]
        np.testing.assert_allclose(z, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("later", [[], [1e300]],
                             ids=["last", "before_a_failing_draw"])
    def test_cap_on_a_phi_step(self, later):
        # a phi step from panel k reaches panels up to the one holding
        # CAP_FACTOR * max(edge(k+1), 1), which for a state below 1 ends
        # above the state's cap, and its state is held to the cap once
        # inverted: the last of 400 draws, halfway between the hazards to
        # the cap and to that panel's right edge from the state before it,
        # crosses the cap on a phi step.  The chain fails there with the
        # draw's own error, also when a later draw fails first in the walk
        # (1e300 passes any cap)
        model = Model(Flow("additive", 1.0), JumpMap(0.5),
                      CustomRate(lambda x: 8.0 / (1.0 + x) ** 1.5))
        draws = np.minimum(chain_draws(0, 399), 3.0).tolist()
        walker = GenericSampler(model, 1.0)
        z = walker.chain(draws)
        assert _panel_edge(_panel_index(z[-1]) + 1) <= 1.0
        before = GenericSampler(model, z[-1])
        top = _panel_edge(_panel_index(CAP_FACTOR) + 1)
        e = 0.5 * (before.hazard_to(before.cap) + before.hazard_to(top))
        with pytest.raises(CapExceededError) as loop:
            before.draw(e)
        sampler = GenericSampler(model, 1.0)
        with pytest.raises(CapExceededError,
                           match="^at transition 399: ") as chain:
            sampler.chain(draws + [e] + later)
        assert str(chain.value).endswith(str(loop.value))
        # no exact step beyond those of the first 399 draws
        assert sampler.exact_steps == walker.exact_steps

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


# Chains whose states must not depend on what the process simulated before,
# and the same models built in a fresh interpreter, which writes their states
# to the file named by its argument
PURE_CHAINS = [(MC_GENERIC, 1.0), (MC_GENERIC, 50.0), CHAIN_MODELS[3],
               (FALLING, 1.0)]
FRESH_CHAINS = """
import sys
import numpy as np
from pdmprate import simulate_chain
from pdmprate.model import (CustomRate, Flow, JumpMap, Model,
                            ShiftedQuadraticRate)
mc = Model(Flow("exponential", 2.0), JumpMap(0.5),
           ShiftedQuadraticRate(1.0, 0.5))
kink = Model(Flow("additive", 1.0), JumpMap(0.3),
             CustomRate(lambda x: max(x - 1.0, 0.0) + 0.1))
falling = Model(Flow("exponential", 1.0), JumpMap(0.7),
                ShiftedQuadraticRate(2.0, 1.0))
np.save(sys.argv[1], [simulate_chain(model, z0, 3000, 4).z
                      for model, z0 in [(mc, 1.0), (mc, 50.0), (kink, 1.0),
                                        (falling, 1.0)]])
"""


class TestHazardStore:
    """The hazard tables a process keeps per model (``numeric._store``)."""

    @pytest.mark.parametrize("model, meet", [
        (MC_GENERIC, 200),
        (Model(Flow("exponential", 1.0), JumpMap(0.9),
               ShiftedQuadraticRate(1.0, 0.5)), 500)],
        ids=["mc_generic", "slow"])
    def test_chains_that_meet_stay_together(self, model, meet):
        # a step is a function of its pair and its draw alone, so chains on
        # one seed from any start, once at one pair, stay there bit for bit:
        # these meet the chain from 1 by step 30 (mc_generic) and 178 (slow)
        for seed in range(5):
            ref = simulate_chain(model, 1.0, 2000, seed).z
            for z0 in (0.2, 1.5, 3.0, 10.0, 50.0):
                z = simulate_chain(model, z0, 2000, seed).z
                assert np.array_equal(z[meet:], ref[meet:]), (seed, z0)

    def test_chain_depends_only_on_its_arguments(self, tmp_path):
        # a fresh interpreter simulates the chains from empty tables; here
        # each comes after other seeds and starts of its model, whose tables
        # it reads
        out = tmp_path / "fresh.npy"
        src = str(Path(pdmprate.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", FRESH_CHAINS, str(out)],
                       env={**os.environ, "PYTHONPATH": src}, check=True,
                       timeout=120)
        warm = []
        for model, z0 in PURE_CHAINS:
            for other, seed in [(0.3, 7), (3.0, 8), (200.0, 9)]:
                simulate_chain(model, other, 1500, seed)
            warm.append(simulate_chain(model, z0, 3000, 4).z)
        for fresh, chain in zip(np.load(out), warm):
            assert np.array_equal(fresh, chain)

    def test_memory_bounded_over_many_models(self):
        # the tables of the model used last are kept: walking many
        # models, as the hypothesis tests do, releases the oldest
        first = CustomRate(lambda x: 1.0 + x)
        released = weakref.ref(first.rate_fn)
        simulate_chain(Model(Flow("exponential", 2.0), JumpMap(0.5), first),
                       1.0, 50, 0)
        del first
        for k in range(25):
            rate = CustomRate(lambda x, k=k: 1.0 + x * (1.0 + k / 64.0))
            simulate_chain(Model(Flow("exponential", 2.0), JumpMap(0.5),
                                 rate), 1.0, 50, k)
        assert _store.cache_info().currsize == 1
        gc.collect()
        assert released() is None

    def test_unhashable_rate_keeps_its_own_tables(self):
        # an instance of a dataclass with eq=True and not frozen cannot be
        # hashed, so the model cannot key the store: each sampler fits its
        # own tables, and the chain still matches the per-step loop
        model = Model(Flow("exponential", 0.5), JumpMap(0.6),
                      CustomRate(_UnhashableRate(0.2)))
        with pytest.raises(TypeError):
            hash(model)
        before = _store.cache_info().currsize
        n, seed = 600, 2
        draws = chain_draws(seed, n)
        want = [1.0]
        for e in draws:
            want.append(sample_next_generic(model, want[-1], e))
        sampler = GenericSampler(model, 1.0)
        got = sampler.chain(draws)
        np.testing.assert_allclose(got, want[1:], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(simulate_chain(model, 1.0, n, seed).z,
                                   want, rtol=1e-13, atol=0.0)
        assert sampler.panels_built > 0 and sampler.phi_built > 0
        # a second sampler reads none of the first one's tables
        again = GenericSampler(model, 1.0)
        again.chain(draws)
        assert (again.panels_built, again.phi_built) == \
            (sampler.panels_built, sampler.phi_built)
        assert _store.cache_info().currsize == before

    def test_phi_records_do_not_depend_on_table_extent(self):
        # the records of panel k come from the store's tables, each a
        # function of the model and its panel: so a sampler at one, two or
        # three octaves below the jump images, on an empty store whose sums
        # from the images' panel reach k or also k+1, whose left edge has
        # the hazard of the last phi sub-panel's top node, gives the same
        # records, and has its own state back after the fit
        for k in range(-12, 8):
            p = _panel_index(MC_GENERIC.jump.kappa * _panel_edge(k))
            fits = []
            for octaves in (1, 2, 3):
                for top in (k, k + 1):
                    _store.cache_clear()
                    sampler = GenericSampler(
                        MC_GENERIC, 2.0 * _panel_edge(k - 4 - 4 * octaves))
                    sampler.draw(1.0)
                    sums = sampler._sums(p, math.inf, _panel_edge(top))
                    assert len(sums) == top - p + 2
                    state = (sampler.lo, sampler.cap, sampler._p,
                             sampler._g_lo)
                    fits.append(sampler._fit_phi(k))
                    assert (sampler.lo, sampler.cap, sampler._p,
                            sampler._g_lo) == state
            assert all(fit == fits[0] for fit in fits), k

    def test_phi_store_holds_one_entry_per_panel(self):
        # phi records are keyed by their panel alone, so chains from starts
        # whose tables are anchored at different panels share them
        _store.cache_clear()
        for z0 in (0.3, 1.0, 3.0, 50.0):
            simulate_chain(MC_GENERIC, z0, 3000, 4)
        panels, phi, _ = _store((MC_GENERIC.flow, MC_GENERIC.jump,
                                 MC_GENERIC.rate))
        assert phi and set(phi) <= set(panels)


@dataclass
class _UnhashableRate:
    """The rate ``floor + x**1.5``, called as a function; unhashable."""

    floor: float

    def __call__(self, x):
        return self.floor + x ** 1.5


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

    @given(exponential=st.booleans(), kappa=st.floats(0.05, 0.95),
           c=st.floats(0.5, 2.0), a=st.floats(0.2, 3.0),
           b=st.floats(0.0, 3.0), z0=st.floats(0.1, 3.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(exponential=False, kappa=0.3, c=0.7, a=1.3, b=0.2, z0=1.0,
             seed=0)
    @settings(max_examples=40, deadline=None)
    def test_sample_next_loop_matches_chain(self, exponential, kappa, c, a, b,
                                            z0, seed):
        # the quadratic chain takes the step sample_next takes, bit for bit;
        # a numeric chain takes phi steps after its first, which agree with
        # a loop of draws to the table's accuracy
        flow = Flow("exponential" if exponential else "additive", c)
        m = Model(flow, JumpMap(kappa), ShiftedQuadraticRate(a, b))
        n = 50
        want = [z0]
        for e in chain_draws(seed, n):
            want.append(sample_next(m, want[-1], e))
        got = simulate_chain(m, z0, n, seed).z
        if exponential:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        else:
            assert got.tolist() == want

    @pytest.mark.parametrize("model, z0, n", [
        (tcp_model(delta=200.0), 40.0, 50),
        (bacterial_model(delta=300.0), 20.0, 50),
        # 40*0.99**k > 1 up to k = 367: the head term joins in logs all
        # along the chain, ...
        (tcp_model(kappa=0.99, delta=200.0), 40.0, 60),
        # ... all along a short one, ...
        (tcp_model(kappa=0.99, delta=200.0), 40.0, 5),
        # ... and the scan carries it from k = 368
        (tcp_model(kappa=0.99, delta=200.0), 40.0, 10000),
        # w0 = 1e300 fits, but r**4 = 0.5**1204 underflows while r**4 * w0
        # is 5.8e-62, the hazard-free part of z4**300
        (bacterial_model(delta=300.0), 10.0, 50),
        # p*c/lam = 201e308 overflows, though r*p*c/lam = 6.2e249 and every
        # z**201 fit
        (tcp_model(delta=200.0, lam=1e-308), 1.0, 5),
        # r*p*c/lam = 7.6e351 overflows too, so every w does; z is about 5
        (tcp_model(delta=500.0, c=1e200, lam=1e-300), 1.0, 5),
        # ... and from z0**501, which overflows as well
        (tcp_model(delta=500.0, c=1e200, lam=1e-300), 10.0, 5),
        # r*p*c/lam = 1.0007e308: e*f overflows from the ninth draw, e > 1.8
        (tcp_model(delta=200.0, c=1e300, lam=6.25e-67), 1.0, 300),
        # long enough for the log scan's later passes and its stop rule
        (tcp_model(delta=200.0, c=1e300, lam=6.25e-67), 1.0, 10000),
        (tcp_model(delta=500.0, c=1e200, lam=1e-300), 1.0, 10000),
        (tcp_model(delta=500.0, c=1e200, lam=1e-300), 10.0, 10000),
        # r = 0.13 and e*f overflows: the log scan takes five passes
        (tcp_model(kappa=0.99, delta=200.0, c=1e300, lam=1e-10), 1.0, 10000),
    ], ids=["tcp", "bacterial", "slow", "short", "slow_long",
            "factor_underflow", "draw_factor", "factor_overflow",
            "factor_overflow_large_z0", "draw_overflow", "draw_overflow_long",
            "factor_overflow_long", "factor_overflow_large_z0_long",
            "slow_draw_overflow"])
    def test_large_w_matches_step_oracle(self, model, z0, n):
        # z0**p overflows though every state fits: the scan starts from
        # w0 = 0, and the head term r**k * z0**p joins in logs until it is
        # at most 1, then in the scan; in the scan r**s may underflow before
        # r**s * w does, and the draws' factor r*p*c/lam is formed in
        # another order where p*c/lam overflows.  From a w that still
        # overflows, as where e*f does, the chain is the scan in log w
        z = simulate_chain(model, z0, n, 0).z
        want = [z0]
        for e in chain_draws(0, n):
            want.append(power_log_step_oracle(model, want[-1], e))
        np.testing.assert_allclose(z, want, rtol=1e-13, atol=0)

    def test_power_states_held_at_jump_image(self):
        # from z0 = 40 the hazard of delta = 200 moves a state less than an
        # ulp off its jump image, where the scan's roundings land it up to an
        # ulp below; each state is held there, in order along the chain
        model = tcp_model(delta=200.0)
        draws = chain_draws(0, 5)
        assert sample_next(model, np.full(5, 40.0), draws).tolist() == \
            [20.0] * 5
        for kappa in (0.5, 0.99):
            model = tcp_model(kappa=kappa, delta=200.0)
            z = simulate_chain(model, 40.0, 100_000, 0).z
            assert np.all(z[1:] >= kappa * z[:-1])

    def test_hold_leaves_states_after_an_overflow(self):
        # an infinite state lifts none after it: lifting kappa*inf would
        # carry inf down the row, one pass per state, before the chain
        # reports it out of range
        w = np.array([[40.0, 19.9, math.inf, 3.0, 1.0],
                      [40.0, math.inf, 2.0, 0.5, 0.1]])
        _hold_at_jump_image(w, 0.5)
        assert w.tolist() == [[40.0, 20.0, math.inf, 3.0, 1.5],
                              [40.0, math.inf, 2.0, 1.0, 0.5]]
        # test_overflow_midway_names_first_transition's chain at n = 2e5
        # hovers at the largest double: its states overflow from z[19] on
        # and now and then, and the rest stay finite and held
        z = _power_chain(tcp_model(lam=1e-308), np.array([1e8]),
                         chain_draws(6, 200_000)[np.newaxis])[0]
        finite = np.isfinite(z)
        assert np.isinf(z[19]) and finite[20:].mean() > 0.8, finite.mean()
        ok = finite[:-1]
        assert np.all(z[1:][ok] >= 0.5 * z[:-1][ok])

    @pytest.mark.parametrize("model, z0", [
        (tcp_model(delta=200.0, c=1e300, lam=6.25e-67), 1.0),
        (tcp_model(kappa=0.99, delta=200.0, c=1e300, lam=1e-10), 1.0),
        (tcp_model(kappa=0.99, delta=200.0), 40.0),
    ], ids=["draw_overflow", "slow_draw_overflow", "slow"])
    def test_long_chain_starts_with_sample_next(self, model, z0):
        # the log scan stops its passes only where they would change no bit,
        # and the head term joins in logs at any length, so a long chain's
        # first state is sample_next's, as a one-transition chain's is
        for seed in range(20):
            z = simulate_chain(model, z0, 2000, seed).z
            assert z[1] == sample_next(model, z0, chain_draws(seed, 1)[0])

    def test_sample_next_overflowing_starts_in_one_call(self):
        # z0**p overflows from 40 (p = 201): every row takes the log scan
        # from its start, in the one kernel call that all rows share
        model = tcp_model(delta=200.0)
        zs = np.full(10_000, 40.0)
        draws = np.random.default_rng(4).exponential(1.0, len(zs))
        with mock.patch.object(simulate, "_power_chain",
                               wraps=simulate._power_chain) as kernel:
            got = sample_next(model, zs, draws)
        assert kernel.call_count == 1
        assert np.array_equal(got, [sample_next(model, 40.0, e)
                                    for e in draws])
        want = [power_log_step_oracle(model, 40.0, e) for e in draws]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_overflow_names_first_transition(self):
        # c/lam = 1e310: the first state, about 5e309 * e, is out of range;
        # in a chain of 5000 the scan's factor r**2048 underflows to 0, and
        # its test multiplies the inf states by it
        for n in (50, 5000):
            with pytest.raises(StateRangeError, match="at transition 0:"):
                simulate_chain(tcp_model(c=1e10, lam=1e-300), 1.0, n, 0)

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

    def test_quadratic_cube_overflow_raises(self):
        # b**3 overflows; the step takes it as inf
        with pytest.raises(StateRangeError, match="at transition 0:"):
            simulate_chain(tcp_quadratic_model(b=1e300), 1.0, 5, 0)

    def test_exponential_flow_weight_underflow_raises(self):
        # c*u underflows to 0, so the integrand 1/(c*u) is infinite
        m = Model(Flow("exponential", 1e-200), JumpMap(0.5),
                  ShiftedQuadraticRate(1.0, 0.5))
        with pytest.raises(StateRangeError, match="at transition 0:"):
            simulate_chain(m, 1e-150, 5, 0)


def cardano_steps(model, z0, draws):
    """States ``z[0..n]`` by the package's vector Cardano step, called on
    one state at a time."""
    terms, three_c = _cardano_terms(model)
    z = np.empty(len(draws) + 1)
    z[0] = z0
    with np.errstate(all="ignore"):
        for k, g in enumerate(draws * three_c):
            z[k + 1] = _cardano(terms, z[k:k + 1], np.array([g]))[0]
    return z


def cardano_step_and_loop(model):
    """The vector step and the Python-float loop of the quadratic family,
    as ``_quadratic_chain`` hands them to the driver."""
    terms, _ = _cardano_terms(model)
    return (functools.partial(_cardano, terms),
            functools.partial(_cardano_loop, terms))


def block_chain(model, z0, draws, steps):
    """States by block passes of ``steps`` steps, of one block or more, and
    then the Python-float loop, as ``simulate_chain`` runs them: the
    driver without its probe, whose passes start at ``steps``."""
    g = draws * _cardano_terms(model)[1]
    z = np.empty((1, len(g) + 1))
    z[0, 0] = z0
    with mock.patch.object(simulate, "_BLOCKS", 1), \
            mock.patch.object(simulate, "_BLOCK_STEPS", steps), \
            mock.patch.object(simulate, "_MAX_BLOCKS", len(g) + 1), \
            mock.patch.object(simulate, "_coalescence", return_value=(0, 0)), \
            np.errstate(all="ignore"):
        _block_chain(*cardano_step_and_loop(model), z, g[None])
    return z[0]


class TestQuadraticChain:
    """The quadratic chain is the vector step applied state by state, bit for
    bit, whatever its block length, and the step is accurate."""

    @given(kappa=st.floats(0.05, 0.99), b=st.floats(0.0, 3.0),
           z0=st.floats(0.05, 5.0), seed=st.integers(0, 2 ** 32 - 1),
           steps=st.integers(2, 40),
           length=st.sampled_from(["1", "2", "L-1", "L", "L+1", "5L"]))
    @example(kappa=0.99, b=0.5, z0=1.0, seed=0, steps=4, length="5L")
    @settings(max_examples=60, deadline=None)
    def test_blocks_match_step_loop(self, kappa, b, z0, seed, steps, length):
        n = {"1": 1, "2": 2, "L-1": steps - 1, "L": steps, "L+1": steps + 1,
             "5L": 5 * steps}[length]
        m = tcp_quadratic_model(kappa=kappa, b=b)
        draws = chain_draws(seed, n)
        want = cardano_steps(m, z0, draws).tobytes()
        for block in (steps, steps + 1, 2 * steps + 3):
            assert block_chain(m, z0, draws, block).tobytes() == want

    def test_unmet_block_resumes_from_exact_states(self):
        # at kappa = 0.99 a block meets the true chain after about 1,000
        # steps, so a pass of 4-step blocks leaves blocks unmet; the states
        # up to the first of them are exact, and the rest is redone
        m = tcp_quadratic_model(kappa=0.99)
        draws = chain_draws(5, 400)
        step, _ = cardano_step_and_loop(m)
        z = np.empty(401)
        z[0] = 1.0
        with np.errstate(all="ignore"):
            end, met = simulate._block_pass(
                step, z, draws * _cardano_terms(m)[1], 0, 4)
        want = cardano_steps(m, 1.0, draws)
        assert not met and end >= 8
        assert z[:end + 1].tobytes() == want[:end + 1].tobytes()
        assert block_chain(m, 1.0, draws, 4).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kappa", [0.2, 0.9])
    def test_long_chain_takes_blocks(self, kappa):
        # the public path: a probe, then block passes of twice its meeting
        # time (64 steps at kappa = 0.2, about 200 at 0.9), then the loop
        m = tcp_quadratic_model(kappa=kappa)
        n = 20_000
        with mock.patch.object(simulate, "_block_pass",
                               wraps=simulate._block_pass) as passes:
            z = simulate_chain(m, 1.0, n, 3).z
        assert passes.call_count >= 1
        assert z.tobytes() == cardano_steps(m, 1.0,
                                            chain_draws(3, n)).tobytes()

    def test_long_chain_blocks_have_n_floor(self):
        # at kappa = 0.2 twice the meeting time is 64 steps, below the floor
        # n // _MAX_BLOCKS, so every pass runs blocks of the floor or longer
        m = tcp_quadratic_model(kappa=0.2)
        n = 300_000
        floor = n // simulate._MAX_BLOCKS
        assert floor > 64
        with mock.patch.object(simulate, "_block_pass",
                               wraps=simulate._block_pass) as passes:
            z = simulate_chain(m, 1.0, n, 3).z
        steps = [call.args[4] for call in passes.call_args_list]
        assert steps and min(steps) >= floor
        assert z.tobytes() == block_chain(m, 1.0, chain_draws(3, n),
                                          64).tobytes()

    def test_sample_next_loop_matches_block_chain(self):
        m = tcp_quadratic_model()
        n = 3000
        want = [1.0]
        for e in chain_draws(8, n):
            want.append(sample_next(m, want[-1], e))
        assert simulate_chain(m, 1.0, n, 8).z.tolist() == want

    @given(z=st.floats(5e-324, 1e200), e=st.floats(0.0, 1e300),
           a=st.floats(1e-300, 1e100), b=st.sampled_from([0.0, 5e-324,
                                                          1e-200, 0.5, 3.0,
                                                          1e120]),
           c=st.floats(1e-300, 1e300), kappa=st.floats(0.01, 0.99))
    @example(z=1.3, e=0.0, a=1.3, b=0.0, c=1.0, kappa=0.3)
    @example(z=0.5, e=1 / 3, a=1.5, b=0.0, c=1.0, kappa=0.5)
    @example(z=0.5, e=1 / 3, a=1.5, b=1e-200, c=1.0, kappa=0.5)
    @settings(max_examples=300, deadline=None)
    def test_python_loop_matches_vector_step(self, z, e, a, b, c, kappa):
        # the sequential parts of the chain take the vector step's bits,
        # nan where it is nan, across double range
        terms, three_c = _cardano_terms(tcp_quadratic_model(kappa, c, a, b))
        with np.errstate(all="ignore"):
            g = e * three_c
            want = _cardano(terms, np.array([z]), np.array([g]))
        got = np.array(_cardano_loop(terms, z, np.array([g])))
        assert np.array_equal(got, want, equal_nan=True)

    def test_vector_step_does_not_depend_on_array_length(self):
        # numpy's cube root runs SIMD loops of several lanes; a state's next
        # state is the same in an array of 1 and of 10,001
        rng = np.random.default_rng(2)
        terms, three_c = _cardano_terms(tcp_quadratic_model(b=0.3))
        z = rng.uniform(0.01, 5.0, 10_001)
        g = rng.exponential(size=z.size) * three_c
        whole = _cardano(terms, z, g)
        one = [_cardano(terms, z[k:k + 1], g[k:k + 1])[0]
               for k in range(0, z.size, 97)]
        assert whole[::97].tobytes() == np.array(one).tobytes()

    @given(c=st.floats(-8.0, 2.0).map(lambda x: 10.0 ** x),
           kappa=st.floats(0.05, 0.99), a=st.floats(0.2, 3.0),
           b=st.floats(0.1, 3.0), z=st.floats(1e-3, 5.0),
           e=st.floats(0.0, 10.0))
    # two draws that missed a flat 1e-15 relative bound, by 1.10e-15 and
    # 1.24e-15: z far below a, where the rounding of u = z - a tells
    @example(c=1.0, kappa=0.140625, a=2.375, b=0.25, z=0.15316007763023953,
             e=4.0)
    @example(c=1.0, kappa=0.5, a=2.5, b=0.125, z=0.05, e=5.0)
    @settings(max_examples=150, deadline=None)
    def test_step_within_1e15_of_increment_oracle(self, c, kappa, a, b, z,
                                                  e):
        # kappa*(a + t) lost about log10(a/z) digits where z is far below a
        # at small c (1.7e-9 at c = 1e-6); the increment form does not.  b
        # is kept from 0: there the cubic itself is ill-conditioned at t = 0.
        # The bound: the step rounds u = z - a once, by up to 2**-53 |u|,
        # and solves F(d, u) = d*(u*u + u*d + d*d/3 + b) - c*e = 0 for the
        # increment d of y = kappa*(z + d).  To first order that rounding
        # moves y by kappa |dd/du| 2**-53 |u|, where dd/du = -F_u/F_d =
        # -d*(2u + d)/((u + d)**2 + b); at the first example above that is
        # 2.7e-16, about 1.1e-15 of y.  The step's own rounding stays within
        # the 1e-15 floor.
        m = tcp_quadratic_model(kappa=kappa, c=c, a=a, b=b)
        want = quadratic_increment_oracle(m, z, e)
        u, d = z - a, want / kappa - z
        from_u = kappa * abs(d * (2 * u + d)) / ((u + d) ** 2 + b) \
            * 2.0 ** -53 * abs(u)
        assert abs(sample_next(m, z, e) - want) <= 1e-15 * want + from_u

    @pytest.mark.parametrize("c", [1e2, 1.0, 1e-2, 1e-4, 1e-6, 1e-8])
    def test_chain_steps_within_1e15_of_increment_oracle(self, c):
        m = tcp_quadratic_model(kappa=0.5, c=c, a=1.0, b=0.5)
        z = simulate_chain(m, 1.0, 400, 1).z
        draws = chain_draws(1, 400)
        for k in range(0, 400, 8):
            want = quadratic_increment_oracle(m, z[k], draws[k])
            assert abs(z[k + 1] - want) <= 1e-15 * want

    @given(kappa=st.floats(0.05, 0.95), c=st.floats(0.5, 2.0),
           a=st.floats(0.2, 3.0), b=st.floats(0.0, 3.0),
           u=st.floats(0.0, 3.0), e=st.floats(0.0, 10.0))
    # a draw where the oracle's own t = v - b/v cancels, at small q: its
    # state is 16 ulps from the increment oracle's, beyond the flat bound,
    # and sample_next's is that one, bit for bit
    @example(kappa=0.5, c=1.5, a=0.21875, b=1.732978037109194,
             u=6.32991338719197e-09, e=6.32991338719197e-09)
    @settings(max_examples=200, deadline=None)
    def test_math_cbrt_step_within_few_ulps(self, kappa, c, a, b, u, e):
        # the plain-float step with math.cbrt agrees to a few ulps where
        # a + t does not cancel, from z = a up (5.6 ulps at most in 20,000
        # random cases).  The oracle takes t as the difference of the cube
        # roots v of s/2 and b/v of 2*b**3/s, s = |q| + r: s is formed with
        # up to about 3 roundings, 2*b**3/s with about 6, and a cube root
        # takes a third of its argument's error and adds up to an ulp, so
        # the two roots are off by up to about 3 and 4 units of 2**-53 of
        # their size.  Where t is small, that error does not shrink with t,
        # and the state takes kappa times it.
        m = tcp_quadratic_model(kappa=kappa, c=c, a=a, b=b)
        want = quadratic_step_cardano(m, a + u, e)
        w = a + u - a
        q = 3.0 * c * e + w * w * w + 3.0 * b * w
        v = math.cbrt((abs(q) + math.sqrt(4.0 * b ** 3 + q * q)) / 2.0)
        roots = kappa * 2.0 ** -51 * (v + b / v) if v else 0.0
        assert abs(sample_next(m, a + u, e) - want) <= 2e-15 * want + roots

    def test_cube_overflow_raises_in_a_block_chain(self):
        # b**3 overflows: every state is nan, from the probe on
        with pytest.raises(StateRangeError, match="^at transition 0:"):
            simulate_chain(tcp_quadratic_model(b=1e300), 1.0, 5000, 0)


def affine_step_and_loop(kappa):
    """A contracting step other than Cardano's, ``kappa*(x + g)``, as a
    vector step and as its loop in Python floats, bit for bit the same."""
    def step(x, g, out=None):
        return np.multiply(x + g, kappa, out=out)

    def loop(x, g):
        out = []
        for e in g.tolist():
            x = kappa * (x + e)
            out.append(x)
        return out
    return step, loop


def driven_chain(step, loop, z0, g):
    """States ``z[:, 0..n]`` of ``_block_chain`` from the starts ``z0``,
    with the results of its block passes."""
    z = np.empty((len(g), g.shape[1] + 1), order="F")
    z[:, 0] = z0
    passes, real = [], simulate._block_pass

    def record(*args):
        passes.append(real(*args))
        return passes[-1]
    with mock.patch.object(simulate, "_block_pass", side_effect=record):
        _block_chain(step, loop, z, g)
    return z, passes


class TestBlockDriver:
    """The block-pass driver knows no family: with any step that is a
    function of its state and draw alone it gives the loop's chain."""

    @given(kappa=st.floats(0.05, 0.9) | st.floats(0.99, 0.999),
           z0=st.floats(0.0, 50.0), seed=st.integers(0, 2 ** 32 - 1),
           n=st.sampled_from([1, 2, 5 * _BLOCKS * _BLOCK_STEPS + 17])
           | st.integers(_BLOCKS * _BLOCK_STEPS - 1,
                         _BLOCKS * _BLOCK_STEPS + 3 * _BLOCK_STEPS),
           rows=st.sampled_from([1, 3]), hold=st.booleans())
    @example(kappa=0.99, z0=5.0, seed=0,
             n=_BLOCKS * _BLOCK_STEPS + 2 * _BLOCK_STEPS, rows=1, hold=True)
    @settings(max_examples=60, deadline=None)
    def test_affine_step_matches_loop(self, kappa, z0, seed, n, rows, hold):
        # a single chain passes once n exceeds _BLOCKS * _BLOCK_STEPS by the
        # probe's steps.  With hold, the first draw keeps z[1] at about z[0],
        # so the probe meets at once, and the passes start from 64-step
        # blocks, which near kappa = 1 they leave unmet
        step, loop = affine_step_and_loop(kappa)
        g = np.random.default_rng(seed).exponential(size=(rows, n))
        if hold:
            g[:, 0] = z0 / kappa - z0
        z, _ = driven_chain(step, loop, z0, g)
        for row, draws in zip(z, g):
            assert row.tobytes() == np.array([z0] + loop(z0, draws)).tobytes()

    def test_unmet_blocks_near_kappa_one(self):
        # the probe meets at once, so the first pass runs 64-step blocks;
        # at kappa = 0.99 a guess 64 steps on is still off, so the pass
        # leaves a block unmet, and so does the next, of 256-step blocks,
        # and the chain is still the loop's
        step, loop = affine_step_and_loop(0.99)
        g = np.random.default_rng(1).exponential(
            size=(1, 5 * _BLOCKS * _BLOCK_STEPS + 17))
        g[0, 0] = 5.0 / 0.99 - 5.0
        z, passes = driven_chain(step, loop, 5.0, g)
        assert [met for _, met in passes] == [False, False]
        assert z[0].tobytes() == np.array([5.0] + loop(5.0, g[0])).tobytes()

    def test_fast_chain_meets_in_passes(self):
        # at kappa = 0.2 every block meets in the first pass
        step, loop = affine_step_and_loop(0.2)
        g = np.random.default_rng(2).exponential(
            size=(1, 4 * _BLOCKS * _BLOCK_STEPS))
        z, passes = driven_chain(step, loop, 1.0, g)
        assert passes == [(passes[0][0], True)]
        assert z[0].tobytes() == np.array([1.0] + loop(1.0, g[0])).tobytes()


# Power-rate models with r = kappa**p = 1/2, 1/sqrt(2) (criterion 10's sqrt
# model) and 0.8, up to rounding
PERPETUITY_MODELS = {"r_half": tcp_model(),
                     "r_sqrt_half": bacterial_model(delta=0.5),
                     "r_0.8": tcp_model(kappa=0.8 ** 0.5, delta=1.0)}


class TestStationaryLaw:
    """The exact stationary law of a power-rate chain, the perpetuity of
    ``tests/oracles.py``, against quadrature and against the chain."""

    @pytest.mark.parametrize("model", PERPETUITY_MODELS.values(),
                             ids=PERPETUITY_MODELS)
    def test_mass_mean_and_distribution(self, model):
        p = model.power_exponent
        r, s = model.jump.kappa ** p, p * model.flow.c / model.rate.lam

        def integral(f, a, b):
            return integrate.quad(f, a, b, limit=200)[0]

        density = lambda y: perpetuity_density(model, y)
        assert integral(density, 0.0, np.inf) == pytest.approx(1.0, abs=1e-9)
        # W = Z**p has mean r*s/(1 - r)
        mean = integral(lambda y: y ** p * density(y), 0.0, np.inf)
        assert mean == pytest.approx(r * s / (1.0 - r), rel=1e-9)
        for y in (0.5, 1.0, 2.0, 4.0):
            assert perpetuity_cdf(model, y) == pytest.approx(
                integral(density, 0.0, y), abs=1e-9)

    @pytest.mark.parametrize("model", [tcp_model(), tcp_model(delta=1.0)],
                             ids=["tcp", "tcp_p2"])
    def test_chain_marginal_is_the_perpetuity(self, model):
        # in w the chain is an AR(1) step with factor r = 1/2 or 1/4, so
        # states 40 transitions apart are correlated by at most 2**-40, and
        # the first of them is as far from z0
        z = simulate_chain(model, 1.0, 400_000, 0).z[40::40]
        assert len(z) == 10_000
        result = stats.kstest(z, lambda y: perpetuity_cdf(model, y))
        assert result.pvalue > 0.01


SHAPE_MODELS = {"tcp": tcp_model(kappa=0.3, delta=1.0),
                "bacterial": bacterial_model(delta=2.0),
                "quadratic": tcp_quadratic_model(), "generic": MC_GENERIC}


# built-in rates of numeric models, and CustomRates of the same expressions
SAME_RATE_MODELS = [
    (MC_GENERIC, Model(MC_GENERIC.flow, MC_GENERIC.jump,
                       CustomRate(lambda x: (x - 1.0) ** 2 + 0.5))),
    (Model(Flow("exponential", 1.5), JumpMap(0.5), PowerRate(1.3, 0.0)),
     Model(Flow("exponential", 1.5), JumpMap(0.5),
           CustomRate(lambda x: 1.3 * x ** 0.0))),
]


@pytest.mark.parametrize("builtin, custom", SAME_RATE_MODELS,
                         ids=["quadratic", "power_delta_0"])
def test_builtin_rate_samples_as_custom_rate(builtin, custom):
    # the numeric sampler evaluates every rate through its rate(), one
    # Python float at a time, so a built-in rate and a CustomRate of its
    # expression give the same chains and next states, bit for bit
    for z0 in (1.0, 50.0):
        for n in (1, 7, 500):
            assert (simulate_chain(builtin, z0, n, 2).z.tobytes()
                    == simulate_chain(custom, z0, n, 2).z.tobytes())
    zs = np.geomspace(0.05, 50.0, 60)
    es = chain_draws(4, 60)
    assert (sample_next(builtin, zs, es).tobytes()
            == sample_next(custom, zs, es).tobytes())


@pytest.mark.parametrize("family", SHAPE_MODELS)
def test_sample_next_broadcasts(family):
    # arrays give elementwise the scalar results, bit for bit
    model = SHAPE_MODELS[family]
    es = chain_draws(1, 4)
    zs = np.array([0.5, 1.0, 2.5])
    one = [[sample_next(model, z, e) for e in es] for z in zs]
    assert all(type(v) is float for row in one for v in row)
    got = sample_next(model, 1.0, es)
    assert got.shape == (4,)
    assert np.array_equal(got, one[1])
    got = sample_next(model, zs[:, None], es)
    assert got.shape == (3, 4)
    assert np.array_equal(got, one)
    # an empty batch is no chain, in any family
    assert sample_next(model, np.zeros((0, 3)), 1.0).shape == (0, 3)


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

    def test_no_transition_rejected(self):
        chain = JumpChain(z=np.array([1.0]), model=tcp_model())
        with pytest.raises(InconsistentChainError,
                           match="^need at least one transition$"):
            reconstruct_times(chain)

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
            acc = (cumulative(m.rate, upper) - cumulative(m.rate, z_prev)) / m.flow.c
            assert acc == pytest.approx(draws[k], rel=1e-10, abs=1e-12)

    def test_strictly_increasing(self):
        m = bacterial_model(delta=2.0)
        chain = simulate_chain(m, 1.0, 300, 3)
        times = reconstruct_times(chain)
        assert np.all(np.diff(times) > 0)

    # a chain file may hold a state an ulp below its jump image, inside the
    # support tolerance, though the samplers hold theirs at the image: here
    # z[1], one ulp below kappa*z[0] = 10
    BELOW = JumpChain(z=np.array([20.0, 9.999999999999998, 4.999999999999999,
                                  2.5, 1.2500000000124758, 0.6280218341276934]),
                      model=tcp_model(delta=20.0))

    def test_state_rounded_below_jump_image(self):
        chain = self.BELOW
        assert chain.z[1] < chain.model.jump.apply(chain.z[0])
        times = reconstruct_times(chain)
        assert np.all(np.isfinite(times))
        assert np.all(np.diff(times) >= 0) and times[0] >= 0

    def test_state_rounded_below_jump_image_roundtrip(self):
        chain = self.BELOW
        text = chain_to_text(chain, reconstruct_times(chain))
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

    def test_travel_time_overflow_raises(self):
        # from z0 = 1e300 a state's pre-jump position lies up to an ulp
        # (about 1e284) past the state before it, and c = 1e-300
        chain = simulate_chain(tcp_model(c=1e-300, delta=1.0), 1e300, 20, 0)
        with pytest.raises(StateRangeError,
                           match="travel time exceeds double range"):
            reconstruct_times(chain)

    # kappa = 1e-300, so every pre-jump position z/kappa of these chains
    # overflows, though each jump time fits
    FAR = [Model(Flow("exponential", 1e300), JumpMap(1e-300),
                 PowerRate(1e-300, 1.0)),
           Model(Flow("additive", 1e300), JumpMap(1e-300),
                 PowerRate(1e-300, 0.0))]

    @pytest.mark.parametrize("model", FAR, ids=["exponential", "additive"])
    def test_overflowing_pre_jump_position(self, model):
        # the time where z/kappa is made: (log z' - log kappa - log z)/c
        # and z'/(kappa*c) - z/c; it was a RuntimeWarning, and then a
        # travel time out of double range
        chain = simulate_chain(model, 1e9, 20, 0)
        with np.errstate(over="ignore"):
            assert np.all(chain.z[1:] / 1e-300 == math.inf)
        times = reconstruct_times(chain)
        ctx = decimal.Context(prec=40)
        x = [decimal.Decimal(v) for v in chain.z.tolist()]
        kappa, c = decimal.Decimal(1e-300), decimal.Decimal(1e300)
        if model.flow.variant == "additive":
            gaps = [(y / kappa - z) / c for z, y in zip(x, x[1:])]
        else:
            gaps = [(y.ln(ctx) - kappa.ln(ctx) - z.ln(ctx)) / c
                    for z, y in zip(x, x[1:])]
        want = np.cumsum([float(ctx.plus(g)) for g in gaps])
        np.testing.assert_allclose(times, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("model", FAR, ids=["exponential", "additive"])
    def test_times_that_fit_keep_their_bits(self, model):
        # z[1]/kappa = 1e50 fits and z[2]/kappa does not: the first time
        # is the travel time to the pre-jump position, as before
        chain = JumpChain(z=np.array([1e9, 1e-250, 1e9]), model=model)
        times = reconstruct_times(chain)
        assert times[0] == model.flow.travel_time(1e9, 1e-250 / 1e-300)
        assert np.isfinite(times[1]) and times[1] > times[0]

    def test_jump_time_overflow_raises(self):
        # each duration, 1e8/c = 1e308, fits, but their sum does not
        z1 = 0.5 * (1.0 + 1e8)
        chain = JumpChain(z=np.array([1.0, z1, 0.5 * (z1 + 1e8)]),
                          model=tcp_model(c=1e-300))
        with pytest.raises(StateRangeError,
                           match=r"jump time of z\[2\] exceeds double range"):
            reconstruct_times(chain)


class TestSurvivalIdentity:
    @pytest.mark.parametrize("model,survival", [
        (tcp_model(kappa=0.5, c=1.0, lam=1.0, delta=0.0),
         lambda m, x, y: np.exp(-(cumulative(m.rate, y / m.jump.kappa)
                                  - cumulative(m.rate, x)) / m.flow.c)),
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


def _times(chain, times):
    """The ``times`` argument of ``chain_to_text``: the jump times, or None."""
    return reconstruct_times(chain) if times else None


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
        text = chain_to_text(chain, reconstruct_times(chain))
        back = chain_from_text(text, m)
        assert np.array_equal(back.z, chain.z)

    @pytest.mark.parametrize("times", [False, True])
    def test_blank_and_comment_lines_in_body(self, times):
        # both readers skip them
        m = bacterial_model(delta=2.0)
        chain = simulate_chain(m, 1.0, 30, 9)
        lines = chain_to_text(chain, _times(chain, times)).splitlines()
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

    @pytest.mark.parametrize("times", [False, True])
    def test_matches_per_value_format(self, times):
        chain = simulate_chain(bacterial_model(delta=2.0), 1.0, 200, 5)
        lines = ["# model: " + chain.model.name, f"# seed: {chain.seed}",
                 "# columns: z" + ("\tt" if times else ""), f"{chain.z[0]:.17g}"]
        t = reconstruct_times(chain)
        lines += [f"{chain.z[k]:.17g}" + (f"\t{t[k - 1]:.17g}" if times else "")
                  for k in range(1, len(chain.z))]
        assert chain_to_text(chain, _times(chain, times)) == \
            "\n".join(lines) + "\n"

    @pytest.mark.parametrize("k", [-1, 1])
    def test_times_of_another_length_rejected(self, k):
        chain = simulate_chain(tcp_model(), 1.0, 20, 5)
        times = np.arange(1.0, 21.0 + k)
        with pytest.raises(ValueError,
                           match=f"^times: {20 + k} jump times for 20 jumps$"):
            chain_to_text(chain, times)

    def test_time_column_on_first_state_rejected(self):
        with pytest.raises(ChainFormatError, match="line 2:"):
            chain_from_text("# columns: z\tt\n1.0\t0.0\n0.8\t1.0\n", tcp_model())


CHAIN_FILE_CASES = dict(
    family=st.sampled_from(["tcp", "exponential", "quadratic", "generic"]),
    kappa=st.floats(0.05, 0.95), n=st.integers(2, 40), times=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1), data=st.data())


class TestChainFileConsistency:
    """A chain file state below the jump image of the one before is rejected."""

    @given(**CHAIN_FILE_CASES)
    @settings(max_examples=60, deadline=None)
    def test_simulated_accepted_shrunk_state_rejected(self, family, kappa, n,
                                                      times, seed, data):
        m = {"tcp": tcp_model(kappa=kappa, delta=1.0),
             "exponential": power_model(True, kappa, 2.0, 1.0, 1.5),
             "quadratic": tcp_quadratic_model(kappa=kappa),
             "generic": Model(Flow("exponential", 2.0), JumpMap(kappa),
                              ShiftedQuadraticRate(1.0, 0.5))}[family]
        chain = simulate_chain(m, 1.0, n, seed)
        lines = chain_to_text(chain, _times(chain, times)).splitlines()
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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1.0", "0"])
    @pytest.mark.parametrize("times", [False, True])
    def test_bad_state_line_named(self, bad, times):
        # z[5] on line 9, moved to line 11 by a blank and a comment line
        m = tcp_model()
        chain = simulate_chain(m, 1.0, 10, 3)
        lines = chain_to_text(chain, _times(chain, times)).splitlines()
        lines[8] = "\t".join([bad] + lines[8].split("\t")[1:])
        lines[5:5] = ["", "# note"]
        with pytest.raises(InconsistentChainError,
                           match=r"^chain line 11: z\[5\] = "):
            chain_from_text("\n".join(lines), m)

    def test_line_named_past_comment_lines(self):
        # the line number counts blank and comment lines
        m = tcp_model()
        lines = chain_to_text(simulate_chain(m, 1.0, 10, 3)).splitlines()
        lines[8] = f"{0.4 * float(lines[7]):.17g}"    # z[5] on line 9
        lines[5:5] = ["", "# note"]
        with pytest.raises(InconsistentChainError,
                           match=r"chain line 11: z\[5\]"):
            chain_from_text("\n".join(lines), m)


def states_of(rows, times=False, z0="1"):
    """``_states_from_text`` of a file with header, ``z0`` and ``rows``; in
    a file with times, each row gets a time field after a tab."""
    body = [r + ("\t%.17g" % (i + 0.5) if times else "")
            for i, r in enumerate(rows)]
    head = ["# model: test", "# columns: z" + ("\tt" if times else ""), z0]
    return simulate._states_from_text("\n".join(head + body) + "\n")


def field_format(fmt):
    return repr if fmt == "repr" else (lambda v: fmt % v)


@pytest.fixture(scope="class")
def exact_reader():
    """Every chain file through the exact reader, as on a platform without
    the bulk decoder's long double."""
    def refuse(block, width):
        raise AssertionError("the bulk decoder ran")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_BULK_DECODE", False)
        mp.setattr(simulate, "_decode_block", refuse)
        yield


@pytest.fixture
def z0_only(monkeypatch):
    """The exact reader allowed to read ``z[0]``'s line alone: any block
    of rows sent to it fails the test."""
    parse = simulate._parse_rows

    def one_line(lines, *args, **kwargs):
        assert len(lines) == 1, "the exact reader read rows"
        return parse(lines, *args, **kwargs)
    monkeypatch.setattr(simulate, "_parse_rows", one_line)


class TestBulkDecode:
    """The bulk decoder against its oracle, ``float()`` of each field."""

    @given(xs=st.lists(st.one_of(
               st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
               st.floats(1e-4, 1e16)), min_size=1, max_size=60),
           fmt=st.sampled_from(["%.17g", "%.15g", "%.19g", "repr"]),
           times=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_float_of_each_field(self, xs, fmt, times):
        rows = [field_format(fmt)(v) for v in xs]
        z = states_of(rows, times)
        assert np.array_equal(z, [1.0] + [float(r) for r in rows])

    @pytest.mark.parametrize("fmt", ["%.15g", "%.17g", "%.19g", "repr"])
    @pytest.mark.parametrize("times", [False, True])
    def test_many_blocks_match_float(self, fmt, times):
        # about 20 bytes a row: the file spans several 64 KB blocks
        x = 10.0 ** np.random.default_rng(3).uniform(-3, 13, 20_000)
        rows = [field_format(fmt)(v) for v in x.tolist()]
        z = states_of(rows, times)
        assert np.array_equal(z[1:], [float(r) for r in rows])

    def test_midpoint_quotients_match_float(self):
        # the 19-digit decimal nearest the midpoint between x and its upper
        # neighbour; M/10**k in the long double often lands on that midpoint,
        # where its cast to a double may round the wrong way
        x = 10.0 ** np.random.default_rng(1).uniform(-3, 13, 10_000)
        exact = decimal.Context(prec=60)
        rows = []
        for v in x.tolist():
            mid = exact.divide(exact.add(decimal.Decimal(v), decimal.Decimal(
                math.nextafter(v, math.inf))), 2)
            digits = decimal.Decimal(1).scaleb(mid.adjusted() - 18)
            rows.append(format(mid.quantize(digits, context=exact), "f"))
        z = states_of(rows)
        assert np.array_equal(z[1:], [float(r) for r in rows])
        if simulate._BULK_DECODE:
            m = np.array([int(r.replace(".", "")) for r in rows],
                         dtype=np.uint64)
            k = np.array([len(r.partition(".")[2]) for r in rows])
            q = m.astype(np.longdouble) / simulate._POW10[k]
            lo = q.astype(float)
            up = np.nextafter(lo, np.where(q > lo, np.inf, -np.inf))
            on_midpoint = q == (lo.astype(np.longdouble) + up) / 2
            assert on_midpoint.sum() > 1000
            # and a plain cast would have been wrong for many of them
            assert (lo != z[1:]).sum() > 500

    @pytest.mark.parametrize("text, want", [
        # 20 digits: np.fromstring would saturate the mantissa at 2**64 - 1
        ("1\n12345678901234567891\n", [1.0, 12345678901234567891.0]),
        ("1\n99999999999999999999.5\n", [1.0, 1e20]),
        ("1e-06\n1e-05\n", [1e-06, 1e-05]),
        ("1\n+0.5\n", [1.0, 0.5]),
        ("1\n1_0\n", [1.0, 10.0]),
        ("1\n0.5", [1.0, 0.5]),                          # no final newline
        ("# columns: z\r\n1\r\n0.5\r\n", [1.0, 0.5]),
        ("1\n٠.٥\n", [1.0, 0.5]),              # Arabic-Indic digits
        ("1\n0.00000000000000000000000000012\n"          # 29 decimals
         "0.0000000000000000000000000001\n", [1.0, 1.2e-28, 1e-28]),
        ("1\n5.\n.5\n", [1.0, 5.0, 0.5]),
        # lines str.splitlines() breaks at \r: the exact reader's rows
        ("1\n0.5\n0.7\r2\n", [1.0, 0.5, 0.7, 2.0]),
        ("# x\r1\n0.5\n", [1.0, 0.5]),
    ])
    def test_parity_cases(self, text, want):
        m = tcp_model(kappa=1e-30)
        assert np.array_equal(chain_from_text(text, m).z, want)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_BULK_DECODE", False)
            assert np.array_equal(chain_from_text(text, m).z, want)

    @pytest.mark.parametrize("text, error, message", [
        ("1\nnan\n", InconsistentChainError, r"^chain line 2: z\[1\] = nan:"),
        ("1\n0.5\n-0.5\n", InconsistentChainError,
         r"^chain line 3: z\[2\] = -0\.5:"),
        ("1\n0.5\n1.2.3\n", ChainFormatError,
         r"^chain line 3: not a number: '1\.2\.3'$"),
        ("1\n0.5\n.\n", ChainFormatError,
         r"^chain line 3: not a number: '\.'$"),
        ("1\n0.5\t1\n0.7\n", ChainFormatError,
         r"^chain line 3: 1 tab-separated fields, expected 2: '0\.7'$"),
        ("1\n0.5\t1\n0.7\t\n", ChainFormatError,
         r"^chain line 3: 1 tab-separated fields, expected 2: '0\.7\\t'$"),
        ("1\n0.5\t1\n0.7\tx\n", ChainFormatError,
         r"^chain line 3: not a number: '0\.7\\tx'$"),
        ("# x\rz\n1\n0.5\n", ChainFormatError,
         r"^chain line 2: not a number: 'z'$"),
        ("# only a header\n", ChainFormatError,
         r"^chain file has no data rows$"),
    ])
    def test_parity_errors(self, text, error, message):
        m = tcp_model(kappa=1e-30)
        for bulk in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simulate, "_BULK_DECODE",
                           bulk and simulate._BULK_DECODE)
                with pytest.raises(error, match=message):
                    chain_from_text(text, m)

    @pytest.mark.skipif(not simulate._BULK_DECODE,
                        reason="no long double for the bulk decoder")
    @pytest.mark.parametrize("times", [False, True])
    def test_plain_file_takes_the_bulk_decoder(self, monkeypatch, times):
        # the exact reader reads z[0] alone; a second call would be the body
        calls = []
        parse = simulate._parse_rows
        monkeypatch.setattr(simulate, "_parse_rows",
                            lambda *a, **k: calls.append(a) or parse(*a, **k))
        chain = simulate_chain(tcp_model(), 1.0, 300, 4)
        back = chain_from_text(chain_to_text(chain, _times(chain, times)),
                               chain.model)
        assert np.array_equal(back.z, chain.z)
        assert len(calls) == 1


BULK_ONLY = pytest.mark.skipif(not simulate._BULK_DECODE,
                               reason="no long double for the bulk decoder")


def outcome(text, model, bulk):
    """The states ``chain_from_text`` reads from ``text``, or the type and
    message of its error, with the bulk decoder on or off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_BULK_DECODE", bulk and simulate._BULK_DECODE)
        try:
            return chain_from_text(text, model).z.tolist()
        except (ChainFormatError, InconsistentChainError) as exc:
            return type(exc), str(exc)


class TestBulkDecodeOfEditedFiles:
    """Comment lines, blank lines and CR line ends on the bulk decoder."""

    @staticmethod
    def edited(times, edit):
        # 4,000 rows span several 64 KB blocks; z[0] is on line 4
        chain = simulate_chain(tcp_model(), 1.0, 4000, 4)
        lines = chain_to_text(chain, _times(chain, times)).splitlines()
        extra = {"comment": ["# note"], "blank": [""],
                 "spaces": ["  ", "\t", " # indented note"]}.get(edit, [])
        lines[3000:3000] = extra
        lines[4:4] = extra
        newline = {"crlf": "\r\n", "cr": "\r"}.get(edit, "\n")
        return chain, newline.join(lines) + newline

    @BULK_ONLY
    @pytest.mark.usefixtures("z0_only")
    @pytest.mark.parametrize("edit", ["comment", "blank", "spaces", "crlf",
                                      "cr"])
    @pytest.mark.parametrize("times", [False, True])
    def test_takes_the_bulk_decoder(self, times, edit):
        chain, text = self.edited(times, edit)
        for data in (text, text.encode()):
            assert np.array_equal(chain_from_text(data, chain.model).z,
                                  chain.z)

    @pytest.mark.parametrize("bad", [
        "0.7x", "1.2.3", ".", "0.7\t1.0\t2.0", "0.5\t", "\t", "1;2", "nan",
        "inf", "-0.5", "0", "1e-300", "0.5 # note", " 0.5", "+1e1", "",
        "# 0.5"])
    @pytest.mark.parametrize("times", [False, True])
    def test_line_named_as_by_the_exact_reader(self, bad, times):
        # the bulk decoder refuses what it cannot read, and the exact reader
        # names the line, counting comment and blank lines
        m = tcp_model()
        chain, text = self.edited(times, "comment")
        lines = text.splitlines()
        lines[2500] = "\t".join([bad] + lines[2500].split("\t")[1:])
        text = "\n".join(lines) + "\n"
        bulk = outcome(text.encode(), m, True)
        assert bulk == outcome(text, m, False)

    @BULK_ONLY
    @pytest.mark.parametrize("data", [
        b"# h\n1.0\n\n", b"# h\n1.0\n# note\n", b"# h\n1\n \t\n0.75\n",
        # a run of comment lines longer than a 64 KB block
        b"# h\n1\n0.75\n" + b"# note\n" * 10_000 + b"0.5\n",
        # a trailing comment that starts at a block cut, and one that fills
        # a block of its own
        b"# h\n1\n0.755\n" + b"0.75\n" * 13_106 + b"# note\n",
        b"# h\n1\n" + b"0.75\n" * 13_106 + b"#" * 70_000 + b"\n",
    ])
    def test_blocks_without_data_rows(self, request, data):
        m = tcp_model(kappa=1e-30)
        want = outcome(data.decode(), m, False)
        request.getfixturevalue("z0_only")
        assert chain_from_text(data, m).z.tolist() == want

    @BULK_ONLY
    @pytest.mark.usefixtures("z0_only")
    @pytest.mark.parametrize("edit", ["name", "header", "body"])
    @pytest.mark.parametrize("times", [False, True])
    def test_non_ascii_comments_take_the_bulk_decoder(self, times, edit):
        # a model name as simulate writes it, a header comment line, or a
        # comment line among the rows
        m = tcp_model(name="bactérie κ=0.5" if edit == "name" else "")
        chain = simulate_chain(m, 1.0, 4000, 4)
        lines = chain_to_text(chain, _times(chain, times)).splitlines()
        if edit != "name":
            lines.insert(1 if edit == "header" else 3000, "# modèle κ")
        text = "\n".join(lines) + "\n"
        assert not text.isascii()
        for data in (text, text.encode()):
            assert np.array_equal(chain_from_text(data, m).z, chain.z)

    @BULK_ONLY
    @pytest.mark.parametrize("times", [False, True])
    def test_indented_row_sends_its_block_alone(self, monkeypatch, times):
        # the bulk decoder refuses the block of one row of 1e5 that starts
        # with a space; the exact reader reads z[0]'s line and that block
        x = 10.0 ** np.random.default_rng(5).uniform(-3, 3, 100_000)
        rows = ["%.17g" % v for v in x.tolist()]
        rows[60_000] = " " + rows[60_000]
        calls = []
        parse = simulate._parse_rows
        monkeypatch.setattr(simulate, "_parse_rows", lambda lines, *a, **k:
                            calls.append(lines) or parse(lines, *a, **k))
        z = states_of(rows, times)
        assert np.array_equal(z[1:], [float(r) for r in rows])
        assert [len(lines) > 1 for lines in calls] == [False, True]
        block = "\n".join(calls[1])
        assert f"\n{rows[60_000]}" in block and len(block.encode()) <= 65536

    @pytest.mark.parametrize("data, line", [
        (b"# h\n1\n0.5\n\xff\n", 4),
        (b"# h\r\n1\r\n0.5\xe9\r\n0.7\r\n", 3),
        (b"# \xc3\n1\n", 1),
    ])
    def test_not_utf8_named(self, data, line):
        with pytest.raises(ChainFormatError,
                           match=f"^chain line {line}: not UTF-8 text$"):
            chain_from_text(data, tcp_model(kappa=1e-30))

    def test_non_ascii_text_takes_the_exact_reader(self):
        # a non-breaking space: str.strip knows it, the bulk decoder does
        # not.  A line separator ends no line: only LF does
        m = tcp_model(kappa=1e-30)
        text = "# h\n1\n0.5\u00a0\n"
        assert chain_from_text(text, m).z.tolist() == [1.0, 0.5]
        assert chain_from_text(text.encode(), m).z.tolist() == [1.0, 0.5]
        text += "0.7\u20282\n"
        for data in (text, text.encode()):
            with pytest.raises(ChainFormatError, match=(
                    r"^chain line 4: not a number: '0\.7\\u20282'$")):
                chain_from_text(data, m)


class TestDecoderAgainstFloat:
    """The bulk decoder against ``float()`` and its long-way oracle, on
    random decimals of up to 19 digits and 27 decimals."""

    @BULK_ONLY
    @given(seed=st.integers(0, 2 ** 32 - 1), times=st.booleans())
    @settings(max_examples=6, deadline=None)
    def test_random_decimals(self, seed, times):
        rng = np.random.default_rng(seed)
        n = 30_000   # about 15 long-double midpoints, 1 in 2,048 draws
        m = rng.integers(0, 10 ** rng.integers(1, 20, n, dtype=np.uint64),
                         dtype=np.uint64)
        k = rng.integers(0, 28, n)
        rows = []
        for mi, ki in zip(m.tolist(), k.tolist()):
            digits = str(mi).rjust(ki + 1, "0")
            rows.append(f"{digits[:-ki]}.{digits[-ki:]}" if ki else digits)
        want = [float(r) for r in rows]
        body = "".join(r + ("\t%.17g\n" % (i + 0.5) if times else "\n")
                       for i, r in enumerate(rows))
        assert np.array_equal(states_of(rows, times)[1:], want)
        assert np.array_equal(decode_block_oracle(body.encode(), 1 + times),
                              want)
        q = m.astype(np.longdouble) / simulate._POW10[k]
        lo = q.astype(float)
        up = np.nextafter(lo, np.where(q > lo, np.inf, -np.inf))
        assert (q == (lo.astype(np.longdouble) + up) / 2).sum() > 0


class TestTextWriter:
    """``text_blocks`` against ``"%.17g" %`` of each value, row by row in
    its oracle ``text_rows``."""

    # signed zeros, both ends of double range and of its normal range,
    # 2**60, where "%.17g" switches between fixed and exponent form (1e-5
    # and 1e-4, 1e16 and 1e17: the fast path's ends), and non-finites
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308, 2.0 ** 60,
             1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e280, 1.0, 0.1, -2.5,
             math.inf, -math.inf, math.nan]

    @staticmethod
    def check(*columns):
        got = b"".join(simulate.text_blocks(*columns)).decode()
        assert got == "".join(line + "\n" for line in text_rows(*columns))

    def test_edges_and_their_neighbours(self):
        near = [np.array(self.EDGES)]
        with np.errstate(over="ignore"):
            for way in (np.inf, -np.inf):
                x = near[0]
                for _ in range(3):
                    x = np.nextafter(x, way)
                    near.append(x)
        x = np.concatenate(near)
        self.check(x)
        self.check(x, -x, x[::-1])

    def test_exact_ties(self):
        # doubles of 18 digits that end in 5, halfway between two 17-digit
        # decimals: n + j/8 on [2**49, 1e15), n + j/4 on [2**50, 2**51),
        # and odd n / 2**(17 - e) on [10**e, 10**(e + 1)) for e in -4 .. 14
        rng = np.random.default_rng(7)
        x = np.concatenate([
            rng.integers(2 ** 49, 10 ** 15, 5000)
            + rng.choice([0.125, 0.375, 0.625, 0.875], 5000),
            rng.integers(2 ** 50, 2 ** 51, 5000) + rng.choice([0.25, 0.75], 5000)]
            + [(rng.integers(math.ceil(10.0 ** e * 2 ** (17 - e)),
                             int(10.0 ** (e + 1) * 2 ** (17 - e)) - 1, 1000)
                // 2 * 2 + 1) / 2.0 ** (17 - e) for e in range(-4, 15)])
        assert all(len(d := str(decimal.Decimal(v)).lstrip("0.").replace(
            ".", "")) == 18 and d.endswith("5") for v in x.tolist())
        self.check(x, -x)

    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), max_size=300),
           floats=st.lists(st.floats(), max_size=100),
           width=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_random_bit_patterns(self, bits, floats, width):
        x = np.concatenate([np.array(bits, dtype=np.uint64).view(float),
                            np.array(floats, dtype=float)])
        self.check(*x[:len(x) // width * width].reshape(-1, width).T)

    def test_many_random_bit_patterns(self):
        # several blocks of 8,192 values
        x = np.random.default_rng(3).integers(
            0, 2 ** 64, 60_000, dtype=np.uint64).view(float)
        self.check(x)
        self.check(*x.reshape(-1, 3).T)


@pytest.mark.usefixtures("exact_reader")
class TestSerializationExactReader(TestSerialization):
    """:class:`TestSerialization` with the bulk decoder off."""


@pytest.mark.usefixtures("exact_reader")
class TestChainFileConsistencyExactReader(TestChainFileConsistency):
    """:class:`TestChainFileConsistency` with the bulk decoder off."""

    # a given test of its own: hypothesis runs each from one class only
    @given(**CHAIN_FILE_CASES)
    @settings(max_examples=60, deadline=None)
    def test_simulated_accepted_shrunk_state_rejected(self, **case):
        base = TestChainFileConsistency
        base.test_simulated_accepted_shrunk_state_rejected.hypothesis \
            .inner_test(self, **case)
