import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from oracles import advance, hazard, transition_weight_numeric
from pdmprate import (CustomRate, Flow, JumpMap, Model, PowerRate,
                      ShiftedQuadraticRate, UnreachableStateError,
                      bacterial_model, tcp_model, tcp_quadratic_model)

finite_pos = st.floats(min_value=0.01, max_value=50.0,
                       allow_nan=False, allow_infinity=False)
finite_time = st.floats(min_value=0.0, max_value=20.0,
                        allow_nan=False, allow_infinity=False)


class TestFlow:
    def test_additive_advance(self):
        assert advance(Flow("additive", 1.0), 2.0, 3.0) == 5.0

    def test_exponential_identity_at_zero(self):
        assert advance(Flow("exponential", 1.0), 1.0, 0.0) == 1.0

    def test_exponential_advance(self):
        assert advance(Flow("exponential", 1.0), 2.0, np.log(2.0)) == pytest.approx(4.0)

    def test_travel_time_additive(self):
        assert Flow("additive", 2.0).travel_time(1.0, 5.0) == 2.0

    def test_travel_time_exponential(self):
        assert Flow("exponential", 1.0).travel_time(1.0, np.e) == pytest.approx(1.0)

    def test_travel_time_identity(self):
        for flow in (Flow("additive", 1.5), Flow("exponential", 0.7)):
            assert flow.travel_time(2.0, 2.0) == 0.0

    def test_unreachable(self):
        with pytest.raises(UnreachableStateError):
            Flow("additive", 1.0).travel_time(3.0, 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            advance(Flow("additive", 1.0), -1.0, 2.0)
        with pytest.raises(ValueError):
            advance(Flow("additive", 1.0), 1.0, -2.0)

    def test_bad_speed(self):
        with pytest.raises(ValueError):
            Flow("additive", 0.0)

    @given(x=finite_pos, s=finite_time, t=finite_time,
           c=st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=200)
    def test_semigroup(self, x, s, t, c):
        for variant in ("additive", "exponential"):
            flow = Flow(variant, c)
            lhs = advance(flow, advance(flow, x, s), t)
            rhs = advance(flow, x, s + t)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(x=finite_pos, t=finite_time, c=st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=200)
    def test_travel_time_inverts_advance(self, x, t, c):
        for variant in ("additive", "exponential"):
            flow = Flow(variant, c)
            y = advance(flow, x, t)
            assert advance(flow, x, flow.travel_time(x, y)) == \
                pytest.approx(y, rel=1e-12)


class TestJumpMap:
    def test_roundtrip(self):
        jm = JumpMap(0.37)
        for x in (0.5, 1.0, 7.3):
            assert jm.invert(jm.apply(x)) == pytest.approx(x, rel=1e-15)

    def test_contraction_bound(self):
        jm = JumpMap(0.5)
        xs = np.linspace(0.01, 10, 100)
        assert np.all(jm.apply(xs) <= 0.5 * xs + 1e-15)
        assert np.all(jm.apply(xs) > 0)

    def test_kappa_range(self):
        with pytest.raises(ValueError):
            JumpMap(1.5)
        with pytest.raises(ValueError):
            JumpMap(0.0)


class TestTransitionWeight:
    def test_tcp_constant(self):
        m = tcp_model(kappa=0.5, c=1.0)
        assert m.transition_weight(2.0) == pytest.approx(2.0)
        assert m.transition_weight(5.0) == pytest.approx(2.0)

    def test_bacterial_value(self):
        m = bacterial_model(c=1.0)
        assert m.transition_weight(2.0) == pytest.approx(0.5)

    def test_numeric_matches_closed_form(self):
        # the weight at y is the same from every start x with kappa*x <= y
        rng = np.random.default_rng(7)
        for m in (tcp_model(kappa=0.5, c=1.0), tcp_model(kappa=0.3, c=2.0),
                  bacterial_model(c=1.0), bacterial_model(c=3.0)):
            for _ in range(50):
                y = rng.uniform(0.05, 10.0)
                for x in m.jump.invert(y) * rng.uniform(0.02, 0.9, 5):
                    assert transition_weight_numeric(m, x, y) == pytest.approx(
                        m.transition_weight(y), rel=1e-8, abs=1e-10)


class TestHazard:
    def test_power_constant(self):
        lam, cum = hazard(PowerRate(1.0, 0.0), 3.0)
        assert lam == 1.0 and cum == 3.0

    def test_power_linear(self):
        lam, cum = hazard(PowerRate(1.0, 1.0), 2.0)
        assert lam == 2.0 and cum == 2.0

    def test_quadratic_values(self):
        # quadrature of (x-1)^2 + 0.5 over [0, 1] gives 1/3 + 1/2
        lam, cum = hazard(ShiftedQuadraticRate(1.0, 0.5), 1.0)
        assert lam == pytest.approx(0.5)
        assert cum == pytest.approx(5.0 / 6.0)

    @pytest.mark.parametrize("rate", [
        PowerRate(1.0, 0.0), PowerRate(2.0, 0.5), PowerRate(0.7, 1.0),
        PowerRate(1.0, 2.0), ShiftedQuadraticRate(1.0, 0.5),
        ShiftedQuadraticRate(2.0, 0.0),
    ])
    def test_cumulative_matches_quadrature(self, rate):
        for x in np.linspace(0.5, 10.0, 9):
            num, _ = integrate.quad(rate.rate, 0.0, x)
            assert rate.cumulative(x) == pytest.approx(num, rel=1e-8, abs=1e-8)

    def test_cumulative_zero_at_origin(self):
        for rate in (PowerRate(1.0, 0.5), ShiftedQuadraticRate(1.5, 0.3)):
            assert rate.cumulative(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            PowerRate(1.0, -1.0)

    def test_negative_argument(self):
        with pytest.raises(ValueError):
            hazard(PowerRate(1.0, 0.0), -1.0)


class TestFamilies:
    def test_detection(self):
        assert tcp_model().family == "tcp_power"
        assert tcp_quadratic_model().family == "tcp_quadratic"
        assert bacterial_model(delta=2.0).family == "bacterial_power"
        # delta <= 0 has no closed form under the exponential flow
        m = Model(Flow("exponential", 1.0), JumpMap(0.5), PowerRate(1.0, 0.0))
        assert m.family == "generic"

    @pytest.mark.parametrize("kappa", [0.05, 0.3, 0.5, 0.95])
    def test_exponential_flow_power_rate_any_kappa(self, kappa):
        # in w = z**delta the exponential-flow chain is linear for every kappa
        power = Model(Flow("exponential", 2.0), JumpMap(kappa),
                      PowerRate(1.0, 1.5))
        assert power.family == "bacterial_power"
        constant = Model(Flow("exponential", 2.0), JumpMap(kappa),
                         PowerRate(1.0, 0.0))
        assert constant.family == "generic"
        assert tcp_model(kappa=kappa).family == "tcp_power"

    @pytest.mark.parametrize("model, p, family", [
        (tcp_model(delta=-0.5), 0.5, "tcp_power"),
        (tcp_model(delta=0.0), 1.0, "tcp_power"),
        (tcp_model(delta=2.0), 3.0, "tcp_power"),
        (bacterial_model(delta=0.5), 0.5, "bacterial_power"),
        (bacterial_model(delta=2.0), 2.0, "bacterial_power"),
        (Model(Flow("exponential", 1.0), JumpMap(0.5), PowerRate(1.0, 0.0)),
         0.0, "generic"),
        (Model(Flow("exponential", 1.0), JumpMap(0.5), PowerRate(1.0, -0.5)),
         -0.5, "generic"),
        (tcp_quadratic_model(), None, "tcp_quadratic"),
        (Model(Flow("exponential", 1.0), JumpMap(0.5),
               ShiftedQuadraticRate(1.0, 0.5)), None, "generic"),
        (Model(Flow("additive", 1.0), JumpMap(0.5), CustomRate(np.exp)),
         None, "generic"),
    ])
    def test_power_exponent(self, model, p, family):
        # p = delta + 1 (additive) or delta (exponential); a power family
        # exactly when p > 0
        assert model.power_exponent == p
        assert model.family == family
