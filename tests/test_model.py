import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from oracles import advance, cumulative, hazard, transition_weight_numeric
from pdmprate import (ConfigError, CustomRate, Flow, JumpChain, JumpMap,
                      Model, PowerRate, ShiftedQuadraticRate, StateRangeError,
                      bacterial_model, reconstruct_times, tcp_model,
                      tcp_quadratic_model)

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

    # a chain [x, kappa*y] holds one jump, whose time is the flow's travel
    # time from x to y
    @staticmethod
    def _jump_time(flow, x, y, kappa=0.5):
        model = Model(flow, JumpMap(kappa), PowerRate(1.0, 1.0))
        return reconstruct_times(JumpChain(z=np.array([x, kappa * y]),
                                           model=model))[0]

    def test_travel_time_additive(self):
        assert self._jump_time(Flow("additive", 2.0), 1.0, 5.0) == 2.0

    def test_travel_time_exponential(self):
        assert self._jump_time(Flow("exponential", 1.0), 1.0, np.e) == \
            pytest.approx(1.0)

    def test_travel_time_identity(self):
        for flow in (Flow("additive", 1.5), Flow("exponential", 0.7)):
            assert self._jump_time(flow, 2.0, 2.0) == 0.0

    def test_travel_time_overflow_raises(self):
        # (y - x)/c = 1e296/1e-300 is past the largest double
        with pytest.raises(StateRangeError,
                           match="travel time exceeds double range"):
            self._jump_time(Flow("additive", 1e-300), 1e300, 1.0001e300)

    def test_travel_time_from_subnormal_start(self):
        # y/x overflows from x = 5e-324, but its log, 744.4, does not
        flow = Flow("exponential", 1e-300)
        assert self._jump_time(flow, 5e-324, 1.0) == \
            pytest.approx(-np.log(5e-324) / 1e-300, rel=1e-15)
        assert self._jump_time(flow, 1.0, 2.0) == np.log(2.0) / 1e-300

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

    @given(x=finite_pos, t=finite_time, c=st.floats(min_value=0.1, max_value=5.0),
           kappa=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=200)
    def test_travel_time_inverts_advance(self, x, t, c, kappa):
        for variant in ("additive", "exponential"):
            flow = Flow(variant, c)
            y = advance(flow, x, t)
            assert self._jump_time(flow, x, y, kappa) == \
                pytest.approx(t, rel=1e-12)


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

    def test_exponential_weight_where_c_y_overflows(self):
        # c*y = 3.4e308 overflows; the weight 1/(c*y) is subnormal but not 0
        # (it was a RuntimeWarning, then 0)
        m = Model(Flow("exponential", 1.7e308), JumpMap(0.5),
                  PowerRate(1.0, 1.0))
        got = m.transition_weight(np.array([2.0, 1e-300]))
        assert got[0] == pytest.approx(1.0 / 3.4e308, rel=1e-14)
        assert got[1] == 1.0 / (1.7e308 * 1e-300)
        assert m.transition_weight(2.0) == got[0]

    @pytest.mark.parametrize("c", [1e-308, 5e-324])
    def test_additive_weight_not_finite_rejected(self, c):
        # 1/(kappa*c) overflows (1e-308) or divides by a zero product (5e-324)
        with pytest.raises(ConfigError, match="^c: "):
            tcp_model(c=c)
        # the exponential flow's weight 1/(c*y) depends on y; c alone is fine
        bacterial_model(c=c)

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
            assert cumulative(rate, x) == pytest.approx(num, rel=1e-8, abs=1e-8)

    def test_cumulative_zero_at_origin(self):
        for rate in (PowerRate(1.0, 0.5), ShiftedQuadraticRate(1.5, 0.3)):
            assert cumulative(rate, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            PowerRate(1.0, -1.0)

    def test_negative_argument(self):
        with pytest.raises(ValueError):
            hazard(PowerRate(1.0, 0.0), -1.0)


FLOAT_RATES = [PowerRate(1.3, 0.0), PowerRate(1.2, -0.5), PowerRate(0.7, 2.5),
               ShiftedQuadraticRate(1.0, 0.5), ShiftedQuadraticRate(2.0, 0.0)]


def numpy_rate(rate, x):
    """The rate's expression in numpy, as ``rate`` evaluates an array."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if isinstance(rate, PowerRate):
            return rate.lam * np.power(x, rate.delta)
        return (x - rate.a) ** 2 + rate.b


class TestRateFloats:
    """A Python float takes the rate's Python-float expression, the one the
    numeric sampler evaluates; every other input keeps numpy's."""

    @pytest.mark.parametrize("rate", FLOAT_RATES)
    def test_float_gives_python_float(self, rate):
        for x in (1e-300, 0.3, 1.0, 7.5, 1e10):
            got = rate.rate(x)
            assert type(got) is float
            if isinstance(rate, PowerRate):
                assert got == rate.lam * x ** rate.delta
            else:
                assert got == (x - rate.a) ** 2 + rate.b
        if rate == PowerRate(1.3, 0.0):
            assert rate.rate(1e-300) == rate.rate(1e300) == 1.3

    def test_float_overflow_raises(self):
        # numpy would return inf with a RuntimeWarning
        with pytest.raises(OverflowError):
            PowerRate(1.0, 200.0).rate(1e300)
        with pytest.raises(OverflowError):
            ShiftedQuadraticRate(1.0, 0.5).rate(1e200)

    @pytest.mark.parametrize("rate", FLOAT_RATES)
    def test_other_inputs_keep_numpy(self, rate):
        # arrays and numpy scalars, and for a power rate 0.0 and x < 0,
        # where Python's ** raises or gives a complex number
        xs = np.array([0.0, -0.5, -2.0, 0.3, 7.5, 1e10])
        want = numpy_rate(rate, xs)
        with np.errstate(invalid="ignore"):
            assert np.array_equal(rate.rate(xs), want, equal_nan=True)
            for x, w in zip(xs, want.tolist()):
                got = rate.rate(x)
                assert type(got) is float
                assert np.array_equal(got, w, equal_nan=True)
                if isinstance(rate, PowerRate) and x <= 0.0:
                    assert np.array_equal(rate.rate(float(x)), w,
                                          equal_nan=True)


class TestFamilies:
    @pytest.mark.parametrize("kappa", [0.05, 0.3, 0.5, 0.95])
    def test_exponential_flow_power_rate_any_kappa(self, kappa):
        # in w = z**delta the exponential-flow chain is linear for every kappa
        power = Model(Flow("exponential", 2.0), JumpMap(kappa),
                      PowerRate(1.0, 1.5))
        assert power.power_exponent == 1.5
        constant = Model(Flow("exponential", 2.0), JumpMap(kappa),
                         PowerRate(1.0, 0.0))
        assert constant.power_exponent == 0.0
        assert tcp_model(kappa=kappa).power_exponent == 1.0

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
        # exactly when p > 0, where the hazard along the flow from z to y is
        # lam/(p*c) * (y**p - z**p)
        assert model.power_exponent == p
        if not family.endswith("_power"):
            return
        z, y = 0.7, 2.3
        lam, c = model.rate.lam, model.flow.c
        speed = ((lambda x: c) if model.flow.variant == "additive"
                 else (lambda x: c * x))
        num, _ = integrate.quad(lambda x: model.rate.rate(x) / speed(x), z, y)
        assert lam / (p * c) * (y ** p - z ** p) == pytest.approx(num,
                                                                  rel=1e-10)
