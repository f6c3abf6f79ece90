import dataclasses

import numpy as np
import pytest

from oracles import null_distance_oracle
from pdmprate import (Basis, ConfigError, CustomRate, ExperimentConfig, Flow,
                      JumpMap, Model, PowerRate, ShiftedQuadraticRate,
                      bacterial_model,
                      convergence_diagnostics, make_grid, replicate_seed,
                      rows_to_csv, run_experiment, run_replicate, select_model,
                      simulate_chain, tail_assumption_ok, tcp_model,
                      tcp_quadratic_model)
from pdmprate.config import dump_config


def small_config(**kwargs):
    defaults = dict(model=tcp_model(), interval=(0.2, 4.0),
                    n_values=[200, 500], replicates=3, base_seed=17,
                    grid_points=129)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestConfigWeight:
    @pytest.mark.parametrize("c, ok", [(1e-300, True), (1e-308, False),
                                       (1e-310, False), (5e-324, False)])
    def test_exponential_weight_finite_on_grid(self, c, ok):
        # the largest weight is 1/(c*kappa*lo), here 1/(c*0.5*0.2) = 10/c
        model = Model(Flow("exponential", c), JumpMap(0.5), PowerRate(1.0, 0.0))
        if ok:
            small_config(model=model)
        else:
            with pytest.raises(ValueError, match="^c: ") as err:
                small_config(model=model)
            assert err.value.field == "c"


class TestConfigRate:
    @pytest.mark.parametrize("rate, field, value", [
        (PowerRate(1.7e308, 0.5), "lam", 1.7e308),
        # (y - a)**2 overflows alone; b, the larger term, tips the sum
        (ShiftedQuadraticRate(1e200, 0.0), "a", 1e200),
        (ShiftedQuadraticRate(1e154, 1.7e308), "b", 1.7e308),
        # no parameter to name: the peak rate
        (CustomRate(lambda x: np.exp(1e3 * x)), "model.rate", np.inf),
    ], ids=["power", "quadratic_a", "quadratic_b", "custom"])
    def test_overflow_names_its_term(self, rate, field, value):
        model = Model(Flow("additive", 1.0), JumpMap(0.5), rate)
        with pytest.raises(ValueError, match=f"^{field}: the rate must be "
                           "finite on the grid, got ") as err:
            small_config(model=model)
        assert err.value.field == field
        assert str(err.value).endswith(f"got {value!r}")


class TestConfigBuilt:
    def test_grid_is_make_grid_read_only(self):
        cfg = small_config()
        assert np.array_equal(cfg.ys, make_grid(cfg.interval, cfg.grid_points))
        assert not cfg.ys.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cfg.ys[0] = 0.0
        assert cfg.basis == Basis(cfg.a_max)

    def test_replace_rebuilds_grid_and_basis(self):
        cfg = small_config()
        wider = dataclasses.replace(cfg, grid_points=33, a_max=8.0)
        assert np.array_equal(wider.ys, make_grid(cfg.interval, 33))
        assert not wider.ys.flags.writeable
        assert wider.basis == Basis(8.0)
        assert len(cfg.ys) == 129 and cfg.basis == Basis(6.0)
        with pytest.raises(ValueError, match="ys"):
            dataclasses.replace(cfg, ys=cfg.ys)

    def test_built_fields_left_out_of_equality(self):
        assert small_config() == small_config()
        assert small_config() != small_config(grid_points=33)

    def test_list_of_n_values_hashes(self):
        # n_values is kept as a tuple, so a config built from a list hashes,
        # equals its tuple-built twin and dumps the same text
        listed = small_config(n_values=[200, 500])
        tupled = small_config(n_values=(200, 500))
        assert listed.n_values == (200, 500)
        assert listed == tupled and hash(listed) == hash(tupled)
        assert dump_config(listed) == dump_config(tupled)
        assert "  n_values:\n  - 200\n  - 500\n" in dump_config(listed)

    def test_pipeline_reads_built_fields(self, monkeypatch):
        # after the config is made, a replicate and a diagnosis build no
        # basis and no grid of their own
        cfg = small_config(n_values=[1000, 2000])

        def forbidden(*args, **kwargs):
            raise AssertionError("built outside ExperimentConfig")

        monkeypatch.setattr("pdmprate.bench.Basis", forbidden)
        monkeypatch.setattr("pdmprate.bench.make_grid", forbidden)
        run_replicate(cfg, 500, 0)
        convergence_diagnostics(cfg)


class TestReplicate:
    def test_deterministic(self):
        cfg = small_config()
        r1 = run_replicate(cfg, 500, 1)
        r2 = run_replicate(cfg, 500, 1)
        assert (r1.d_mhat, r1.d_mopt, r1.risk_mhat, r1.risk_mopt, r1.ratio) == \
            (r2.d_mhat, r2.d_mopt, r2.risk_mhat, r2.risk_mopt, r2.ratio)

    def test_oracle_definition(self):
        cfg = small_config()
        for r in range(3):
            res = run_replicate(cfg, 500, r)
            assert res.risk_mhat >= res.risk_mopt
            assert res.ratio >= 1.0

    def test_substreams_differ(self):
        s1 = replicate_seed(0, 100, 0).generate_state(2)
        s2 = replicate_seed(0, 100, 1).generate_state(2)
        s3 = replicate_seed(0, 200, 0).generate_state(2)
        assert not np.array_equal(s1, s2)
        assert not np.array_equal(s1, s3)


class TestExperiment:
    def test_single_replicate_row(self):
        cfg = small_config(replicates=1, n_values=[200])
        result = run_experiment(cfg)
        row = result.rows[0]
        rep = result.replicates[0]
        assert row.mean_d_mhat == rep.d_mhat
        assert row.mean_risk == rep.risk_mhat
        assert row.oracle_ratio == rep.ratio

    def test_csv_deterministic_modulo_timing(self):
        cfg = small_config()
        csv1 = rows_to_csv(run_experiment(cfg).rows)
        csv2 = rows_to_csv(run_experiment(cfg).rows)

        def strip_timing(text):
            return ["," .join(line.split(",")[:-1]) for line in text.splitlines()]

        assert strip_timing(csv1) == strip_timing(csv2)

    def test_parallel_matches_serial(self):
        # the power chain, and numeric draws: each worker keeps its own
        # hazard tables, and a chain does not depend on them
        for model, interval in [
                (tcp_model(), (0.2, 4.0)),
                (Model(Flow("exponential", 2.0), JumpMap(0.5),
                       ShiftedQuadraticRate(1.0, 0.5)), (0.5, 2.5))]:
            cfg = small_config(replicates=2, model=model, interval=interval)
            serial = run_experiment(cfg, threads=1)
            parallel = run_experiment(cfg, threads=2)
            for a, b in zip(serial.rows, parallel.rows):
                assert a.mean_risk == b.mean_risk
                assert a.mean_d_mhat == b.mean_d_mhat
                assert a.oracle_ratio == b.oracle_ratio
            assert [(r.risk_mhat, r.risk_mopt, r.denom_mid)
                    for r in serial.replicates] == \
                [(r.risk_mhat, r.risk_mopt, r.denom_mid)
                 for r in parallel.replicates]

    def test_csv_header(self):
        cfg = small_config(replicates=1, n_values=[200])
        csv = rows_to_csv(run_experiment(cfg).rows)
        assert csv.splitlines()[0] == \
            "n,mean_D_mhat,mean_D_mopt,mean_risk,oracle,mean_time_s"
        assert len(csv.splitlines()) == 2

    def test_unsorted_n_rejected(self):
        with pytest.raises(ValueError):
            small_config(n_values=[500, 200])


# operator.index takes a bool, but a bool is no count or seed: dumped as
# YAML `true`, it would not load back
@pytest.mark.parametrize("field, build", [
    ("n", lambda: simulate_chain(tcp_model(), 1.0, True, 0)),
    ("seed", lambda: simulate_chain(tcp_model(), 1.0, 3, True)),
    ("replicates", lambda: small_config(replicates=True)),
    ("base_seed", lambda: small_config(base_seed=False)),
    ("grid_points", lambda: small_config(grid_points=True)),
    ("n_values", lambda: small_config(n_values=[200, True])),
], ids=["n", "seed", "replicates", "base_seed", "grid_points", "n_values"])
def test_bool_is_not_an_integer(field, build):
    with pytest.raises(ConfigError, match=f"^{field}: ") as err:
        build()
    assert err.value.field == field


class TestTailAssumption:
    def test_bacterial_sqrt_flagged(self):
        ok, msg = tail_assumption_ok(bacterial_model(delta=0.5))
        assert not ok
        assert "biased" in msg

    def test_bacterial_linear_edge(self):
        ok, msg = tail_assumption_ok(bacterial_model(delta=1.0))
        assert ok
        assert "edge" in msg

    def test_bacterial_quadratic_ok(self):
        assert tail_assumption_ok(bacterial_model(delta=2.0))[0]

    def test_tcp_constant_edge(self):
        ok, msg = tail_assumption_ok(tcp_model(delta=0.0))
        assert ok and "edge" in msg

    def test_quadratic_rate_ok(self):
        assert tail_assumption_ok(tcp_quadratic_model())[0]

    # the per-flow rule in delta: fails below 0 (additive) or 1
    # (exponential), an edge case at 0 or 1, satisfied above
    TABLE = {
        ("additive", -0.5): "fails", ("additive", 0.0): "edge",
        ("additive", 0.5): "ok", ("additive", 1.0): "ok",
        ("additive", 2.0): "ok",
        ("exponential", -0.5): "fails", ("exponential", 0.0): "fails",
        ("exponential", 0.5): "fails", ("exponential", 1.0): "edge",
        ("exponential", 2.0): "ok",
    }

    @pytest.mark.parametrize("flow, delta", sorted(TABLE))
    def test_matches_per_flow_table(self, flow, delta):
        model = Model(Flow(flow, 1.0), JumpMap(0.5), PowerRate(1.0, delta))
        self._check(model, self.TABLE[flow, delta])

    @pytest.mark.parametrize("model", [
        tcp_quadratic_model(),
        Model(Flow("exponential", 1.0), JumpMap(0.5), CustomRate(np.sqrt)),
    ])
    def test_non_power_rates_ok(self, model):
        self._check(model, "ok")

    @staticmethod
    def _check(model, outcome):
        ok, msg = tail_assumption_ok(model)
        assert ok == (outcome != "fails")
        assert ("biased" in msg) == (outcome == "fails")
        assert ("edge" in msg) == (outcome == "edge")
        assert (msg == "tail condition satisfied") == (outcome == "ok")


class TestDiagnostics:
    def test_tcp_report(self):
        cfg = small_config(n_values=[1000, 4000], replicates=2)
        report = convergence_diagnostics(cfg)
        assert report.tail_ok
        assert report.half_distance_sq >= 0.0
        assert report.denominator_rate_slope is not None
        # crude window: more data should not increase the spread
        assert report.denominator_rate_slope < 0.0

    def test_slow_chain_warns_of_stationarity(self):
        # kappa = 0.99 and c = 0.01: 1,000 transitions are far from
        # equilibrium, and the halves' squared distance is about 70 times
        # its sampling noise
        cfg = small_config(model=tcp_model(kappa=0.99, c=0.01),
                           n_values=[1000], replicates=1)
        report = convergence_diagnostics(cfg)
        assert not report.stationarity_ok
        assert report.half_distance_sq > 10.0 * report.half_distance_null
        assert any("equilibrium" in w for w in report.warnings)

    def test_bacterial_sqrt_warns(self):
        cfg = small_config(model=bacterial_model(delta=0.5),
                           interval=(0.5, 3.0), n_values=[1000],
                           replicates=1)
        report = convergence_diagnostics(cfg)
        assert not report.tail_ok
        assert any("biased" in w for w in report.warnings)

    def test_duplicated_halves_zero_distance(self):
        # build a chain whose two halves are identical
        from pdmprate import Basis, select_model
        rng = np.random.default_rng(0)
        half = rng.uniform(0.5, 3.0, 600)
        basis = Basis()
        f1 = select_model(half, basis)
        f2 = select_model(half.copy(), basis)
        dim = max(len(f1.coeffs), len(f2.coeffs))
        c1 = np.zeros(dim)
        c1[:len(f1.coeffs)] = f1.coeffs
        c2 = np.zeros(dim)
        c2[:len(f2.coeffs)] = f2.coeffs
        assert float(np.sum((c1 - c2) ** 2)) == 0.0

    def test_iid_halves_within_null(self):
        # i.i.d. halves: distance should sit inside the sampling-noise band
        from pdmprate import Basis, select_model
        rng = np.random.default_rng(123)
        a = rng.uniform(0.0, 6.0, 3000)
        b = rng.uniform(0.0, 6.0, 3000)
        basis = Basis()
        f1 = select_model(a, basis)
        f2 = select_model(b, basis)
        dim = max(len(f1.coeffs), len(f2.coeffs))
        c1 = np.zeros(dim)
        c1[:len(f1.coeffs)] = f1.coeffs
        c2 = np.zeros(dim)
        c2[:len(f2.coeffs)] = f2.coeffs
        dist_sq = float(np.sum((c1 - c2) ** 2))
        null = null_distance_oracle(basis, a, b, dim)
        assert dist_sq < 4.0 * null

    @pytest.mark.parametrize("model, n, a_max", [
        (tcp_model(), 1000, 6.0),
        (tcp_model(delta=1.0), 3001, 3.0),
        (tcp_quadratic_model(), 2000, 6.0),
        (bacterial_model(delta=2.0), 1501, 2.5),
    ])
    def test_null_distance_matches_design_matrices(self, model, n, a_max):
        cfg = small_config(model=model, n_values=[n], a_max=a_max)
        report = convergence_diagnostics(cfg)
        chain = simulate_chain(model, cfg.z0, n,
                               replicate_seed(cfg.base_seed, n, 0))
        half = chain.n // 2
        first, second = chain.samples[:half], chain.samples[half:2 * half]
        basis = Basis(a_max)
        dim = len(select_model(first, basis, cfg.sigma, cfg.sigma_prime).coeffs)
        assert report.half_distance_null == pytest.approx(
            null_distance_oracle(basis, first, second, dim), rel=1e-12)
