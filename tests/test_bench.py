import numpy as np
import pytest

from oracles import null_distance_oracle
from pdmprate import (Basis, CustomRate, ExperimentConfig, Flow, JumpMap,
                      Model, PowerRate, bacterial_model,
                      convergence_diagnostics, replicate_seed, rows_to_csv,
                      run_experiment, run_replicate, select_model,
                      simulate_chain, tail_assumption_ok, tcp_model,
                      tcp_quadratic_model)


def small_config(**kwargs):
    defaults = dict(model=tcp_model(), interval=(0.2, 4.0),
                    n_values=[200, 500], replicates=3, base_seed=17,
                    grid_points=129)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


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
        cfg = small_config(replicates=2)
        serial = run_experiment(cfg, threads=1)
        parallel = run_experiment(cfg, threads=2)
        for a, b in zip(serial.rows, parallel.rows):
            assert a.mean_risk == b.mean_risk
            assert a.mean_d_mhat == b.mean_d_mhat
            assert a.oracle_ratio == b.oracle_ratio

    def test_csv_header(self):
        cfg = small_config(replicates=1, n_values=[200])
        csv = rows_to_csv(run_experiment(cfg).rows)
        assert csv.splitlines()[0] == \
            "n,mean_D_mhat,mean_D_mopt,mean_risk,oracle,mean_time_s"
        assert len(csv.splitlines()) == 2

    def test_unsorted_n_rejected(self):
        with pytest.raises(ValueError):
            small_config(n_values=[500, 200])


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
        report = convergence_diagnostics(cfg, rate_replicates=8)
        assert report.tail_ok
        assert report.half_distance_sq >= 0.0
        assert report.denominator_rate_slope is not None
        # crude window: more data should not increase the spread
        assert report.denominator_rate_slope < 0.0

    def test_bacterial_sqrt_warns(self):
        cfg = small_config(model=bacterial_model(delta=0.5),
                           interval=(0.5, 3.0), n_values=[1000],
                           replicates=1)
        report = convergence_diagnostics(cfg, rate_replicates=2)
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
        null = float(np.sum(basis.design(a, dim).var(axis=1) / len(a)
                            + basis.design(b, dim).var(axis=1) / len(b)))
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
