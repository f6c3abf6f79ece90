"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line.  The heavyweight Monte Carlo runs are
shared across criteria through session-scoped fixtures; expect a few minutes
of wall time for the whole module.
"""

import sys
import time

import numpy as np
import pytest
from scipy import signal, stats

from oracles import coefficients, contrast, cumulative, design_oracle
from pdmprate import (Basis, ExperimentConfig, GenericSampler,
                      convergence_diagnostics, make_grid, rate_grid,
                      rows_to_csv, run_experiment, sample_next,
                      select_model, simulate_chain, tail_assumption_ok,
                      tcp_model, tcp_quadratic_model, bacterial_model,
                      threshold)

REPLICATES = 50


def report(criterion, ok, detail):
    # write through the real stdout so the one-line verdicts survive pytest's
    # capture even for passing tests
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}",
          file=sys.__stdout__)
    assert ok, detail


@pytest.fixture(scope="session")
def tcp_experiment():
    cfg = ExperimentConfig(model=tcp_model(kappa=0.5, c=1.0, lam=1.0, delta=0.0),
                           interval=(0.2, 4.0), n_values=[1000, 10_000, 100_000],
                           replicates=REPLICATES, base_seed=20_260_826)
    return cfg, run_experiment(cfg)


@pytest.fixture(scope="session")
def bacterial_linear_experiment():
    cfg = ExperimentConfig(model=bacterial_model(c=1.0, lam=1.0, delta=1.0),
                           interval=(0.5, 2.5), n_values=[10_000, 100_000],
                           replicates=REPLICATES, base_seed=20_260_827)
    return cfg, run_experiment(cfg)


@pytest.fixture(scope="session")
def bacterial_sqrt_experiment():
    cfg = ExperimentConfig(model=bacterial_model(c=1.0, lam=1.0, delta=0.5),
                           interval=(0.5, 3.0), n_values=[1000, 10_000, 100_000],
                           replicates=REPLICATES, base_seed=20_260_828)
    return cfg, run_experiment(cfg)


def tcp_survival(model, x, y):
    return np.exp(-(cumulative(model.rate, np.asarray(y) / model.jump.kappa)
                    - cumulative(model.rate, x)) / model.flow.c)


def bacterial_survival(model, x, y):
    lam, delta, c = model.rate.lam, model.rate.delta, model.flow.c
    return np.exp(-(lam / (delta * c))
                  * ((2.0 * np.asarray(y)) ** delta - x ** delta))


class TestCriterion1SurvivalIdentity:
    @pytest.mark.parametrize("label,model,survival", [
        ("tcp_power", tcp_model(kappa=0.5, c=1.0, lam=1.0, delta=0.0),
         tcp_survival),
        ("tcp_quadratic", tcp_quadratic_model(kappa=0.2, c=1.0, a=1.0, b=0.5),
         tcp_survival),
        ("bacterial_power", bacterial_model(c=1.0, lam=1.0, delta=2.0),
         bacterial_survival),
    ])
    def test_empirical_survival(self, label, model, survival):
        n, x = 100_000, 1.0
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        draws = sample_next(model, np.full(n, x), rng.exponential(1.0, n))
        lo = model.jump.apply(x)
        ys = np.linspace(lo * 1.001, np.quantile(draws, 0.995), 20)
        worst = 0.0
        for y in ys:
            p = float(survival(model, x, y))
            emp = float(np.mean(draws >= y))
            se = np.sqrt(max(p * (1 - p), 1e-12) / n)
            worst = max(worst, abs(emp - p) / (3 * se + 1e-12))
        elapsed = time.perf_counter() - start
        report(1, worst <= 1.0 and elapsed < 10.0,
               f"{label}: worst |emp-true|/3se = {worst:.2f}, "
               f"time {elapsed:.1f}s")


class TestCriterion2GenericEquivalence:
    def test_ks_all_configurations(self):
        configs = [
            ("tcp d=0", tcp_model(kappa=0.5, c=1.0, lam=1.0, delta=0.0)),
            ("tcp d=1", tcp_model(kappa=0.5, c=1.0, lam=1.0, delta=1.0)),
            ("tcp d=2", tcp_model(kappa=0.5, c=1.0, lam=1.0, delta=2.0)),
            ("tcp quad", tcp_quadratic_model(kappa=0.2, c=1.0, a=1.0, b=0.5)),
            ("bact d=1", bacterial_model(c=1.0, lam=1.0, delta=1.0)),
            ("bact d=2", bacterial_model(c=1.0, lam=1.0, delta=2.0)),
        ]
        n, x = 10_000, 1.0
        start = time.perf_counter()
        details = []
        ok = True
        for idx, (label, model) in enumerate(configs):
            rng = np.random.default_rng(1000 + idx)
            analytic = sample_next(model, np.full(n, x),
                                   rng.exponential(1.0, n))
            gs = GenericSampler(model, x)
            generic = np.array([gs.draw(e) for e in rng.exponential(1.0, n)])
            stat = stats.ks_2samp(analytic, generic).statistic
            details.append(f"{label}: KS={stat:.4f}")
            ok = ok and stat < 0.03
        elapsed = time.perf_counter() - start
        ok = ok and elapsed < 60.0
        report(2, ok, "; ".join(details) + f"; time {elapsed:.1f}s")


class TestCriterion3StationaryMean:
    def test_mean(self):
        start = time.perf_counter()
        model = tcp_model(kappa=0.5, c=1.0, lam=1.0, delta=0.0)
        n = 100_000
        chain = simulate_chain(model, 1.0, n, 42)
        mean = chain.samples.mean()
        # Z_j = 0.5 Z_{j-1} + 0.5 E_j: var 1/3, lag-k correlation 2^-k
        var = (0.25) / (1 - 0.25)
        se = np.sqrt(var * (1 + 0.5) / (1 - 0.5) / n)
        elapsed = time.perf_counter() - start
        report(3, abs(mean - 1.0) < 3 * se and elapsed < 5.0,
               f"mean={mean:.5f}, target 1 +- {3 * se:.5f}, time {elapsed:.1f}s")


class TestCriterion4TcpRiskDecay:
    def test_risk_table(self, tcp_experiment):
        _, result = tcp_experiment
        paper = {1000: 0.42, 10_000: 0.15, 100_000: 0.12}
        risks = {row.n: row.mean_risk for row in result.rows}
        in_band = all(paper[n] / 2 <= risks[n] <= paper[n] * 2 for n in paper)
        decreasing = risks[1000] > risks[10_000] > risks[100_000]
        times = {row.n: row.mean_time_s for row in result.rows}
        report(4, in_band and decreasing,
               f"risks {risks} vs paper-band x2 of {paper}, "
               f"decreasing={decreasing}, mean times {times}")


class TestCriterion5BacterialRisk:
    def test_risk_table(self, bacterial_linear_experiment):
        _, result = bacterial_linear_experiment
        risks = {row.n: row.mean_risk for row in result.rows}
        ok = (0.0036 / 3 <= risks[10_000] <= 0.0036 * 3
              and risks[100_000] < 0.005)
        report(5, ok, f"risks {risks}; bands [0.0012, 0.0108] and < 0.005")


class TestCriterion6OracleRatio:
    def test_ratios(self, tcp_experiment, bacterial_linear_experiment):
        rows = tcp_experiment[1].rows + bacterial_linear_experiment[1].rows
        ratios = {row.n: row.oracle_ratio for row in rows}
        in_band = all(1.0 <= r <= 2.5 for r in ratios.values())
        per_rep = all(d.ratio >= 1.0
                      for d in tcp_experiment[1].replicates
                      + bacterial_linear_experiment[1].replicates)
        report(6, in_band and per_rep,
               f"mean ratios {ratios}, per-replicate >= 1: {per_rep}")


class TestCriterion7DimensionGrowth:
    def test_selected_dimension(self, tcp_experiment):
        _, result = tcp_experiment
        paper = {1000: 12.6, 10_000: 19.8, 100_000: 28.5}
        dims = {row.n: row.mean_d_mhat for row in result.rows}
        growing = dims[1000] < dims[10_000] < dims[100_000]
        in_band = all(abs(dims[n] - paper[n]) <= 0.35 * paper[n] for n in paper)
        report(7, growing and in_band,
               f"mean dimensions {dims} vs {paper} +-35%, growing={growing}")


class TestCriterion8DenominatorRate:
    def test_rmse_slope(self, tcp_experiment):
        cfg, result = tcp_experiment
        # independent reference: the constant-rate recursion is affine, so a
        # 1e7-transition chain can be generated with a linear filter instead
        # of the package's simulator
        rng = np.random.default_rng(987)
        e = rng.exponential(1.0, 10_000_000)
        z, _ = signal.lfilter([0.5], [1.0, -0.5], e, zi=[0.5 * 1.0])
        y0 = 0.5 * (cfg.interval[0] + cfg.interval[1])
        prev = np.concatenate([[1.0], z[:-1]])
        ref = 2.0 * np.mean((prev <= y0) & (z >= 0.5 * y0))
        ns = np.array(cfg.n_values, dtype=float)
        rmses = []
        for n in cfg.n_values:
            vals = np.array([d.denom_mid for d in result.replicates
                             if d.n == n])
            rmses.append(np.sqrt(np.mean((vals - ref) ** 2)))
        slope = float(np.polyfit(np.log(ns), np.log(np.array(rmses)), 1)[0])
        report(8, -0.65 <= slope <= -0.35,
               f"RMSE {np.round(rmses, 5).tolist()} at n {cfg.n_values}, "
               f"slope {slope:.3f} (ref D={ref:.4f})")


class TestCriterion9InvariantSuite:
    def test_invariants(self):
        from scipy import integrate
        checks = {}
        basis = Basis()
        xs = np.linspace(0, 6, 2049)
        design = design_oracle(basis, xs, 63)
        gram = integrate.simpson(design[:, None, :] * design[None, :, :],
                                 x=xs, axis=-1)
        checks["gram"] = float(np.max(np.abs(gram - np.eye(63)))) < 1e-8

        model = tcp_model()
        chain = simulate_chain(model, 1.0, 10_000, 7)
        fit = select_model(chain.samples, basis)
        dim = basis.dim(fit.m_hat)
        checks["contrast_exact"] = (
            contrast(fit.coeffs[:dim]) == -float(np.sum(fit.coeffs[:dim] ** 2)))
        checks["contrast_monotone"] = bool(np.all(np.diff(fit.contrasts) <= 0))
        small = coefficients(chain.samples, basis, 3)
        checks["prefix_nesting"] = bool(
            np.array_equal(fit.coeffs[:len(small)], small))

        ys = make_grid((0.2, 4.0))
        rate_hat, nu_f, denom = rate_grid(fit, chain, ys)
        checks["rate_nonnegative"] = bool(np.all(rate_hat >= 0))
        fire = (nu_f >= 0) & (denom >= threshold(chain.n))
        checks["quotient_identity"] = bool(np.allclose(
            rate_hat[fire] * denom[fire], nu_f[fire], rtol=1e-12, atol=0))

        rng = np.random.default_rng(13)
        quad = tcp_quadratic_model(kappa=0.2, c=1.0, a=1.0, b=0.5)
        worst = 0.0
        for _ in range(1000):
            z = rng.uniform(0.05, 4.0)
            e = rng.exponential(1.0)
            out = sample_next(quad, z, e)
            t = out / 0.2 - 1.0
            q = 3.0 * e + (z - 1.0) ** 3 + 1.5 * (z - 1.0)
            worst = max(worst, abs(t ** 3 + 1.5 * t - q) / max(1.0, abs(q)))
        checks["cardan_residual"] = worst < 1e-9

        cfg = ExperimentConfig(model=model, interval=(0.2, 4.0),
                               n_values=[500], replicates=3, base_seed=5,
                               grid_points=129)
        strip = lambda t: [",".join(l.split(",")[:-1]) for l in t.splitlines()]
        checks["bench_deterministic"] = (
            strip(rows_to_csv(run_experiment(cfg).rows))
            == strip(rows_to_csv(run_experiment(cfg).rows)))

        report(9, all(checks.values()),
               ", ".join(f"{k}={'ok' if v else 'FAIL'}"
                         for k, v in checks.items()))


class TestCriterion10KnownFailure:
    def test_bias_flag_and_plateau(self, bacterial_sqrt_experiment):
        cfg, result = bacterial_sqrt_experiment
        ok_flag, msg = tail_assumption_ok(cfg.model)
        diag = convergence_diagnostics(
            ExperimentConfig(model=cfg.model, interval=cfg.interval,
                             n_values=[1000], replicates=1,
                             base_seed=cfg.base_seed))
        warned = (not ok_flag) and (not diag.tail_ok) and bool(diag.warnings)
        paper = {1000: 0.43, 10_000: 0.41, 100_000: 0.40}
        risks = {row.n: row.mean_risk for row in result.rows}
        plateau = all(paper[n] / 2 <= risks[n] <= paper[n] * 2 for n in paper)
        # the plateau half of this criterion is expected to stay red: the
        # chain is provably geometrically ergodic here (sqrt of the state
        # follows a contraction with factor 1/sqrt(2)) and the quotient
        # identity holds without the tail condition, so a correct
        # implementation converges; see notes/decisions.md in the project
        # notes for the full derivation and an independent numeric check
        report(10, warned and plateau,
               f"warning raised={warned} ({msg}); risks {risks} vs "
               f"x2 band of {paper}, plateau={plateau}")
