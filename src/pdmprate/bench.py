"""Monte Carlo harness: repeated simulate/fit/evaluate runs and summary tables.

Each replicate gets its own deterministic random substream derived from the
base seed, the chain length and the replicate index, so tables are
reproducible across machines and replicates can run in parallel without
sharing state.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .basis import Basis
from .density import DEFAULT_SIGMA, DEFAULT_SIGMA_PRIME, select_model
from .errors import (ChainTooShortError, at_least, is_integer, nonnegative,
                     positive, require)
from .jumprate import (DEFAULT_GRID_POINTS, denominator_grid, make_grid,
                       risk_sweep)
from .model import Model, PowerRate, ShiftedQuadraticRate
from .simulate import simulate_chain

DEFAULT_REPLICATES = 50
RATE_REPLICATES = 20


@dataclass(frozen=True)
class ExperimentConfig:
    """One table's worth of Monte Carlo settings, and where the CLI writes.

    ``basis`` (window ``[0, a_max]``) and ``ys`` (the read-only evaluation
    grid on ``interval``) are built here, once, for every replicate,
    estimate and diagnosis of the config.
    """

    model: Model
    interval: tuple
    n_values: Sequence[int]
    a_max: float = 6.0
    replicates: int = DEFAULT_REPLICATES
    sigma: float = DEFAULT_SIGMA
    sigma_prime: float = DEFAULT_SIGMA_PRIME
    base_seed: int = 0
    z0: float = 1.0
    grid_points: int = DEFAULT_GRID_POINTS
    out_dir: str = "out"
    basis: Basis = field(init=False, compare=False, repr=False)
    ys: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "basis", Basis(self.a_max))
        ys = make_grid(self.interval, self.grid_points)
        ys.flags.writeable = False
        object.__setattr__(self, "ys", ys)
        rate = self.model.rate
        with np.errstate(over="ignore", divide="ignore"):
            w = self.model.transition_weight(self.model.jump.apply(ys[:1]))[0]
            top = np.max(rate.rate(ys))
            # the parameter of the term that overflows, else the peak rate
            field, value = "model.rate", float(top)
            if isinstance(rate, PowerRate):
                field, value = "lam", rate.lam
            elif isinstance(rate, ShiftedQuadraticRate):
                field, value = (("b", rate.b) if rate.b >= np.max(
                    (ys - rate.a) ** 2) else ("a", rate.a))
        require(w < np.inf, "c", "the transition weight must be finite at the "
                "grid's lowest jump image, where it peaks", self.model.flow.c)
        require(top < np.inf, field, "the rate must be finite on the grid",
                value)
        nonnegative("sigma", self.sigma)
        nonnegative("sigma_prime", self.sigma_prime)
        positive("z0", self.z0)
        n = list(self.n_values)
        require(n and all(map(is_integer, n)) and n == sorted(set(n))
                and n[0] >= 9, "n_values",
                "expected a nonempty increasing list of integers >= 9", n)
        object.__setattr__(self, "n_values", tuple(n))   # so configs hash
        at_least("replicates", self.replicates, 1)
        at_least("base_seed", self.base_seed, 0)

    def experiment(self) -> ExperimentConfig:
        """This config; ``perfbench/workloads.py`` calls it on a loaded config."""
        return self


@dataclass(frozen=True)
class ReplicateResult:
    """Raw per-replicate outcome."""

    n: int
    index: int
    d_mhat: int
    d_mopt: int
    risk_mhat: float
    risk_mopt: float
    ratio: float
    seconds: float
    denom_mid: float


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregated results for one chain length."""

    n: int
    mean_d_mhat: float
    mean_d_mopt: float
    mean_risk: float
    oracle_ratio: float
    mean_time_s: float


def replicate_seed(base_seed: int, n: int, index: int) -> np.random.SeedSequence:
    """Deterministic substream for one replicate."""
    return np.random.SeedSequence(base_seed, spawn_key=(n, index))


def run_replicate(config: ExperimentConfig, n: int, index: int) -> ReplicateResult:
    """Simulate, fit, and evaluate a single replicate."""
    start = time.perf_counter()
    ss = replicate_seed(config.base_seed, n, index)
    chain = simulate_chain(config.model, config.z0, n, ss)
    fit = select_model(chain.samples, config.basis, sigma=config.sigma,
                       sigma_prime=config.sigma_prime)
    denom = denominator_grid(chain, config.ys)
    risks = risk_sweep(fit, chain, config.ys, denom)
    m_opt = int(np.argmin(risks))
    risk_mhat = float(risks[fit.m_hat])
    risk_mopt = float(risks[m_opt])
    ratio = 1.0 if risk_mhat == risk_mopt else risk_mhat / risk_mopt
    elapsed = time.perf_counter() - start
    return ReplicateResult(
        n=n, index=index,
        d_mhat=fit.basis.dim(fit.m_hat), d_mopt=fit.basis.dim(m_opt),
        risk_mhat=risk_mhat, risk_mopt=risk_mopt, ratio=ratio,
        seconds=elapsed, denom_mid=float(denom[len(denom) // 2]))


@dataclass(frozen=True)
class ExperimentResult:
    rows: List[ExperimentRow]
    replicates: List[ReplicateResult]


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run all replicates for every chain length and aggregate per length.

    Aggregation order is fixed by (n, replicate index) regardless of how many
    workers execute the replicates.
    """
    ns, indices = zip(*[(n, r) for n in config.n_values
                        for r in range(config.replicates)])
    configs = [config] * len(ns)
    if threads > 1:
        # imported here: the pool's 28 modules serve no other command
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            details = list(pool.map(run_replicate, configs, ns, indices,
                                    chunksize=1))
    else:
        details = list(map(run_replicate, configs, ns, indices))
    rows = []
    for n in config.n_values:
        group = [d for d in details if d.n == n]
        rows.append(ExperimentRow(
            n=n,
            mean_d_mhat=float(np.mean([d.d_mhat for d in group])),
            mean_d_mopt=float(np.mean([d.d_mopt for d in group])),
            mean_risk=float(np.mean([d.risk_mhat for d in group])),
            oracle_ratio=float(np.mean([d.ratio for d in group])),
            mean_time_s=float(np.mean([d.seconds for d in group]))))
    return ExperimentResult(rows=rows, replicates=details)


def rows_to_csv(rows: Sequence[ExperimentRow]) -> str:
    """CSV table; numeric cells carry full precision except the timing."""
    buf = io.StringIO()
    buf.write("n,mean_D_mhat,mean_D_mopt,mean_risk,oracle,mean_time_s\n")
    for row in rows:
        buf.write(f"{row.n},{row.mean_d_mhat:.17g},{row.mean_d_mopt:.17g},"
                  f"{row.mean_risk:.17g},{row.oracle_ratio:.17g},"
                  f"{row.mean_time_s:.6g}\n")
    return buf.getvalue()


def tail_assumption_ok(model: Model) -> tuple:
    """Check the tail-growth condition behind convergence of the estimator.

    A power rate needs its exponent ``p`` (:attr:`Model.power_exponent`)
    above one; at ``p = 1`` the estimator still behaves well empirically,
    below it the quotient estimate is biased.  Returns ``(ok, message)``.
    """
    p = model.power_exponent
    if p is not None and p < 1:
        return False, (
            f"power exponent p = {p} < 1: tail condition fails, the quotient "
            "estimator may be biased and a stationary law may not exist")
    if p == 1:
        return True, "power exponent at the boundary value p = 1; edge case"
    return True, "tail condition satisfied"


@dataclass(frozen=True)
class DiagnosticsReport:
    """Empirical convergence checks for one configuration."""

    half_distance_sq: float
    half_distance_null: float
    stationarity_ok: bool
    denominator_rate_slope: Optional[float]
    tail_ok: bool
    warnings: List[str]


def convergence_diagnostics(config: ExperimentConfig) -> DiagnosticsReport:
    """Stationarity, denominator-rate and tail-condition checks.

    The stationarity check compares density fits on the two halves of one
    long chain against the dispersion expected if both halves sampled the
    same law.  The rate check regresses the log RMSE of the mid-interval
    denominator, over ``RATE_REPLICATES`` chains per length, on log n; a
    zero RMSE leaves no slope, with a warning that says why.
    """
    warnings = []
    tail_ok, tail_msg = tail_assumption_ok(config.model)
    if not tail_ok:
        warnings.append(tail_msg)
    n = max(config.n_values)
    if n < 1000:
        raise ChainTooShortError(
            f"diagnostics need a chain of at least 1000 transitions, got {n}")
    chain = simulate_chain(config.model, config.z0, n,
                           replicate_seed(config.base_seed, n, 0))
    basis = config.basis
    half = chain.n // 2
    first, second = chain.samples[:half], chain.samples[half:2 * half]
    fit1 = select_model(first, basis, config.sigma, config.sigma_prime)
    fit2 = select_model(second, basis, config.sigma, config.sigma_prime)
    # both halves have the same length, so the same largest dimension
    c1, c2 = fit1.coeffs, fit2.coeffs
    dist_sq = float(np.sum((c1 - c2) ** 2))
    # expected squared distance if both halves draw from the same law: the
    # summed sampling variance of each half's empirical means.  The squared
    # basis functions sum to dim/a_max on the window (cos^2 + sin^2 = 1), so
    # the summed variance of the functions is dim*c[0]/sqrt(a_max) - |c|^2.
    dim = len(c1)
    null_sq = float(sum(dim * c[0] / np.sqrt(basis.a_max) - c @ c
                        for c in (c1, c2)) / half)
    stationarity_ok = dist_sq <= 4.0 * null_sq
    if not stationarity_ok:
        warnings.append("half-chain density estimates differ beyond sampling "
                        "noise; the chain may not have reached equilibrium")
    slope = None
    if len(config.n_values) >= 2:
        mid = 0.5 * (config.interval[0] + config.interval[1])
        rmses = []
        for nv in config.n_values:
            vals = []
            for r in range(RATE_REPLICATES):
                ch = simulate_chain(config.model, config.z0, nv,
                                    replicate_seed(config.base_seed + 1, nv, r))
                vals.append(denominator_grid(ch, [mid])[0])
            vals = np.array(vals)
            rmses.append(np.sqrt(np.mean((vals - vals.mean()) ** 2)))
        if min(rmses) > 0:
            slope = float(np.polyfit(np.log(np.asarray(config.n_values, dtype=float)),
                                     np.log(np.array(rmses)), 1)[0])
        else:
            warnings.append(f"no denominator rate slope: at y = {mid:.6g} the "
                            f"RMSE is 0 for n = {config.n_values[rmses.index(0.0)]}")
    return DiagnosticsReport(half_distance_sq=dist_sq,
                             half_distance_null=null_sq,
                             stationarity_ok=stationarity_ok,
                             denominator_rate_slope=slope,
                             tail_ok=tail_ok, warnings=warnings)
