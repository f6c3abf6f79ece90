"""Command-line front end.

Subcommands: ``simulate`` (write a chain file), ``estimate`` (fit a chain,
write the fit record and evaluation grid), ``bench`` (Monte Carlo tables) and
``diagnose`` (convergence checks).  Flags override the config file; logs go
to stderr, summaries to stdout, and files are the real interface.

Exit codes: 0 success, 2 configuration error naming the key or flag (among
them a non-finite number, a negative ``estimation.sigma`` or ``sigma_prime``,
``--seed`` below 0, ``--n`` or ``--threads`` below 1, ``--n`` with
``estimate --chain``), 3 numerical failure (a
simulated state or jump time out of double range, a numeric sampler's
hazard overflowing double range, a chain whose states are not all finite
and positive, a chain file with a state below the jump image of the state
before it, or ``diagnose`` with a largest chain length below 1000), 4 I/O
error or malformed chain file.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (ExperimentConfig, convergence_diagnostics, run_experiment,
                    rows_to_csv)
from .config import dump_config, load_config_file
from .density import fit_to_text, select_model
from .errors import ChainFormatError, ConfigError, PdmpError, at_least
from .jumprate import denominator_grid, rate_grid
from .simulate import (chain_from_text, chain_text_blocks, reconstruct_times,
                       simulate_chain)

log = logging.getLogger("pdmprate")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdmprate",
        description="Simulate jump chains and estimate their jump rate.")
    parser.add_argument("--config", required=True, help="YAML config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override experiment.base_seed")
    parser.add_argument("--out", default=None,
                        help="override io.out_dir")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker bound for the benchmark harness")
    parser.add_argument("--grid-points", type=int, default=None,
                        help="override io.grid_points (odd)")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate one chain to a file")
    p_sim.add_argument("--n", type=int, default=None,
                       help="chain length (default: largest in config)")
    p_sim.add_argument("--times", action="store_true",
                       help="include reconstructed jump times")

    p_est = sub.add_parser("estimate", help="fit estimators on a chain")
    p_est.add_argument("--chain", default=None,
                       help="chain file; simulates inline when omitted")
    p_est.add_argument("--n", type=int, default=None)

    sub.add_parser("bench", help="run the Monte Carlo table")
    sub.add_parser("diagnose", help="run convergence diagnostics")
    return parser


def _effective_config(args) -> ExperimentConfig:
    config = load_config_file(args.config)
    for flag, field in (("--seed", "base_seed"), ("--out", "out_dir"),
                        ("--grid-points", "grid_points")):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            try:
                config = replace(config, **{field: value})
            except ConfigError as exc:
                raise ConfigError(flag, exc.reason) from None
    at_least("--threads", args.threads, 1)
    n = getattr(args, "n", None)
    if n is not None:
        at_least("--n", n, 1)
        if getattr(args, "chain", None) is not None:
            raise ConfigError("--n", "not read with --chain, whose file sets "
                              "the chain length")
    return config


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(config: ExperimentConfig, args) -> int:
    n = args.n if args.n is not None else max(config.n_values)
    chain = simulate_chain(config.model, config.z0, n, config.base_seed)
    # the times first: a chain whose times overflow leaves no file
    times = reconstruct_times(chain)
    out = _out_dir(config) / "chain.tsv"
    with out.open("wb") as fh:
        fh.writelines(chain_text_blocks(chain, times if args.times else None))
    print(f"n={chain.n} z_min={chain.z.min():.6g} z_max={chain.z.max():.6g} "
          f"t_final={times[-1]:.6g} file={out}")
    return EXIT_OK


def cmd_estimate(config: ExperimentConfig, args) -> int:
    if args.chain is not None:
        chain = chain_from_text(Path(args.chain).read_bytes(), config.model)
    else:
        n = args.n if args.n is not None else max(config.n_values)
        chain = simulate_chain(config.model, config.z0, n, config.base_seed)
    fit = select_model(chain.samples, config.basis, sigma=config.sigma,
                       sigma_prime=config.sigma_prime)
    ys = config.ys
    denom = denominator_grid(chain, ys)
    rate_hat, nu_f = rate_grid(fit, chain, ys, denom)
    rate_true = config.model.rate.rate(ys)
    # imported at call time because perfbench wraps pdmprate.jumprate.grid_to_tsv
    from .jumprate import grid_to_tsv
    out = _out_dir(config)
    (out / "fit.tsv").write_text(fit_to_text(fit))
    (out / "grid.tsv").write_text(
        grid_to_tsv(ys, rate_hat, nu_f, denom, rate_true=rate_true))
    print(f"n={chain.n} m_hat={fit.m_hat} D_mhat={fit.basis.dim(fit.m_hat)} "
          f"files={out}/fit.tsv,{out}/grid.tsv")
    return EXIT_OK


def cmd_bench(config: ExperimentConfig, args) -> int:
    result = run_experiment(config, threads=args.threads)
    out = _out_dir(config) / "bench.csv"
    out.write_text(rows_to_csv(result.rows))
    for row in result.rows:
        print(f"n={row.n} D_mhat={row.mean_d_mhat:.3g} "
              f"D_mopt={row.mean_d_mopt:.3g} risk={row.mean_risk:.4g} "
              f"oracle={row.oracle_ratio:.3g} time={row.mean_time_s:.3g}s")
    print(f"file={out}")
    return EXIT_OK


def cmd_diagnose(config: ExperimentConfig, args) -> int:
    report = convergence_diagnostics(config)
    print(f"half_distance_sq={report.half_distance_sq:.6g} "
          f"null={report.half_distance_null:.6g} "
          f"stationarity_ok={report.stationarity_ok}")
    if report.denominator_rate_slope is not None:
        print(f"denominator_rate_slope={report.denominator_rate_slope:.3g}")
    print(f"tail_ok={report.tail_ok}")
    for warning in report.warnings:
        log.warning(warning)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        config = _effective_config(args)
        if log.isEnabledFor(logging.DEBUG):
            log.debug("effective config:\n%s", dump_config(config))
        handler = {"simulate": cmd_simulate, "estimate": cmd_estimate,
                   "bench": cmd_bench, "diagnose": cmd_diagnose}[args.command]
        return handler(config, args)
    except ConfigError as exc:
        log.error("config: %s", exc)
        return EXIT_CONFIG
    except (OSError, ChainFormatError) as exc:
        log.error("i/o failure: %s", exc)
        return EXIT_IO
    except PdmpError as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
