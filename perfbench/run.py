"""Benchmark of pdmprate: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs (YAML config, chain
files) are written from the seed into a temporary directory in the checkout;
the program runs from ``src/`` in fresh interpreters, one at a time, with
BLAS and OpenMP pinned to one thread:

* ``--trace 0``: ``PROBES`` interpreters only set up (import ``pdmprate`` and
  ``pdmprate.cli``, load the config), then one more sets up and runs ops in a
  closed loop for ``--seconds``, timing the calibration kernel next to each
  op.  Prints the end-to-end metrics.
* ``--trace 1``: one interpreter runs the ops untraced, then again with a span
  around every layer call.  Prints the per-layer metrics.

Every op's output is checked (see ``workloads.py``).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PROBES = 4
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROBE_TIMEOUT_S = 60
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)
TAIL_BEYOND = 10

# end-to-end metrics in the result line, with their units, as BENCHMARK.json
# lists them.  Both timings are CPU times, which leave out the time other
# tenants of a shared machine hold its cores.  The op's is further divided by
# the calibration kernel's (see child.py): between runs of the same code the
# median op CPU time moved by up to 30 %, its calibrated cost by a few per cent.
END_TO_END = {
    "setup_s": "s",
    "op_cal.p50": "cal",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(name: str, workdir: Path, tag: str, seed: int, timeout: float,
              extra=()) -> dict:
    result = workdir / f"{tag}.json"
    errors = workdir / f"{tag}.stderr"
    cmd = [sys.executable, str(HERE / "child.py"), name, str(workdir), str(result),
           "--seed", str(seed), *extra]
    with open(errors, "w") as err:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                                  stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=err)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag}: no result within {timeout:.0f} s") from None
    if proc.returncode != 0 or not result.exists():
        tail = errors.read_text()[-3000:]
        raise BenchError(f"{tag}: exit code {proc.returncode}\n{tail}")
    return json.loads(result.read_text())


def tail_percentile(times: list):
    """Highest listed percentile with at least TAIL_BEYOND samples above it.

    Interpolates linearly between order statistics, as ``numpy.percentile``.
    """
    ordered = sorted(times)
    for p in TAIL_PERCENTILES:
        if len(ordered) * (1.0 - p / 100.0) >= TAIL_BEYOND:
            rank = p / 100.0 * (len(ordered) - 1)
            lo = math.floor(rank)
            hi = min(lo + 1, len(ordered) - 1)
            return p, ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    return None


def calibrated_costs(op_cpu_s: list, cal_cpu_s: list) -> list:
    """Each op's CPU time over the mean of the kernel runs just before and after it."""
    return [op / (0.5 * (before + after))
            for op, before, after in zip(op_cpu_s, cal_cpu_s, cal_cpu_s[1:])]


def end_to_end(main: dict, setups: list, setup_walls: list) -> tuple:
    """Bounded metrics for the result line, and the table rows shown above it."""
    op_s = main["op_s"]
    attempted, failed = main["attempted"], len(main["failures"])
    metrics = {"setup_s": statistics.median(setups),
               "op_cal.p50": statistics.median(
                   calibrated_costs(main["op_cpu_s"], main["cal_cpu_s"])),
               "peak_rss_mb": main["peak_rss_mb"]}
    tail = tail_percentile(op_s)
    rows = [
        ("setup_s", metrics["setup_s"], "s",
         f"CPU, median of {len(setups)} fresh interpreters"),
        ("setup_wall_s", statistics.median(setup_walls), "s", "wall, same interpreters"),
        ("op_cal.p50", metrics["op_cal.p50"], "cal",
         "op CPU time over calibration kernel CPU time"),
        ("op_cpu_s.p50", statistics.median(main["op_cpu_s"]), "s", ""),
        ("cal_cpu_s.p50", statistics.median(main["cal_cpu_s"]), "s",
         f"per kernel run, {len(main['cal_cpu_s'])} blocks"),
        ("ops_per_s", len(op_s) / sum(op_s), "1/s",
         f"{len(op_s)} ops in {sum(op_s):.3g} s of op wall time"),
        ("op_s.p50", statistics.median(op_s), "s", "wall"),
        ("op_s.tail", tail[1] if tail else math.nan, "s",
         f"p{tail[0]:g} of {len(op_s)} ops" if tail else
         f"omitted: fewer than {TAIL_BEYOND} of {len(op_s)} ops beyond p75"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "ru_maxrss"),
        ("failed_frac", failed / attempted, "fraction", f"{failed} of {attempted} ops"),
        ("risk_mean", main["quality"]["risk_mean"], "L2",
         "Simpson L2 risk at the selected dimension"),
    ]
    if "oracle_ratio" in main["quality"]:
        rows.append(("oracle_ratio", main["quality"]["oracle_ratio"], "ratio",
                     "risk(m_hat)/risk(m_opt)"))
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, rows


def report(args, main: dict, setups: list, setup_walls: list, layer_units: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in main["env"].items()))
    failed = len(main["failures"])
    for k, problem in main["failures"][:10]:
        print(f"FAILED op {k}: {problem}")
    print(f"outputs digest {main['digest']} (first {main['digest_ops']} ops)")
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_units[name]}
                   for name, value in main["per_layer"].items()}
        rows = [(name, m["value"], m["unit"], "") for name, m in metrics.items()]
    else:
        metrics, rows = end_to_end(main, setups, setup_walls)
    width = max(len(row[0]) for row in rows)
    for name, value, unit, note in rows:
        print(f"  {name:<{width}}  {value:<14.6g} {unit:<10} {note}".rstrip())
    return {"correct": failed == 0, "attempted": main["attempted"], "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pdmprate benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pdmprate" / "__init__.py").is_file():
        print(f"error: no pdmprate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: need --seconds > 0 and --seed >= 0", file=sys.stderr)
        return 2
    timeout = 2 * args.seconds + 60
    # on SIGTERM, unwind as on an error: subprocess.run kills and reaps the
    # running child, and the input directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            workdir = Path(tmp)
            workloads.write_inputs(w, args.seed, workdir)
            probes = []
            if not args.trace:
                for k in range(PROBES):
                    probes.append(run_child(w.name, workdir, f"probe{k}", args.seed,
                                            PROBE_TIMEOUT_S, ["--probe"]))
            extra = ["--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
            result = run_child(w.name, workdir, "main", args.seed, timeout, extra)
            probes.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, result, [p["setup_s"] for p in probes],
                            [p["setup_wall_s"] for p in probes], tracing.LAYER_METRICS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
