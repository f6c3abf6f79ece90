"""One benchmark process: import pdmprate, load the workload's config, run ops in a closed loop.

``run.py`` starts this script in a fresh interpreter for every measurement:

    child.py WORKLOAD WORKDIR RESULT --seed N [--seconds S] [--trace] [--probe]

``--probe`` stops after set-up, which is timed from the first line of this
file to the loaded config.  Otherwise ops run one after another until
``--seconds`` have passed, each between two blocks of calibration kernel
runs (:func:`calibrate`).  With ``--trace`` the loop runs for half the time
untraced and uncalibrated, then runs the same ops again with every layer
wrapped, and reports per-layer metrics.  The result is written as JSON to
RESULT.
"""

# the package import is the first part of the timed set-up, so it comes
# before every other import
import time

T0 = time.perf_counter()
C0 = time.process_time()
import pdmprate
import pdmprate.cli

T_IMPORT = time.perf_counter()
C_IMPORT = time.process_time()

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy
import yaml

import tracing
import workloads


@dataclass
class Loop:
    """Outcome of running ops ``0..k-1``: one time, record and problem per op."""

    wall: float = 0.0
    op_s: list = field(default_factory=list)
    op_cpu_s: list = field(default_factory=list)
    cal_cpu_s: list = field(default_factory=list)
    records: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> list:
        return [p is None for p in self.problems]


# The calibration kernel: fixed work that calls no pdmprate code, a pure-Python
# float loop and numpy passes over arrays of a few MB.  Other tenants of a
# shared machine slow it and the ops alike, in spells lasting minutes; an op's
# CPU time divided by the kernel's, timed just before and after the op, stays
# within a few per cent across such spells where the op's own time moves by
# up to 30 %.  Next to a long op the kernel runs several times, so that
# its own noise averages out: each block of kernel runs takes about
# CAL_SHARE of the op it follows.
CAL_SHARE = 0.15
CAL_PY_STEPS = 30_000
CAL_X = numpy.random.default_rng(0).random(20_000)
CAL_K = numpy.arange(1.0, 40.0)[:, None]
CAL_Y = numpy.linspace(0.0, 1.0, 64)[:, None]


def calibrate(runs: int = 1) -> float:
    """Run the calibration kernel ``runs`` times; returns CPU seconds per run."""
    c = time.process_time()
    for _ in range(runs):
        x, total = 0.5, 0.0
        for _ in range(CAL_PY_STEPS):
            x = (x * 1.000001 + 0.1) % 3.0
            total += math.sqrt(x) + x ** (1.0 / 3.0)
        total += float(numpy.cos(CAL_K * CAL_X).sum())
        total += float(((CAL_X <= CAL_Y) & (CAL_X >= 0.5 * CAL_Y)).sum())
    return (time.process_time() - c) / runs


def run_ops(op, check, seconds=None, count=None, calibrated=False) -> Loop:
    """Closed loop: op ``i+1`` starts when op ``i`` and its check are done.

    Stops after ``count`` ops, or at the first op boundary after ``seconds``.
    Any exception from an op or its check fails that op and the loop goes on.
    With ``calibrated`` the kernel runs before every op and after the last,
    so ``cal_cpu_s`` has one entry more than ``op_cpu_s``.
    """
    loop = Loop()
    start = time.perf_counter()
    i = 0
    cal_runs = 1
    while count is None or i < count:
        if calibrated:
            loop.cal_cpu_s.append(calibrate(cal_runs))
        t, c = time.perf_counter(), time.process_time()
        dt = None
        try:
            raw = op(i)
            dt, dc = time.perf_counter() - t, time.process_time() - c
            record, problem = check(i, raw)
        except Exception as exc:  # a failed op is counted, not fatal
            if dt is None:
                dt, dc = time.perf_counter() - t, time.process_time() - c
            record, problem = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        loop.op_s.append(dt)
        loop.op_cpu_s.append(dc)
        if calibrated:
            cal_runs = max(1, round(CAL_SHARE * dc / loop.cal_cpu_s[-1]))
        loop.records.append(record)
        loop.problems.append(problem)
        i += 1
        if count is None and time.perf_counter() - start >= seconds:
            break
    if calibrated:
        loop.cal_cpu_s.append(calibrate(cal_runs))
    loop.wall = time.perf_counter() - start
    return loop


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": blas,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure(w, inputs: workloads.Inputs, seed: int, seconds: float,
            trace: bool, probe: bool = False) -> dict:
    """Set up, then run the workload; returns the JSON-ready result."""
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        for target in tracing.SETUP_TARGETS:
            tracer.span(*target)
    try:
        t, c = time.perf_counter(), time.process_time()
        config = pdmprate.config.load_config_file(str(inputs.config))
        setup_wall_s = (T_IMPORT - T0) + (time.perf_counter() - t)
        setup_s = (C_IMPORT - C0) + (time.process_time() - c)
        result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s,
                  "env": environment()}
        if probe:
            return result
        op = workloads.make_op(w, inputs, config,
                               {"bench": pdmprate.bench, "cli": pdmprate.cli})
        checker = workloads.Checker(w, inputs, workloads.load_reference(w, seed),
                                    *workloads.tolerance())
        # the CLI prints a summary line per op; keep it out of the result
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            loop = run_ops(op, checker.check, seconds=seconds / 2 if trace else seconds,
                           calibrated=not trace)
            problems = list(loop.problems)
            if trace:
                tracing.install(tracer, w.kind)
                traced = run_ops(op, checker.check, count=len(loop.op_s))
                for k, (a, b) in enumerate(zip(loop.records, traced.records)):
                    if traced.problems[k] is None and a != b:
                        traced.problems[k] = "traced output differs from untraced"
                tracing.check_complete(tracer, w.kind, traced.ok, w.numeric_sampler)
                result["per_layer"] = tracing.layer_metrics(
                    tracer, w.kind, traced.wall / loop.wall - 1.0)
                problems += traced.problems
        good = [r for r, p in zip(loop.records, loop.problems) if p is None]
        result.update({
            "wall_s": loop.wall,
            "op_s": loop.op_s,
            "op_cpu_s": loop.op_cpu_s,
            "cal_cpu_s": loop.cal_cpu_s,
            "attempted": len(problems),
            "failures": [[k, p] for k, p in enumerate(problems) if p is not None],
            "quality": workloads.quality(w, good),
            "digest": workloads.digest(loop.records),
            "digest_ops": min(len(loop.records), workloads.DIGEST_OPS),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        return result
    finally:
        if tracer is not None:
            tracer.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("workdir", help="directory holding the written inputs")
    parser.add_argument("result")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    inputs = workloads.inputs_at(w, args.workdir)
    try:
        result = measure(w, inputs, args.seed, args.seconds, args.trace, args.probe)
    except tracing.TraceIncomplete as exc:
        print(f"trace incomplete: {exc}", file=sys.stderr)
        return 3
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
