"""Regenerate ``reference.json``: the outputs of each workload's first ops at the default seed.

    python3 perfbench/make_reference.py

Run it only when a change to the program is meant to change its outputs, and
say so with the change.  Ops run in this process with the same one-thread
BLAS settings as the benchmark, because a threaded reduction can round
differently.
"""

import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path

from run import BLAS_THREADS, ROOT, SRC, THREAD_VARS

os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
sys.path.insert(0, str(SRC))

import pdmprate.cli

import workloads

# the first MC_OPS replicates of each mc workload, and every chain file of an
# estimate workload, are stored
MC_OPS = 48
# relative tolerance (about 4500 ulp of a double) with an absolute floor for
# values near zero; dimensions are compared exactly
REL_TOL = 1e-12
ABS_TOL = 1e-15


def reference_records(w) -> list:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp, \
            open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        inputs = workloads.write_inputs(w, workloads.DEFAULT_SEED, Path(tmp))
        config = pdmprate.config.load_config_file(str(inputs.config))
        op = workloads.make_op(w, inputs, config,
                               {"bench": pdmprate.bench, "cli": pdmprate.cli})
        checker = workloads.Checker(w, inputs, None, REL_TOL, ABS_TOL)
        out = []
        for i in range(MC_OPS if w.kind == "mc" else w.files):
            record, problem = checker.check(i, op(i))
            if problem is not None:
                raise SystemExit(f"{w.name} op {i}: {problem}")
            out.append(workloads.reference_entry(w, record))
        return out


def main() -> None:
    doc = {"seed": workloads.DEFAULT_SEED, "rel_tol": REL_TOL, "abs_tol": ABS_TOL,
           "workloads": {}}
    for name, w in workloads.WORKLOADS.items():
        print(f"{name} ...", file=sys.stderr)
        doc["workloads"][name] = reference_records(w)
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
