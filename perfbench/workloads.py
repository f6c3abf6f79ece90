"""Workloads of the pdmprate benchmark: their inputs, their ops and the checks on each op's output.

Two kinds of workload drive the public library from outside ``src/``:

* ``mc``: one op is one Monte Carlo replicate, ``pdmprate.bench.run_replicate``
  on the config read from the workload's YAML (replicate index ``i`` for op ``i``);
* ``estimate``: one op is one in-process ``pdmprate.cli.main([... "estimate",
  "--chain", F])`` on a chain file written before timing.

Inputs come from ``--seed`` alone.  At the default seed every op is compared
with the stored reference outputs in ``reference.json``; on every seed the
outputs must also satisfy invariants that hold for any chain.

This module imports nothing from ``pdmprate``: the ops look the program's
functions up on the modules passed in, at call time, so that a tracer can wrap
them where they are called.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

DEFAULT_SEED = 0
# outputs of the first DIGEST_OPS ops are hashed, so two commits can be
# compared at one seed whatever number of ops each completed
DIGEST_OPS = 4
# reference.json strides: every COEFF_STRIDE-th fit coefficient and every
# GRID_STRIDE-th grid row are stored for the estimate workload
COEFF_STRIDE = 4
GRID_STRIDE = 64
GRID_COLUMNS = ["y", "lambda_hat", "lambda_true", "nu_hat_of_f", "d_hat"]


@dataclass(frozen=True)
class Workload:
    """One set of inputs; ``model`` is the YAML ``model`` section."""

    name: str
    kind: str
    model: dict
    n: int
    interval: tuple
    grid_points: int = 513
    files: int = 0
    numeric_sampler: bool = False

    @property
    def d_max(self) -> int:
        """Largest admissible dimension ``2m+1`` with ``(2m+1)^2 <= n``."""
        return 2 * int((math.sqrt(self.n) - 1.0) // 2) + 1


def _model(flow, c, kappa, rate):
    return {"flow": {"variant": flow, "c": c}, "f": {"kappa": kappa},
            "rate": rate}


WORKLOADS = {w.name: w for w in (
    # the paper's table-1 model; simulate ~56 %, select_model ~33 % of an op
    Workload("mc_power", "mc",
             _model("additive", 1.0, 0.5,
                    {"variant": "power", "lam": 1.0, "delta": 0.0}),
             n=10_000, interval=(0.2, 4.0)),
    # sequential Cardano sampler, ~85 % of an op, high selected dimension
    Workload("mc_quadratic", "mc",
             _model("additive", 1.0, 0.2,
                    {"variant": "quadratic", "a": 1.0, "b": 0.5}),
             n=10_000, interval=(0.1, 2.8)),
    # exponential flow with a quadratic rate has no closed form: the numeric
    # GenericSampler (quad + brentq) takes ~95 % of an op
    Workload("mc_generic", "mc",
             _model("exponential", 2.0, 0.5,
                    {"variant": "quadratic", "a": 1.0, "b": 0.5}),
             n=3_000, interval=(0.5, 2.5), numeric_sampler=True),
    # file in, files out: select_model and the denominator dominate, no
    # simulate and no risk sweep
    Workload("estimate_file", "estimate",
             _model("exponential", 1.0, 0.5,
                    {"variant": "power", "lam": 1.0, "delta": 1.0}),
             n=100_000, interval=(0.5, 2.5), grid_points=2049, files=8),
)}


# --- inputs ----------------------------------------------------------------------

@dataclass(frozen=True)
class Inputs:
    config: Path
    out_dir: Path
    chains: tuple


def inputs_at(w: Workload, workdir: Path) -> Inputs:
    """Where :func:`write_inputs` puts the workload's files under ``workdir``."""
    workdir = Path(workdir)
    return Inputs(config=workdir / "config.yaml", out_dir=workdir / "out",
                  chains=tuple(workdir / f"chain{i}.tsv" for i in range(w.files)))


def write_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the workload's YAML config, and its chain files, under ``workdir``."""
    inputs = inputs_at(w, workdir)
    inputs.config.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "model": w.model,
        "estimation": {"interval": list(w.interval)},
        "experiment": {"n_values": [w.n], "replicates": 1, "base_seed": seed},
        "io": {"out_dir": str(inputs.out_dir), "grid_points": w.grid_points},
    }
    inputs.config.write_text(yaml.safe_dump(doc, sort_keys=True))
    for index, path in enumerate(inputs.chains):
        path.write_text(chain_text(w, seed, index))
    return inputs


def chain_text(w: Workload, seed: int, index: int) -> str:
    """Chain file ``index`` of the estimate workload, in the package's format.

    The model is the exponential flow with halving jumps and rate ``lam*x``.
    Its closed-form step is ``z' = (z + c*e/lam)/2`` with ``e ~ Exp(1)``, so the
    benchmark makes its inputs without calling the program it measures.
    """
    rate = w.model["rate"]
    if (w.model["flow"]["variant"] != "exponential" or w.model["f"]["kappa"] != 0.5
            or rate["variant"] != "power" or rate["delta"] != 1.0):
        raise ValueError(f"{w.name}: chain files need the halving, linear-rate model")
    scale = w.model["flow"]["c"] / rate["lam"]
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    z = 1.0
    lines = ["# model: exponential flow, kappa 0.5, rate lam*x",
             f"# seed: {seed} file {index}", "# columns: z", f"{z:.17g}"]
    for e in rng.exponential(1.0, size=w.n).tolist():
        z = 0.5 * (z + scale * e)
        lines.append(f"{z:.17g}")
    return "\n".join(lines) + "\n"


# --- ops ------------------------------------------------------------------------

def make_op(w: Workload, inputs: Inputs, config, pdm):
    """The timed op ``op(i)``; ``pdm`` maps ``bench``/``cli`` to the package modules."""
    if w.kind == "mc":
        experiment = config.experiment()
        bench = pdm["bench"]

        def op(i):
            return bench.run_replicate(experiment, w.n, i)
    else:
        cli = pdm["cli"]
        argv = ["--config", str(inputs.config), "estimate", "--chain"]

        def op(i):
            return cli.main(argv + [str(inputs.chains[i % len(inputs.chains)])])
    return op


def load_reference(w: Workload, seed: int) -> Optional[list]:
    """Stored outputs for this exact workload at the default seed, else ``None``."""
    if seed != DEFAULT_SEED or WORKLOADS.get(w.name) != w:
        return None
    doc = json.loads(REFERENCE_PATH.read_text())
    return doc["workloads"][w.name]


def tolerance() -> tuple:
    doc = json.loads(REFERENCE_PATH.read_text())
    return doc["rel_tol"], doc["abs_tol"]


class Checker:
    """Turns an op's raw result into an output record and checks it.

    ``check(i, raw)`` returns ``(record, problem)``; ``problem`` is ``None``
    when the output is correct.  Records are plain JSON values.
    """

    def __init__(self, w: Workload, inputs: Inputs, reference: Optional[list],
                 rel_tol: float, abs_tol: float):
        self.w = w
        self.inputs = inputs
        self.reference = reference
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        self._file_sha = {}

    def check(self, i: int, raw):
        if self.w.kind == "mc":
            record = self._mc_record(raw)
            problem = self._mc_invariants(record)
            key = i
        else:
            record = self._estimate_record(i, raw)
            problem = self._estimate_invariants(record)
            key = record["file"]
        if problem is None and self.reference is not None and key < len(self.reference):
            problem = self._compare(self.reference[key], record)
        return record, problem

    # mc ----------------------------------------------------------------------
    @staticmethod
    def _mc_record(res) -> dict:
        return {"d_mhat": int(res.d_mhat), "d_mopt": int(res.d_mopt),
                "risk_mhat": float(res.risk_mhat),
                "risk_mopt": float(res.risk_mopt),
                "denom_mid": float(res.denom_mid), "ratio": float(res.ratio)}

    def _mc_invariants(self, r: dict) -> Optional[str]:
        for key in ("d_mhat", "d_mopt"):
            if not (1 <= r[key] <= self.w.d_max and r[key] % 2 == 1):
                return f"{key}={r[key]} is not an odd dimension in [1, {self.w.d_max}]"
        for key in ("risk_mhat", "risk_mopt", "denom_mid", "ratio"):
            if not (math.isfinite(r[key]) and r[key] >= 0.0):
                return f"{key}={r[key]!r} is not finite and nonnegative"
        if r["risk_mopt"] > r["risk_mhat"]:
            return "oracle risk exceeds the selected model's risk"
        if r["ratio"] < 1.0:
            return f"oracle ratio {r['ratio']!r} < 1"
        return None

    # estimate -----------------------------------------------------------------
    def _estimate_record(self, i: int, rc) -> dict:
        fit_path = self.inputs.out_dir / "fit.tsv"
        grid_path = self.inputs.out_dir / "grid.tsv"
        fit_text, grid_text = fit_path.read_text(), grid_path.read_text()
        # the next op must write its own files, not leave these to be read again
        fit_path.unlink()
        grid_path.unlink()
        fields = dict(line.split("\t", 1) for line in fit_text.splitlines() if line)
        coeffs = [float(v) for v in fields["coefficients"].split("\t")]
        header, *rows = grid_text.splitlines()
        grid = np.array([[float(v) for v in row.split("\t")] for row in rows])
        lo, hi = self.w.interval
        risk = _simpson(grid[:, 1] - grid[:, 2], grid[:, 0]) \
            if grid.ndim == 2 and grid.shape[1] == len(GRID_COLUMNS) else math.nan
        return {
            "rc": rc, "file": i % len(self.inputs.chains),
            "header": header.split("\t"), "rows": len(rows),
            "n": int(fields["n"]), "d_max": int(fields["d_max"]),
            "m_hat": int(fields["m_hat"]), "n_coeffs": len(coeffs),
            "coeffs": coeffs[::COEFF_STRIDE],
            "grid": grid[::GRID_STRIDE, 1:].tolist(),
            "y_ok": bool(grid.ndim == 2 and len(grid) == self.w.grid_points
                         and np.allclose(grid[:, 0], np.linspace(lo, hi, len(grid)),
                                         rtol=self.rel_tol, atol=self.abs_tol)),
            "finite": bool(np.all(np.isfinite(grid)) and all(map(math.isfinite, coeffs))),
            "nonneg": bool(np.all(grid[:, [1, 4]] >= 0.0)) if grid.ndim == 2 else False,
            "risk": risk,
            "sha256": hashlib.sha256((fit_text + grid_text).encode()).hexdigest(),
        }

    def _estimate_invariants(self, r: dict) -> Optional[str]:
        if r["rc"] != 0:
            return f"pdmprate estimate exited with {r['rc']}"
        if r["header"] != GRID_COLUMNS:
            return f"grid.tsv columns {r['header']} != {GRID_COLUMNS}"
        if r["rows"] != self.w.grid_points or not r["y_ok"]:
            return (f"grid.tsv has {r['rows']} rows, expected the "
                    f"{self.w.grid_points}-point grid on {self.w.interval}")
        if not r["finite"]:
            return "non-finite number in fit.tsv or grid.tsv"
        if not r["nonneg"]:
            return "negative rate estimate or denominator in grid.tsv"
        if r["n"] != self.w.n or r["d_max"] != self.w.d_max or r["n_coeffs"] != self.w.d_max:
            return (f"fit.tsv has n={r['n']}, d_max={r['d_max']} and "
                    f"{r['n_coeffs']} coefficients; expected n={self.w.n}, "
                    f"d_max={self.w.d_max}")
        if not 1 <= 2 * r["m_hat"] + 1 <= r["d_max"]:
            return f"selected dimension {2 * r['m_hat'] + 1} outside [1, {r['d_max']}]"
        if not math.isfinite(r["risk"]):
            return "risk of the rate estimate is not finite"
        first = self._file_sha.setdefault(r["file"], r["sha256"])
        if first != r["sha256"]:
            return f"chain file {r['file']} gave different outputs on a repeat"
        return None

    # reference ----------------------------------------------------------------
    def _compare(self, ref: dict, record: dict) -> Optional[str]:
        for key, want in ref.items():
            got = record[key]
            if isinstance(want, int):
                if got != want:
                    return f"{key}={got}, reference {want}"
                continue
            got_a = np.asarray(got, dtype=float)
            want_a = np.asarray(want, dtype=float)
            if got_a.shape != want_a.shape:
                return f"{key} has shape {got_a.shape}, reference {want_a.shape}"
            err = np.abs(got_a - want_a)
            limit = self.rel_tol * np.abs(want_a) + self.abs_tol
            if np.any(err > limit):
                worst = np.unravel_index(np.argmax(err - limit), err.shape)
                return (f"{key}{list(worst) if err.ndim else ''} = "
                        f"{got_a[worst]!r}, reference {want_a[worst]!r}")
        return None


REFERENCE_KEYS = {
    "mc": ("d_mhat", "d_mopt", "risk_mhat", "risk_mopt", "denom_mid"),
    "estimate": ("m_hat", "d_max", "n", "coeffs", "grid"),
}


def reference_entry(w: Workload, record: dict) -> dict:
    """The part of an output record stored in ``reference.json``."""
    return {key: record[key] for key in REFERENCE_KEYS[w.kind]}


def quality(w: Workload, records: list) -> dict:
    """Mean L2 risk at the selected dimension, and the mean oracle ratio (mc)."""
    risks = [r["risk_mhat" if w.kind == "mc" else "risk"] for r in records]
    out = {"risk_mean": float(np.mean(risks)) if risks else math.nan}
    if w.kind == "mc":
        out["oracle_ratio"] = float(np.mean([r["ratio"] for r in records])) \
            if records else math.nan
    return out


def digest(records: list) -> str:
    """Hash of the first ``DIGEST_OPS`` output records."""
    text = json.dumps(records[:DIGEST_OPS], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _simpson(values: np.ndarray, xs: np.ndarray) -> float:
    """Composite Simpson integral of ``values**2`` on an odd equispaced grid."""
    sq = values ** 2
    h = (xs[-1] - xs[0]) / (len(xs) - 1)
    return float(h / 3.0 * (sq[0] + sq[-1] + 4.0 * sq[1:-1:2].sum()
                            + 2.0 * sq[2:-1:2].sum()))
