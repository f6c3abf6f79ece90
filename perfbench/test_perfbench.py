"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import child
import run
import tracing
import workloads

TINY = {
    "mc_power": dict(n=400),
    "mc_quadratic": dict(n=400),
    "mc_generic": dict(n=200),
    "estimate_file": dict(n=2000, grid_points=65, files=2),
}


def tiny(name, **changes):
    return dataclasses.replace(workloads.WORKLOADS[name], **{**TINY[name], **changes})


def checker(w, inputs, reference=None):
    return workloads.Checker(w, inputs, reference, *workloads.tolerance())


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.LAYER_METRICS


def test_inputs_depend_on_the_seed_only(tmp_path):
    w = tiny("estimate_file")
    a = workloads.write_inputs(w, 5, tmp_path / "a")
    b = workloads.write_inputs(w, 5, tmp_path / "b")
    c = workloads.write_inputs(w, 6, tmp_path / "c")
    assert a.chains[1].read_text() == b.chains[1].read_text()
    assert a.chains[1].read_text() != c.chains[1].read_text()
    assert a.chains[0].read_text() != a.chains[1].read_text()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_end_to_end(tmp_path, name, trace):
    w = tiny(name)
    inputs = workloads.write_inputs(w, 3, tmp_path)
    result = child.measure(w, inputs, 3, 0.4, trace)
    assert result["failures"] == []
    assert result["attempted"] >= (2 if trace else 1)
    assert result["setup_s"] > 0 and result["peak_rss_mb"] > 0
    # the kernel runs before every op and once after the last, untraced only
    assert len(result["cal_cpu_s"]) == (0 if trace else len(result["op_cpu_s"]) + 1)
    if trace:
        layers = result["per_layer"]
        assert set(layers) == set(tracing.LAYER_METRICS)
        busy = "simulate.simulate_chain.share" if w.kind == "mc" \
            else "density.select_model.share"
        assert layers[busy] > 0
        assert (layers["simulate.GenericSampler.hazard_calls_per_step"] > 0) \
            == w.numeric_sampler


def test_calibrated_cost_uses_the_kernel_runs_around_each_op():
    assert run.calibrated_costs([2.0, 3.0], [1.0, 3.0, 1.0]) == [1.0, 1.5]
    assert child.calibrate() > 0


def _replicate(entry, **changes):
    fields = {**entry, "ratio": entry["risk_mhat"] / entry["risk_mopt"], **changes}
    return SimpleNamespace(**fields)


def test_perturbed_replicate_fails_against_the_reference(tmp_path):
    w = workloads.WORKLOADS["mc_power"]
    reference = workloads.load_reference(w, workloads.DEFAULT_SEED)
    check = checker(w, None, reference).check
    entry = reference[0]
    assert check(0, _replicate(entry))[1] is None
    _, problem = check(0, _replicate(entry, risk_mhat=entry["risk_mhat"] * (1 + 1e-9)))
    assert "risk_mhat" in problem
    _, problem = check(0, _replicate(entry, d_mhat=entry["d_mhat"] + 2))
    assert "d_mhat" in problem
    # on any seed: an oracle worse than the selected model is impossible
    _, problem = checker(w, None).check(0, _replicate(entry, risk_mopt=1e9))
    assert "oracle" in problem


def test_perturbed_estimate_files_fail(tmp_path):
    w = tiny("estimate_file")
    inputs = workloads.write_inputs(w, 1, tmp_path)
    config = child.pdmprate.config.load_config_file(str(inputs.config))
    op = workloads.make_op(w, inputs, config, {"cli": child.pdmprate.cli})
    record, problem = checker(w, inputs).check(0, op(0))
    assert problem is None
    entry = workloads.reference_entry(w, record)
    assert checker(w, inputs, [entry, entry]).check(0, op(0))[1] is None
    entry["coeffs"][1] *= 1 + 1e-9
    assert "coeffs" in checker(w, inputs, [entry, entry]).check(0, op(0))[1]

    op(0)
    grid = inputs.out_dir / "grid.tsv"
    rows = grid.read_text().splitlines()
    cells = rows[5].split("\t")
    cells[4] = "-1"
    grid.write_text("\n".join(rows[:5] + ["\t".join(cells)] + rows[6:]) + "\n")
    assert "negative" in checker(w, inputs).check(0, 0)[1]

    op(0)
    grid.write_text("\n".join(rows[:-1]) + "\n")
    assert "rows" in checker(w, inputs).check(0, 0)[1]


def test_every_exception_is_a_counted_failure(tmp_path):
    w = workloads.WORKLOADS["mc_power"]
    reference = workloads.load_reference(w, workloads.DEFAULT_SEED)

    def op(i):
        if i % 3 == 0:
            raise RuntimeError("Failed to converge after 100 iterations")
        if i % 3 == 1:
            return _replicate(reference[i], denom_mid=-1.0)
        return _replicate(reference[i])

    loop = child.run_ops(op, checker(w, None, reference).check, count=6)
    assert len(loop.problems) == 6
    assert [p is None for p in loop.problems] == [False, False, True] * 2
    assert loop.problems[0].startswith("RuntimeError")


def test_sampler_errors_do_not_stop_the_run(tmp_path):
    # the constant rate under the exponential flow is not ergodic: the numeric
    # sampler runs out of hazard before its cap on most replicates
    w = tiny("mc_power", model=workloads._model(
        "exponential", 1.0, 0.5, {"variant": "power", "lam": 1.0, "delta": 0.0}),
        n=1000)
    inputs = workloads.write_inputs(w, 0, tmp_path)
    config = child.pdmprate.config.load_config_file(str(inputs.config))
    op = workloads.make_op(w, inputs, config, {"bench": child.pdmprate.bench})
    loop = child.run_ops(op, checker(w, inputs).check, count=3)
    assert len(loop.problems) == 3
    assert any(p is not None and "CapExceeded" in p for p in loop.problems)


def test_trace_fails_when_a_wrapper_is_missing(tmp_path, monkeypatch):
    w = tiny("mc_power")
    inputs = workloads.write_inputs(w, 0, tmp_path)
    targets = tuple(t for t in tracing.TARGETS["mc"] if t[1] != "select_model")
    monkeypatch.setitem(tracing.TARGETS, "mc", targets + (
        ("pdmprate.bench", "select_model_moved", "density.select_model", None),))
    with pytest.raises(tracing.TraceIncomplete, match="density.select_model"):
        child.measure(w, inputs, 0, 0.2, trace=True)
    monkeypatch.setitem(tracing.TARGETS, "mc", targets + (
        ("pdmprate.cli", "select_model", "density.select_model", None),))
    with pytest.raises(tracing.TraceIncomplete, match="density.select_model missing"):
        child.measure(w, inputs, 0, 0.2, trace=True)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_default_seed_matches_the_reference(name):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         str(workloads.DEFAULT_SEED), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mc_power",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
