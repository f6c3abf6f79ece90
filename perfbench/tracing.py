"""Spans around the pdmprate calls each workload makes, recorded from outside the package.

Each public function is wrapped on the module that calls it (``pdmprate.bench``
for a replicate, ``pdmprate.cli`` for an estimate), so a span covers exactly
the call the op makes.  Spans are kept in memory and reduced to per-layer
metrics when the run ends.  A span that a workload should record but did not
is an error naming the span, never a zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass


class TraceIncomplete(RuntimeError):
    """An expected span is missing: the call site it wraps moved or is gone."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    op: int        # index of the root span of the op this span belongs to
    parent: int    # index of the enclosing span, -1 for a root
    work: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _steps(args, result):
    return result.n


def _evals(args, result):
    return len(args[0]) * len(result.coeffs)


def _pairs(args, result):
    return args[0].n * len(result)


def _lines(args, result):
    return len(result.z)


# (owner, attribute, span name, work done by one call)
SETUP_TARGETS = (
    ("pdmprate.config", "load_config_file", "config.load_config_file", None),
)
TARGETS = {
    "mc": (
        ("pdmprate.bench", "run_replicate", "bench.run_replicate", None),
        ("pdmprate.bench", "simulate_chain", "simulate.simulate_chain", _steps),
        ("pdmprate.bench", "select_model", "density.select_model", _evals),
        ("pdmprate.bench", "denominator_grid", "jumprate.denominator_grid", _pairs),
        ("pdmprate.bench", "risk_sweep", "jumprate.risk_sweep", None),
    ),
    "estimate": (
        ("pdmprate.cli", "main", "cli.main", None),
        ("pdmprate.cli", "chain_from_text", "simulate.chain_from_text", _lines),
        ("pdmprate.cli", "select_model", "density.select_model", _evals),
        ("pdmprate.cli", "denominator_grid", "jumprate.denominator_grid", _pairs),
        ("pdmprate.cli", "rate_grid", "jumprate.rate_grid", None),
        ("pdmprate.cli", "fit_to_text", "density.fit_to_text", None),
        # cmd_estimate imports grid_to_tsv from pdmprate.jumprate when it runs
        ("pdmprate.jumprate", "grid_to_tsv", "jumprate.grid_to_tsv", None),
    ),
}
HAZARD = ("pdmprate.simulate.GenericSampler", "hazard_to",
          "simulate.GenericSampler.hazard_to")

# per-layer metric name -> unit; every traced run reports all of them, and a
# layer a workload does not run reads 0
LAYER_METRICS = {
    "simulate.simulate_chain.busy_s": "s",
    "simulate.simulate_chain.share": "fraction",
    "simulate.simulate_chain.steps_per_s": "1/s",
    "simulate.GenericSampler.hazard_calls_per_step": "calls/step",
    "simulate.chain_from_text.busy_s": "s",
    "simulate.chain_from_text.lines_per_s": "1/s",
    "density.select_model.busy_s": "s",
    "density.select_model.share": "fraction",
    "density.select_model.evals_per_s": "1/s",
    "jumprate.denominator_grid.busy_s": "s",
    "jumprate.denominator_grid.share": "fraction",
    "jumprate.denominator_grid.pairs_per_s": "1/s",
    "jumprate.risk_sweep.busy_s": "s",
    "jumprate.risk_sweep.share": "fraction",
    "jumprate.rate_grid.busy_s": "s",
    "density.fit_to_text.busy_s": "s",
    "jumprate.grid_to_tsv.busy_s": "s",
    "config.load_config_file.busy_s": "s",
    "bench.run_replicate.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "fraction",
}


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Tracer:
    """Wraps functions in place; ``close`` puts the originals back."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self._stack = []
        self._undo = []

    def _original(self, owner_path, attr, name):
        try:
            owner = _resolve(owner_path)
        except (ImportError, AttributeError):
            owner = None
        original = getattr(owner, attr, None)
        if original is None:
            raise TraceIncomplete(
                f"span {name}: {owner_path}.{attr} does not exist; "
                "the call site it measures has moved")
        self._undo.append((owner, attr, original))
        return owner, original

    def span(self, owner_path: str, attr: str, name: str, work=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        owner, original = self._original(owner_path, attr, name)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            op = spans[stack[0]].op if stack else index
            span = Span(name, time.perf_counter(), 0.0, op, parent)
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if work is not None:
                span.work = work(args, result)
            return result

        setattr(owner, attr, wrapper)

    def count(self, owner_path: str, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        owner, original = self._original(owner_path, attr, name)
        calls = self.calls

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, kind: str) -> None:
    """Wrap the op's calls for a workload of ``kind``, and the sampler counter."""
    for owner, attr, name, work in TARGETS[kind]:
        tracer.span(owner, attr, name, work)
    tracer.count(*HAZARD)


def check_complete(tracer: Tracer, kind: str, ok_ops: list,
                   numeric_sampler: bool) -> None:
    """Every op that succeeded must contain every expected span once or more."""
    root, *children = [t[2] for t in TARGETS[kind]]
    roots = [i for i, s in enumerate(tracer.spans) if s.parent == -1 and s.name == root]
    if len(roots) != len(ok_ops):
        raise TraceIncomplete(f"span {root}: recorded {len(roots)} times "
                              f"for {len(ok_ops)} ops")
    seen = {}
    for s in tracer.spans:
        seen.setdefault(s.op, set()).add(s.name)
    for k, (index, ok) in enumerate(zip(roots, ok_ops)):
        missing = [c for c in children if c not in seen[index]]
        if ok and missing:
            raise TraceIncomplete(f"span {missing[0]} missing from op {k}: "
                                  "its call site has moved or is no longer called")
    if numeric_sampler and tracer.calls[HAZARD[2]] == 0:
        raise TraceIncomplete(f"counter {HAZARD[2]}: no calls recorded")


def layer_metrics(tracer: Tracer, kind: str, overhead_frac: float) -> dict:
    """Per-layer metrics of the traced ops; busy times are per op."""
    root = TARGETS[kind][0][2]
    ops = [s for s in tracer.spans if s.parent == -1 and s.name == root]
    op_wall = sum(s.seconds for s in ops)
    busy, work, child = Counter(), Counter(), 0.0
    for s in tracer.spans:
        busy[s.name] += s.seconds
        work[s.name] += s.work
        if s.parent != -1 and tracer.spans[s.parent].parent == -1 \
                and tracer.spans[s.parent].name == root:
            child += s.seconds
    k = max(len(ops), 1)

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    out = dict.fromkeys(LAYER_METRICS, 0.0)
    for layer, rate in (("simulate.simulate_chain", "steps_per_s"),
                        ("density.select_model", "evals_per_s"),
                        ("jumprate.denominator_grid", "pairs_per_s"),
                        ("jumprate.risk_sweep", None),
                        ("simulate.chain_from_text", "lines_per_s"),
                        ("jumprate.rate_grid", None),
                        ("density.fit_to_text", None),
                        ("jumprate.grid_to_tsv", None)):
        out[f"{layer}.busy_s"] = busy[layer] / k
        if f"{layer}.share" in out:
            out[f"{layer}.share"] = ratio(busy[layer], op_wall)
        if rate is not None:
            out[f"{layer}.{rate}"] = ratio(work[layer], busy[layer])
    out["simulate.GenericSampler.hazard_calls_per_step"] = ratio(
        tracer.calls[HAZARD[2]], work["simulate.simulate_chain"])
    out["config.load_config_file.busy_s"] = busy["config.load_config_file"]
    out[f"{root}.self_s"] = (op_wall - child) / k
    out["trace.overhead_frac"] = overhead_frac
    return out
