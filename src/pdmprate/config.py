"""YAML configuration loading with validation and materialized defaults.

The document has four sections: ``model`` (flow, jump map, rate), ``estimation``
(window, interval, penalty constants), ``experiment`` (chain lengths,
replicates, seed) and ``io`` (output directory, grid size).  Every validation
error names the offending key path.
"""

from __future__ import annotations

import math

import yaml

from .bench import ExperimentConfig
from .errors import ConfigError
from .model import (ADDITIVE, EXPONENTIAL, Flow, JumpMap, Model, PowerRate,
                    ShiftedQuadraticRate)

# Estimation intervals used in the reference tables, keyed by
# (flow variant, rate variant, distinguishing parameters).
DEFAULT_INTERVALS = {
    (ADDITIVE, "power", 0.5, 0.0): (0.2, 4.0),
    (ADDITIVE, "power", 0.5, 0.5): (0.2, 3.0),
    (ADDITIVE, "power", 0.5, 1.0): (0.5, 2.5),
    (ADDITIVE, "power", 0.2, 1.0): (0.1, 2.5),
    (ADDITIVE, "power", 0.5, 2.0): (0.5, 2.0),
    (ADDITIVE, "quadratic", 0.2, None): (0.1, 2.8),
    (EXPONENTIAL, "power", 0.5, 0.5): (0.5, 3.0),
    (EXPONENTIAL, "power", 0.5, 1.0): (0.5, 2.5),
    (EXPONENTIAL, "power", 0.5, 2.0): (0.5, 2.0),
}
FALLBACK_INTERVAL = (0.5, 2.5)


def _get(doc: dict, path: str, default=None, required=False):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"{path}: missing required key")
            return default
        node = node[part]
    return node


def _number(doc, path, default=None, required=False, check=None, what=""):
    val = _get(doc, path, default=default, required=required)
    if val is None:
        return None
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {val!r}")
    val = float(val)
    if not math.isfinite(val):
        raise ConfigError(f"{path}: expected a finite number, got {val!r}")
    if check is not None and not check(val):
        raise ConfigError(f"{path}: {what}, got {val!r}")
    return val


def _build_model(doc: dict) -> Model:
    variant = _get(doc, "model.flow.variant", required=True)
    if variant not in (ADDITIVE, EXPONENTIAL):
        raise ConfigError(f"model.flow.variant: expected 'additive' or "
                          f"'exponential', got {variant!r}")
    c = _number(doc, "model.flow.c", default=1.0,
                check=lambda v: v > 0, what="must be positive")
    kappa = _number(doc, "model.f.kappa", default=0.5,
                    check=lambda v: 0 < v < 1, what="must lie in (0, 1)")
    rvariant = _get(doc, "model.rate.variant", required=True)
    if rvariant == "power":
        lam = _number(doc, "model.rate.lam", default=1.0,
                      check=lambda v: v > 0, what="must be positive")
        delta = _number(doc, "model.rate.delta", default=0.0,
                        check=lambda v: v > -1, what="must exceed -1")
        rate = PowerRate(lam, delta)
    elif rvariant == "quadratic":
        a = _number(doc, "model.rate.a", required=True,
                    check=lambda v: v > 0, what="must be positive")
        b = _number(doc, "model.rate.b", default=0.0,
                    check=lambda v: v >= 0, what="must be nonnegative")
        rate = ShiftedQuadraticRate(a, b)
    else:
        raise ConfigError(f"model.rate.variant: expected 'power' or "
                          f"'quadratic', got {rvariant!r}")
    name = _get(doc, "model.name", default="")
    return Model(Flow(variant, c), JumpMap(kappa), rate, name=name or "")


def default_interval(model: Model) -> tuple:
    """Reference estimation interval for the known configurations."""
    if isinstance(model.rate, PowerRate):
        key = (model.flow.variant, "power", model.jump.kappa, model.rate.delta)
    else:
        key = (model.flow.variant, "quadratic", model.jump.kappa, None)
    return DEFAULT_INTERVALS.get(key, FALLBACK_INTERVAL)


def load_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed YAML document and fill in defaults."""
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected a mapping")
    model = _build_model(doc)
    interval = _get(doc, "estimation.interval")
    if interval is None:
        interval = default_interval(model)
    else:
        if (not isinstance(interval, (list, tuple)) or len(interval) != 2
                or not all(isinstance(v, (int, float)) for v in interval)):
            raise ConfigError("estimation.interval: expected [lo, hi]")
        if not 0 < interval[0] < interval[1] < math.inf:
            raise ConfigError("estimation.interval: need 0 < lo < hi < inf, "
                              f"got {interval!r}")
        interval = (float(interval[0]), float(interval[1]))
    a_max = _number(doc, "estimation.a_max", default=6.0,
                    check=lambda v: v > 0, what="must be positive")
    sigma = _number(doc, "estimation.sigma", default=2.0,
                    check=lambda v: v >= 0, what="must be nonnegative")
    sigma_prime = _number(doc, "estimation.sigma_prime", default=0.0,
                          check=lambda v: v >= 0, what="must be nonnegative")
    n_values = _get(doc, "experiment.n_values", default=[10000])
    if (not isinstance(n_values, (list, tuple)) or not n_values
            or not all(isinstance(v, int) and v >= 9 for v in n_values)):
        raise ConfigError("experiment.n_values: expected a nonempty list of "
                          f"integers >= 9, got {n_values!r}")
    if list(n_values) != sorted(n_values):
        raise ConfigError("experiment.n_values: must be sorted increasing")
    replicates = _get(doc, "experiment.replicates", default=50)
    if not isinstance(replicates, int) or replicates < 1:
        raise ConfigError(f"experiment.replicates: expected a positive "
                          f"integer, got {replicates!r}")
    base_seed = _get(doc, "experiment.base_seed", default=0)
    if not isinstance(base_seed, int) or base_seed < 0:
        raise ConfigError(f"experiment.base_seed: expected a nonnegative "
                          f"integer, got {base_seed!r}")
    z0 = _number(doc, "model.z0", default=1.0,
                 check=lambda v: v > 0, what="must be positive")
    out_dir = _get(doc, "io.out_dir", default="out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"io.out_dir: expected a string, got {out_dir!r}")
    grid_points = _get(doc, "io.grid_points", default=513)
    if (not isinstance(grid_points, int) or grid_points < 3
            or grid_points % 2 == 0):
        raise ConfigError("io.grid_points: expected an odd integer >= 3, "
                          f"got {grid_points!r}")
    return ExperimentConfig(model=model, interval=interval, a_max=a_max,
                            sigma=sigma, sigma_prime=sigma_prime,
                            n_values=tuple(n_values), replicates=replicates,
                            base_seed=base_seed, z0=z0, out_dir=out_dir,
                            grid_points=grid_points)


def load_config_file(path: str) -> ExperimentConfig:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    return load_config(doc)


def dump_config(config: ExperimentConfig) -> str:
    """Re-emit the effective configuration; loading it back is idempotent."""
    model = config.model
    rate_doc: dict = {}
    if isinstance(model.rate, PowerRate):
        rate_doc = {"variant": "power", "lam": model.rate.lam,
                    "delta": model.rate.delta}
    elif isinstance(model.rate, ShiftedQuadraticRate):
        rate_doc = {"variant": "quadratic", "a": model.rate.a,
                    "b": model.rate.b}
    doc = {
        "model": {
            "flow": {"variant": model.flow.variant, "c": model.flow.c},
            "f": {"kappa": model.jump.kappa},
            "rate": rate_doc,
            "name": model.name,
            "z0": config.z0,
        },
        "estimation": {
            "interval": list(config.interval),
            "a_max": config.a_max,
            "sigma": config.sigma,
            "sigma_prime": config.sigma_prime,
        },
        "experiment": {
            "n_values": list(config.n_values),
            "replicates": config.replicates,
            "base_seed": config.base_seed,
        },
        "io": {
            "out_dir": config.out_dir,
            "grid_points": config.grid_points,
        },
    }
    return yaml.safe_dump(doc, sort_keys=True)
