"""YAML configuration loading with validation and materialized defaults.

The document has four sections: ``model`` (flow, jump map, rate), ``estimation``
(window, interval, penalty constants), ``experiment`` (chain lengths,
replicates, seed) and ``io`` (output directory, grid size).  The loader checks
YAML types only, and that every key is one a field reads; the constructors of
the values check their ranges, and a rejection is reported under the
offending key path.
"""

from __future__ import annotations

from dataclasses import fields

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
# Rate variant -> class, and its fields' defaults in order (None: required).
RATES = {"power": (PowerRate, {"lam": 1.0, "delta": 0.0}),
         "quadratic": (ShiftedQuadraticRate, {"a": None, "b": 0.0})}
RATE_VARIANTS = {cls: variant for variant, (cls, _) in RATES.items()}

# Constructor field -> YAML key path.  load_config reads each field from its
# key and reports a field a constructor rejects under it; dump_config writes
# each field back to it.
KEYS = {
    "variant": "model.flow.variant", "c": "model.flow.c",
    "kappa": "model.f.kappa",
    "lam": "model.rate.lam", "delta": "model.rate.delta",
    "a": "model.rate.a", "b": "model.rate.b",
    "name": "model.name", "z0": "model.z0",
    "interval": "estimation.interval", "a_max": "estimation.a_max",
    "sigma": "estimation.sigma", "sigma_prime": "estimation.sigma_prime",
    "n_values": "experiment.n_values", "replicates": "experiment.replicates",
    "base_seed": "experiment.base_seed",
    "out_dir": "io.out_dir", "grid_points": "io.grid_points",
}
# The ExperimentConfig fields read as they stand; a key left out keeps the
# field's default.
SCALARS = {"a_max": float, "sigma": float, "sigma_prime": float, "z0": float,
           "replicates": int, "base_seed": int, "grid_points": int,
           "out_dir": str}
# Python types a YAML value may have, and their name in messages.
YAML_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"),
              str: (str, "a string"), tuple: ((list, tuple), "a list")}


def _get(doc: dict, path: str, default=None, required=False):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(path, "missing required key")
            return default
        node = node[part]
    return node


def _typed(doc: dict, field: str, kind: type, default=None, required=False):
    """The value at the field's key as ``kind``; it must have the YAML type."""
    path = KEYS[field]
    val = _get(doc, path, default=default, required=required)
    types, what = YAML_TYPES[kind]
    if not _is_a(val, types):
        raise ConfigError(path, f"expected {what}, got {val!r}")
    return kind(val)


def _is_a(val, types) -> bool:
    """``isinstance``, except that a bool is not a number."""
    return isinstance(val, types) and not isinstance(val, bool)


def _check_keys(doc: dict) -> None:
    """Raise a ``ConfigError`` naming a key that no field reads.

    The read keys are those of ``KEYS`` and ``model.rate.variant``, with a
    rate field's key read only under its own rate variant; their sections
    must be mappings (or empty).
    """
    variant = _get(doc, "model.rate.variant")
    known = isinstance(variant, str) and variant in RATES
    unread = {KEYS[field] for v, (_, defaults) in RATES.items()
              if known and v != variant for field in defaults}
    read = (set(KEYS.values()) - unread) | {"model.rate.variant"}
    sections = {path.rsplit(".", i)[0] for path in read
                for i in range(1, path.count(".") + 1)}
    todo = [("", doc)]
    while todo:
        prefix, node = todo.pop()
        for key, value in node.items():
            path = f"{prefix}{key}"
            if path in sections:
                if isinstance(value, dict):
                    todo.append((f"{path}.", value))
                elif value is not None:
                    raise ConfigError(path, f"expected a mapping, got {value!r}")
            elif path not in read:
                reason = (f"not read with rate variant {variant!r}"
                          if path in unread else "unknown key")
                raise ConfigError(path, reason)


def _build_model(doc: dict) -> Model:
    flow = Flow(_get(doc, KEYS["variant"], required=True),
                _typed(doc, "c", float, 1.0))
    jump = JumpMap(_typed(doc, "kappa", float, 0.5))
    rvariant = _get(doc, "model.rate.variant", required=True)
    if not (isinstance(rvariant, str) and rvariant in RATES):
        raise ConfigError("model.rate.variant", "expected " + " or ".join(
            map(repr, RATES)) + f", got {rvariant!r}")
    cls, defaults = RATES[rvariant]
    rate = cls(*[_typed(doc, field, float, default, required=default is None)
                 for field, default in defaults.items()])
    name = _get(doc, KEYS["name"])
    return Model(flow, jump, rate, name="" if name is None else name)


def default_interval(model: Model) -> tuple:
    """Reference estimation interval for the known configurations."""
    key = (model.flow.variant, RATE_VARIANTS.get(type(model.rate)),
           model.jump.kappa, getattr(model.rate, "delta", None))
    return DEFAULT_INTERVALS.get(key, FALLBACK_INTERVAL)


def load_config(doc: dict) -> ExperimentConfig:
    """Check the keys and YAML types of a parsed document and build the config.

    A key that no field reads is a ``ConfigError`` naming its path.  The
    constructors check the values; a field one of them rejects is reported
    under its key path.
    """
    if not isinstance(doc, dict):
        raise ConfigError("top level", "expected a mapping")
    _check_keys(doc)
    try:
        model = _build_model(doc)
        interval = _get(doc, KEYS["interval"])
        if interval is None:
            interval = default_interval(model)
        elif (not isinstance(interval, (list, tuple)) or len(interval) != 2
                or not all(_is_a(v, (int, float)) for v in interval)):
            raise ConfigError(KEYS["interval"], "expected [lo, hi]")
        n_values = _typed(doc, "n_values", tuple, [10000])
        if not all(_is_a(v, int) for v in n_values):
            raise ConfigError(KEYS["n_values"], "expected a list of integers, "
                              f"got {list(n_values)!r}")
        scalars = {field: _typed(doc, field, kind)
                   for field, kind in SCALARS.items()
                   if _get(doc, KEYS[field]) is not None}
        return ExperimentConfig(model=model,
                                interval=tuple(map(float, interval)),
                                n_values=n_values, **scalars)
    except ConfigError as exc:
        raise ConfigError(KEYS.get(exc.field, exc.field), exc.reason) from None


def load_config_file(path: str) -> ExperimentConfig:
    with open(path, "rb") as fh:
        data = fh.read()
    try:   # through libyaml where PyYAML has it
        doc = yaml.load(data, getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:   # a parser's, with its mark, or a reader's
        mark = getattr(exc, "problem_mark", None)
        lineno = mark.line + 1 if mark else data.count(b"\n", 0, exc.position) + 1
        raise ConfigError(str(path), f"line {lineno}: "
                          f"{getattr(exc, 'problem', None) or exc.reason}") from None
    return load_config(doc)


def dump_config(config: ExperimentConfig) -> str:
    """Re-emit the effective configuration; loading it back is idempotent."""
    model = config.model
    values = {**vars(model.flow), **vars(model.jump), **vars(model.rate),
              "name": model.name,
              **{f.name: getattr(config, f.name) for f in fields(config)}}
    doc: dict = {}
    for field, value in values.items():
        if field in KEYS:
            _put(doc, KEYS[field],
                 list(value) if isinstance(value, (list, tuple)) else value)
    if type(model.rate) in RATE_VARIANTS:
        _put(doc, "model.rate.variant", RATE_VARIANTS[type(model.rate)])
    return yaml.safe_dump(doc, sort_keys=True)


def _put(doc: dict, path: str, value) -> None:
    *parents, leaf = path.split(".")
    for part in parents:
        doc = doc.setdefault(part, {})
    doc[leaf] = value
