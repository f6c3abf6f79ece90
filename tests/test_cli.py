import logging
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chain_to_text
from pdmprate import (Basis, ExperimentConfig, Flow, JumpMap, PowerRate,
                      ShiftedQuadraticRate, make_grid, tcp_model)
from pdmprate.cli import main
from pdmprate.config import dump_config, load_config
from pdmprate.errors import ConfigError, PdmpError
from pdmprate.simulate import reconstruct_times


BASE_DOC = {
    "model": {
        "flow": {"variant": "additive", "c": 1.0},
        "f": {"kappa": 0.5},
        "rate": {"variant": "power", "lam": 1.0, "delta": 0.0},
    },
    "experiment": {"n_values": [200], "replicates": 2, "base_seed": 11},
}

DUMPED_BASE_DOC = """\
estimation:
  a_max: 6.0
  interval:
  - 0.2
  - 4.0
  sigma: 2.0
  sigma_prime: 0.0
experiment:
  base_seed: 11
  n_values:
  - 200
  replicates: 2
io:
  grid_points: 513
  out_dir: out
model:
  f:
    kappa: 0.5
  flow:
    c: 1.0
    variant: additive
  name: ''
  rate:
    delta: 0.0
    lam: 1.0
    variant: power
  z0: 1.0
"""


def write_config(tmp_path, doc=None, **io):
    doc = dict(doc or BASE_DOC)
    if io:
        doc = {**doc, "io": io}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestConfig:
    def test_defaults_materialized(self):
        cfg = load_config(BASE_DOC)
        assert cfg.interval == (0.2, 4.0)  # table default for this model
        assert cfg.a_max == 6.0
        assert cfg.sigma == 2.0
        assert cfg.grid_points == 513
        assert cfg.z0 == 1.0

    def test_roundtrip_idempotent(self):
        cfg = load_config(BASE_DOC)
        dumped = dump_config(cfg)
        cfg2 = load_config(yaml.safe_load(dumped))
        assert dump_config(cfg2) == dumped

    def test_dump_leaves_out_built_fields(self):
        # the basis and the grid a config builds are not keys
        assert dump_config(load_config(BASE_DOC)) == DUMPED_BASE_DOC

    def test_invalid_kappa_names_field(self):
        doc = dict(BASE_DOC)
        doc = yaml.safe_load(yaml.safe_dump(doc))
        doc["model"]["f"]["kappa"] = 1.5
        with pytest.raises(ConfigError, match="model.f.kappa"):
            load_config(doc)

    def test_missing_flow_variant(self):
        with pytest.raises(ConfigError, match="model.flow.variant"):
            load_config({"model": {"rate": {"variant": "power"}}})

    def test_bad_interval(self):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["estimation"] = {"interval": [4.0, 0.2]}
        with pytest.raises(ConfigError, match="estimation.interval"):
            load_config(doc)

    @pytest.mark.parametrize("path, value, reason", [
        ("model.f.kapa", 0.3, "unknown key"),           # a nested typo
        ("bogus", 1, "unknown key"),
        ("estimation.sigma_primer", 0.1, "unknown key"),
        ("model.rate.a", 1.0, "not read with rate variant 'power'"),
        ("io", 5, "expected a mapping, got 5"),
    ])
    def test_unread_key_names_path(self, tmp_path, caplog, path, value,
                                   reason):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        *parents, leaf = path.split(".")
        node = doc
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
        with pytest.raises(ConfigError) as exc:
            load_config(doc)
        assert str(exc.value) == f"{path}: {reason}"
        config = write_config(tmp_path, doc)
        assert main(["--config", config, "--out", str(tmp_path / "o"),
                     "simulate", "--n", "10"]) == 2
        assert f"{path}: {reason}" in caplog.text

    def test_power_key_under_quadratic_rejected(self):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["model"]["rate"] = {"variant": "quadratic", "a": 1.0, "lam": 1.0}
        with pytest.raises(ConfigError, match="^model.rate.lam: not read"):
            load_config(doc)

    def test_empty_section_is_read(self):
        doc = {**BASE_DOC, "estimation": None, "io": None}
        assert load_config(doc) == load_config(BASE_DOC)

    @pytest.mark.parametrize("rate, kappa", [
        ({"variant": "power", "lam": 2.0, "delta": 1.5}, 0.5),
        ({"variant": "quadratic", "a": 1.0, "b": 0.5}, 0.2),
    ])
    def test_dumped_config_loads_back(self, rate, kappa):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["model"].update(rate=rate, name="m", z0=0.7)
        doc["model"]["f"]["kappa"] = kappa
        doc["estimation"] = {"a_max": 5.0, "sigma": 1.5, "sigma_prime": 0.1,
                             "interval": [0.3, 2.0]}
        doc["io"] = {"out_dir": "elsewhere", "grid_points": 257}
        cfg = load_config(doc)
        dumped = dump_config(cfg)
        assert load_config(yaml.safe_load(dumped)) == cfg
        assert dump_config(load_config(yaml.safe_load(dumped))) == dumped

    @pytest.mark.parametrize("name", ["tcp\nrun 2", "a\u2028b", [1, 2]],
                             ids=["newline", "line_separator", "list"])
    def test_name_on_one_line(self, tmp_path, caplog, name):
        # a line break in the name would split the chain file's header
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["model"]["name"] = name
        with pytest.raises(ConfigError, match="^model.name: "):
            load_config(doc)
        path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
        assert main(["--config", path, "simulate", "--n", "5"]) == 2
        assert "config: model.name: " in caplog.text
        assert not (tmp_path / "o").exists()

    def test_plain_name_round_trips(self):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["model"]["name"] = "tcp run 2: kappa = 0.5"
        dumped = dump_config(load_config(doc))
        assert load_config(yaml.safe_load(dumped)).model.name == \
            "tcp run 2: kappa = 0.5"

    def test_quadratic_rate(self):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["model"]["rate"] = {"variant": "quadratic", "a": 1.0, "b": 0.5}
        doc["model"]["f"]["kappa"] = 0.2
        cfg = load_config(doc)
        assert cfg.interval == (0.1, 2.8)


@pytest.mark.parametrize("key, value", [
    ("model.z0", float("inf")),
    ("model.flow.c", float("inf")),
    ("model.rate.lam", float("inf")),
    ("model.rate.delta", float("inf")),
    ("estimation.a_max", float("inf")),
    ("estimation.interval", [0.5, float("inf")]),
    ("estimation.sigma", float("nan")),
    ("estimation.sigma", -5.0),
    ("estimation.sigma_prime", -1.0),
    ("estimation.sigma_prime", float("-inf")),
    ("model.flow.variant", "linear"),
    ("model.f.kappa", float("nan")),
    ("model.rate.a", float("inf")),
    ("model.rate.b", -0.5),
    ("model.z0", 0.0),
    ("estimation.interval", [0.0, 2.0]),
    ("experiment.n_values", [8, 100]),
    ("experiment.n_values", [200, 100]),
    ("experiment.n_values", [100, 100]),
    ("experiment.n_values", []),
    ("experiment.replicates", 0),
    ("experiment.base_seed", -1),
    ("io.grid_points", 4),
    ("io.grid_points", 1),
])
def test_bad_config_value_exit_code(tmp_path, caplog, key, value):
    doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
    if key in ("model.rate.a", "model.rate.b"):
        doc["model"]["rate"] = {"variant": "quadratic", "a": 1.0, "b": 0.5}
    node = doc
    *parents, leaf = key.split(".")
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value
    with pytest.raises(ConfigError, match=key):
        load_config(doc)
    path = write_config(tmp_path, doc)
    assert main(["--config", path, "--out", str(tmp_path / "o"),
                 "estimate"]) == 2
    assert key in caplog.text


def _doc_with(key, value):
    doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
    *parents, leaf = key.split(".")
    node = doc
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value
    return doc


# The loader's own rejections, before any constructor sees a value; None is
# the document of an empty file
@pytest.mark.parametrize("doc, message", [
    (_doc_with("model.flow.c", None),
     "model.flow.c: expected a number, got None"),
    (_doc_with("model.flow.c", "one"),
     "model.flow.c: expected a number, got 'one'"),
    (_doc_with("model.flow.c", True),
     "model.flow.c: expected a number, got True"),
    (_doc_with("model.rate.variant", "cubic"), "model.rate.variant: "
     "expected 'power' or 'quadratic', got 'cubic'"),
    ([BASE_DOC], "top level: expected a mapping"),
    ("model", "top level: expected a mapping"),
    (None, "top level: expected a mapping"),
    (_doc_with("estimation.interval", [0.2, 1.0, 4.0]),
     "estimation.interval: expected [lo, hi]"),
    (_doc_with("estimation.interval", "0.2, 4.0"),
     "estimation.interval: expected [lo, hi]"),
    (_doc_with("experiment.n_values", [100, 200.5]),
     "experiment.n_values: expected a list of integers, got [100, 200.5]"),
], ids=["c_null", "c_string", "c_bool", "rate_variant", "top_list",
        "top_string", "top_empty", "interval_three", "interval_string",
        "n_values_float"])
def test_loader_rejection_exit_code(tmp_path, caplog, doc, message):
    with pytest.raises(ConfigError) as exc:
        load_config(doc)
    assert str(exc.value) == message
    path = tmp_path / "config.yaml"
    path.write_text("" if doc is None else yaml.safe_dump(doc))
    assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                 "simulate", "--n", "10"]) == 2
    assert message in caplog.text


def _experiment(**fields):
    return ExperimentConfig(**{"model": tcp_model(), "interval": (0.2, 4.0),
                               "n_values": [100], **fields})


def _finite_positive(v):
    return math.isfinite(v) and v > 0


def _finite_nonnegative(v):
    return math.isfinite(v) and v >= 0


def _window(v):
    # the coefficients' amplitude sqrt(2/a_max) and phases 2*pi*x/a_max, for
    # x up to a_max, must be finite
    return (_finite_positive(v) and math.isfinite(2.0 / v)
            and math.isfinite(2.0 * math.pi * v))


def _spaced(lo, hi, points):
    """Whether doubles space ``points`` points over ``[lo, hi]`` evenly to
    1e-9 of a step, as Simpson's rule on the grid needs."""
    ys = np.linspace(lo, hi, points)
    step = (hi - lo) / (points - 1)
    return bool(np.all(np.abs(np.diff(ys) - step) <= 1e-9 * step))


# (field, constructor of a value from one number, the rule on that number)
FLOAT_RULES = [
    ("c", lambda v: Flow("additive", v), _finite_positive),
    ("kappa", JumpMap, lambda v: 0 < v < 1),
    ("lam", lambda v: PowerRate(v, 0.0), _finite_positive),
    ("delta", lambda v: PowerRate(1.0, v), lambda v: math.isfinite(v) and v > -1),
    ("a", lambda v: ShiftedQuadraticRate(v, 0.5), _finite_positive),
    ("b", lambda v: ShiftedQuadraticRate(1.0, v), _finite_nonnegative),
    ("a_max", Basis, _window),
    ("a_max", lambda v: _experiment(a_max=v), _window),
    ("interval", lambda v: make_grid((v, 2.0), 5),
     lambda v: 0 < v < 2.0 and _spaced(v, 2.0, 5)),
    ("interval", lambda v: make_grid((0.5, v), 5),
     lambda v: math.isfinite(v) and v > 0.5 and _spaced(0.5, v, 5)),
    ("interval", lambda v: _experiment(interval=(0.5, v)),
     lambda v: math.isfinite(v) and v > 0.5 and _spaced(0.5, v, 513)),
    ("sigma", lambda v: _experiment(sigma=v), _finite_nonnegative),
    ("sigma_prime", lambda v: _experiment(sigma_prime=v), _finite_nonnegative),
    ("z0", lambda v: _experiment(z0=v), _finite_positive),
]
# Python and numpy integers, and floats, integral ones included
COUNTS = st.one_of(st.integers(-20, 2000), st.integers(-20, 2000).map(np.int64),
                   st.integers(-20, 2000).map(float), st.floats(),
                   st.sampled_from([5.0, 9.0, 100.0]))


def _int(v):
    return isinstance(v, (int, np.integer))


INT_RULES = [
    ("grid_points", lambda v: make_grid((0.5, 2.0), v),
     lambda v: _int(v) and v >= 3 and v % 2 == 1, COUNTS),
    ("grid_points", lambda v: _experiment(grid_points=v),
     lambda v: _int(v) and v >= 3 and v % 2 == 1, COUNTS),
    ("replicates", lambda v: _experiment(replicates=v),
     lambda v: _int(v) and v >= 1, COUNTS),
    ("base_seed", lambda v: _experiment(base_seed=v),
     lambda v: _int(v) and v >= 0, COUNTS),
    ("n_values", lambda v: _experiment(n_values=v),
     lambda v: len(v) > 0 and all(map(_int, v)) and v[0] >= 9
     and all(a < b for a, b in zip(v, v[1:])),
     st.lists(st.one_of(COUNTS, st.sampled_from([9, 100])), max_size=4)),
]


def _check_rule(field, build, rule, value):
    if rule(value):
        build(value)
    else:
        with pytest.raises(ConfigError, match=f"^{field}: ") as info:
            build(value)
        assert isinstance(info.value, PdmpError)
        assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("field, build, rule", FLOAT_RULES,
                         ids=[rule[0] for rule in FLOAT_RULES])
@given(value=st.one_of(st.floats(), st.floats(-3.0, 3.0),
                       st.sampled_from([0.0, -1.0, 1.0, 2.0, math.inf])))
@settings(max_examples=150, deadline=None)
def test_float_rule(field, build, rule, value):
    """Non-finite and out-of-range numbers raise ConfigError naming the field."""
    _check_rule(field, build, rule, value)


@pytest.mark.parametrize("field, build, rule, values", INT_RULES,
                         ids=[rule[0] for rule in INT_RULES])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_int_rule(field, build, rule, values, data):
    """Non-integer and out-of-range counts and seeds raise ConfigError naming
    the field; Python and numpy integers in range are accepted."""
    _check_rule(field, build, rule, data.draw(values))


@pytest.mark.parametrize("argv, flag", [
    (["--seed", "-1", "bench"], "--seed"),
    (["--seed", "-1", "simulate"], "--seed"),
    (["simulate", "--n", "0"], "--n"),
    (["simulate", "--n", "-4"], "--n"),
    (["estimate", "--n", "0"], "--n"),
    (["--grid-points", "4", "estimate"], "--grid-points"),
    # a chain file sets its own length, so --n would go unread
    (["estimate", "--chain", "chain.tsv", "--n", "10"], "--n"),
])
def test_bad_flag_exit_code(tmp_path, caplog, argv, flag):
    path = write_config(tmp_path, out_dir=str(tmp_path / "o"))
    assert main(["--config", path] + argv) == 2
    assert f"config: {flag}: " in caplog.text


# a window whose amplitude sqrt(2/a_max) overflows (estimate wrote NaN
# coefficients with exit 0 for the first two), or whose phase 2*pi*a_max does
@pytest.mark.parametrize("a_max", [5e-324, 1e-308, 3e307, 1.7e308])
def test_window_overflow_exit_code(tmp_path, caplog, a_max):
    doc = {**BASE_DOC, "estimation": {"a_max": a_max}}
    path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
    assert main(["--config", path, "estimate", "--n", "200"]) == 2
    assert "config: estimation.a_max: must keep 2/a_max and 2*pi*a_max " \
        "finite" in caplog.text
    assert not (tmp_path / "o").exists()
    # just inside the limits, about 1.1e-308 and 2.86e307
    Basis(1.2e-308)
    Basis(2.8e307)


def test_config_dump_built_only_when_logged(tmp_path, caplog, monkeypatch):
    path = write_config(tmp_path, out_dir=str(tmp_path / "o"))

    def refuse(config):
        raise AssertionError("dump_config called without debug logging")

    monkeypatch.setattr("pdmprate.cli.dump_config", refuse)
    caplog.set_level(logging.INFO)
    assert main(["--config", path, "simulate", "--n", "20"]) == 0
    monkeypatch.setattr("pdmprate.cli.dump_config", lambda config: "DUMP")
    caplog.set_level(logging.DEBUG)
    assert main(["--config", path, "-v", "simulate", "--n", "20"]) == 0
    assert "effective config:\nDUMP" in caplog.text


QUADRATIC = {"variant": "quadratic", "a": 1.0, "b": 0.5}


@pytest.mark.parametrize("flow, rate, z0, code, message", [
    # b**3 overflows: the step takes it as inf
    ({"variant": "additive", "c": 1.0}, {**QUADRATIC, "b": 1e300}, 1.0, 3,
     "numerical failure: at transition 0:"),
    # c*z underflows to 0: the numeric sampler's integrand is infinite
    ({"variant": "exponential", "c": 1e-200}, QUADRATIC, 1e-150, 3,
     "numerical failure: at transition 0:"),
    # the transition weight 1/(kappa*c) overflows
    ({"variant": "additive", "c": 1e-308}, QUADRATIC, 1.0, 2,
     "config: model.flow.c: "),
    # the inverse series' bound on |G''| divides by a squared half-width
    # that underflows, until the hazard overflows two transitions on
    ({"variant": "exponential", "c": 1e-6}, QUADRATIC, 4e-302, 3,
     "numerical failure: at transition 2: the hazard from z = "),
], ids=["cube_overflow", "weight_underflow", "weight_overflow",
        "curvature_underflow"])
@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_extreme_model_exit_code(tmp_path, caplog, capsys, flow, rate, z0,
                                 code, message, command):
    doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
    doc["model"].update(flow=flow, rate=rate, z0=z0)
    path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
    assert main(["--config", path, command, "--n", "5"]) == code
    assert message in caplog.text
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_subnormal_jump_image_exit_code(tmp_path, caplog, capsys, command):
    # kappa*z0 rounds back to z0 = 5e-324, below the smallest normal double,
    # where the numeric sampler's panels are empty (it exited 1 on an
    # IndexError)
    doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
    doc["model"].update(flow={"variant": "exponential", "c": 1e300},
                        f={"kappa": 0.7}, rate=QUADRATIC, z0=5e-324)
    path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
    assert main(["--config", path, command, "--n", "5"]) == 3
    assert "numerical failure: the jump image of z = 5e-324 is below the " \
        "smallest normal double" in caplog.text
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("interval", [[1.0, 1.0000001],
                                      [1e300, 1.0000001e300]])
@pytest.mark.parametrize("command", ["estimate", "bench"])
def test_narrow_interval_exit_code(tmp_path, caplog, capsys, interval,
                                   command):
    # 513 points over these differ from equispaced by far more than the
    # 1e-9 of a step Simpson's rule allows, which used to end bench in a
    # traceback
    doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
    doc["estimation"] = {"interval": interval}
    path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
    assert main(["--config", path, command]) == 2
    assert "config: estimation.interval: too narrow" in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["estimate", "bench"])
def test_exponential_weight_overflow_exit_code(tmp_path, caplog, capsys,
                                               command):
    # the weight 1/(c*y) overflows at the grid's lowest jump image, which
    # used to leave inf and nan in d_hat with exit 0
    doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
    doc["model"]["flow"] = {"variant": "exponential", "c": 1e-310}
    path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
    assert main(["--config", path, command]) == 2
    assert "config: model.flow.c: " in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "estimate", "bench"])
def test_rate_overflow_on_grid_exit_code(tmp_path, caplog, capsys, command):
    # lam * y**0.5 overflows on the grid, which used to write inf into the
    # lambda_true column of grid.tsv with exit 0
    doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
    doc["model"]["flow"] = {"variant": "exponential", "c": 7.6e-203}
    doc["model"]["rate"] = {"variant": "power", "lam": 1.7e308, "delta": 0.5}
    path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
    assert main(["--config", path, command]) == 2
    assert "config: model.rate.lam: the rate must be finite" in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_squared_rate_overflow_exit_code(tmp_path, caplog, capsys):
    # the true rate, about 1e200 on the grid, is finite, but its square in
    # the risk is not; bench used to write mean_risk = inf with exit 0
    doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
    doc["model"]["flow"] = {"variant": "additive", "c": 1.2e205}
    doc["model"]["rate"] = {"variant": "power", "lam": 1e200, "delta": 1.0}
    doc["experiment"] = {"n_values": [50], "replicates": 1}
    path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
    assert main(["--config", path, "bench"]) == 3
    assert ("numerical failure: the squared error of the rate on the grid "
            "overflows") in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "o" / "bench.csv").exists()
    # estimate writes the rate, not its square: every number is finite
    assert main(["--config", path, "estimate", "--n", "50"]) == 0
    rows = (tmp_path / "o" / "grid.tsv").read_text().splitlines()[1:]
    assert np.all(np.isfinite(np.loadtxt(rows)))


@pytest.mark.parametrize("times", [[], ["--times"]])
def test_travel_time_overflow_exit_code(tmp_path, caplog, capsys, times):
    # from z0 = 1e300 a pre-jump position lies up to an ulp, about 1e284,
    # past the state before it, a travel time of 1e584 at c = 1e-300: it
    # was a RuntimeWarning, and inf without warnings as errors
    doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
    doc["model"].update(flow={"variant": "additive", "c": 1e-300}, z0=1e300)
    doc["model"]["rate"]["delta"] = 1.0
    path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
    assert main(["--config", path, "simulate", "--n", "20", *times]) == 3
    assert ("numerical failure: a travel time exceeds double range"
            in caplog.text)
    assert "Traceback" not in capsys.readouterr().err
    # the times are computed before the file is written, so a failed
    # simulate leaves no chain behind
    assert not (tmp_path / "o" / "chain.tsv").exists()


@pytest.mark.parametrize("times", [[], ["--times"]])
@pytest.mark.parametrize("variant, delta", [("exponential", 1.0),
                                            ("additive", 0.0)])
def test_overflowing_pre_jump_position_simulates(tmp_path, times, variant,
                                                 delta):
    # with kappa = 1e-300 every pre-jump position z/kappa overflows, though
    # every jump time fits; simulate refused the chain with exit 3
    doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
    doc["model"].update(flow={"variant": variant, "c": 1e300}, z0=1e9,
                        f={"kappa": 1e-300})
    doc["model"]["rate"].update(lam=1e-300, delta=delta)
    path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
    assert main(["--config", path, "simulate", "--n", "20", *times]) == 0
    rows = (tmp_path / "o" / "chain.tsv").read_text().splitlines()[3:]
    assert len(rows) == 21
    assert np.all(np.isfinite(np.loadtxt(rows[1:], ndmin=2)))


def test_exponential_weight_underflow_estimate(tmp_path):
    # c*y overflows on the grid's jump images for c = 1.7e308; the weight
    # 1/(c*y) is subnormal, where it was a RuntimeWarning, and 0 without
    # warnings as errors
    doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
    doc["model"]["flow"] = {"variant": "exponential", "c": 1.0}
    path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
    assert main(["--config", path, "simulate", "--n", "200"]) == 0
    doc["model"]["flow"]["c"] = 1.7e308
    path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
    assert main(["--config", path, "estimate", "--chain",
                 str(tmp_path / "o" / "chain.tsv")]) == 0
    rows = (tmp_path / "o" / "grid.tsv").read_text().splitlines()[1:]
    d_hat = np.loadtxt(rows)[:, 4]
    assert np.all(np.isfinite(d_hat)) and np.any(d_hat > 0.0)


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_code(tmp_path, caplog, threads):
    doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
    doc["experiment"] = {"n_values": [100], "replicates": 1}
    path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
    assert main(["--config", path, "--threads", threads, "bench"]) == 2
    assert "--threads" in caplog.text


class TestSimulateCommand:
    def test_writes_replayable_chain(self, tmp_path):
        path = write_config(tmp_path, out_dir=str(tmp_path / "o"))
        rc = main(["--config", path, "simulate", "--n", "100"])
        assert rc == 0
        chain_file = tmp_path / "o" / "chain.tsv"
        lines = [l for l in chain_file.read_text().splitlines()
                 if l and not l.startswith("#")]
        assert len(lines) == 101
        first = chain_file.read_text()
        main(["--config", path, "simulate", "--n", "100"])
        assert chain_file.read_text() == first

    def test_times_reconstructed_once(self, tmp_path, monkeypatch):
        # --times writes the jump times the summary reads, computed once, and
        # the states as the file without times has them
        calls = []
        times = reconstruct_times
        for module in ("cli", "simulate"):
            monkeypatch.setattr(f"pdmprate.{module}.reconstruct_times",
                                lambda c: calls.append(c) or times(c))
        path = write_config(tmp_path, out_dir=str(tmp_path / "o"))
        chain_file = tmp_path / "o" / "chain.tsv"
        assert main(["--config", path, "simulate", "--n", "100"]) == 0
        plain = chain_file.read_text()
        assert main(["--config", path, "simulate", "--n", "100",
                     "--times"]) == 0
        assert len(calls) == 2
        assert chain_file.read_text() == chain_to_text(calls[1],
                                                       times(calls[1]))
        assert plain == chain_to_text(calls[0])

    def test_seed_header(self, tmp_path):
        path = write_config(tmp_path, out_dir=str(tmp_path / "o"))
        assert main(["--config", path, "--seed", "0", "simulate",
                     "--n", "5"]) == 0
        header = (tmp_path / "o" / "chain.tsv").read_text().splitlines()
        assert header[1] == "# seed: ((0,), ())"

    def test_invalid_config_exit_code(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["model"]["f"]["kappa"] = 1.5
        path = write_config(tmp_path, doc)
        assert main(["--config", path, "simulate"]) == 2

    def test_state_overflow_exit_code(self, tmp_path, caplog):
        # c/lam = 1e310: the first state, about 5e309 * e, is out of range
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["model"]["flow"]["c"] = 1e10
        doc["model"]["rate"]["lam"] = 1e-300
        path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
        assert main(["--config", path, "simulate", "--n", "50"]) == 3
        assert "at transition 0:" in caplog.text

    def test_hazard_overflow_exit_code(self, tmp_path, caplog):
        # numeric sampler: the hazard integrand overflows in Python floats
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["model"]["flow"] = {"variant": "exponential", "c": 1.0}
        doc["model"]["rate"] = {"variant": "quadratic", "a": 1.0, "b": 0.5}
        doc["model"]["z0"] = 1.0e+160
        path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
        assert main(["--config", path, "simulate", "--n", "5"]) == 3
        assert "numerical failure: at transition 0:" in caplog.text
        assert "overflows" in caplog.text

    def test_state_rounded_below_jump_image_exit_code(self, tmp_path, capsys):
        # the power scan lands z[1] within an ulp of kappa*z[0] = 10, and
        # the chain holds it there; a chain with a state an ulp below its
        # jump image is read back in test_simulate's TestReconstructTimes
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["model"]["rate"]["delta"] = 20.0
        doc["model"]["z0"] = 20.0
        path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
        for extra in ([], ["--times"]):
            assert main(["--config", path, "simulate", "--n", "5"] + extra) == 0
        assert "t_final=" in capsys.readouterr().out

    def test_bacterial_summary(self, tmp_path, capsys):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["model"]["flow"] = {"variant": "exponential", "c": 1.0}
        doc["model"]["rate"] = {"variant": "power", "lam": 1.0, "delta": 2.0}
        path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
        assert main(["--config", path, "simulate", "--n", "1000"]) == 0
        out = capsys.readouterr().out
        t_final = float(out.split("t_final=")[1].split()[0])
        assert np.isfinite(t_final) and t_final > 0


class TestEstimateCommand:
    def test_outputs(self, tmp_path):
        path = write_config(tmp_path, out_dir=str(tmp_path / "o"))
        assert main(["--config", path, "estimate", "--n", "500"]) == 0
        grid = (tmp_path / "o" / "grid.tsv").read_text()
        assert grid.splitlines()[0] == \
            "y\tlambda_hat\tlambda_true\tnu_hat_of_f\td_hat"
        assert (tmp_path / "o" / "fit.tsv").exists()

    def test_short_chain_exit_code(self, tmp_path):
        path = write_config(tmp_path, out_dir=str(tmp_path / "o"))
        assert main(["--config", path, "estimate", "--n", "8"]) == 3

    def test_rerun_identical(self, tmp_path):
        path = write_config(tmp_path, out_dir=str(tmp_path / "o"))
        main(["--config", path, "estimate", "--n", "500"])
        first = (tmp_path / "o" / "grid.tsv").read_text()
        main(["--config", path, "estimate", "--n", "500"])
        assert (tmp_path / "o" / "grid.tsv").read_text() == first

    def test_estimate_from_chain_file(self, tmp_path):
        path = write_config(tmp_path, out_dir=str(tmp_path / "o"))
        main(["--config", path, "simulate", "--n", "500"])
        chain_file = str(tmp_path / "o" / "chain.tsv")
        assert main(["--config", path, "estimate", "--chain", chain_file]) == 0

    def test_malformed_chain_file_exit_code(self, tmp_path, caplog):
        path = write_config(tmp_path, out_dir=str(tmp_path / "o"))
        main(["--config", path, "simulate", "--n", "50"])
        chain_file = tmp_path / "o" / "chain.tsv"
        lines = chain_file.read_text().splitlines()
        lines[20] = "1.0;2.0"
        chain_file.write_text("\n".join(lines) + "\n")
        assert main(["--config", path, "estimate", "--chain",
                     str(chain_file)]) == 4
        assert "chain line 21:" in caplog.text


    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_chain_file_exit_code(self, tmp_path, caplog, bad):
        # a non-finite state is an inconsistent chain: exit 3, naming it
        path = write_config(tmp_path, out_dir=str(tmp_path / "o"))
        main(["--config", path, "simulate", "--n", "50"])
        chain_file = tmp_path / "o" / "chain.tsv"
        lines = chain_file.read_text().splitlines()
        lines[20] = bad
        chain_file.write_text("\n".join(lines) + "\n")
        assert main(["--config", path, "estimate", "--chain",
                     str(chain_file)]) == 3
        assert "chain line 21: z[17]" in caplog.text

    def test_state_below_jump_image_exit_code(self, tmp_path, caplog):
        # z[17], on line 21, shrunk below kappa*z[16]
        path = write_config(tmp_path, out_dir=str(tmp_path / "o"))
        main(["--config", path, "simulate", "--n", "50"])
        chain_file = tmp_path / "o" / "chain.tsv"
        lines = chain_file.read_text().splitlines()
        lines[20] = f"{0.4 * float(lines[19]):.17g}"
        chain_file.write_text("\n".join(lines) + "\n")
        assert main(["--config", path, "estimate", "--chain",
                     str(chain_file)]) == 3
        assert "chain line 21: z[17]" in caplog.text


class TestMalformedFiles:
    """Files that are not YAML, not text or not LF-ended exit as documented."""

    @pytest.mark.parametrize("data, line", [
        (b"model: [1, 2\n", 2),
        (b"model:\n  z0: [\n", 3),
        (b"experiment:\n  n_values: [200]\n  base_seed: \xff\n", 3),
        (b"experiment:\n  replicates: \x00\n", 2),
    ])
    def test_config_exit_code(self, tmp_path, caplog, capsys, data, line):
        path = tmp_path / "config.yaml"
        path.write_bytes(data)
        assert main(["--config", str(path), "simulate", "--n", "5"]) == 2
        assert f"config: {path}: line {line}: " in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    def test_chain_not_utf8_exit_code(self, tmp_path, caplog):
        path = write_config(tmp_path, out_dir=str(tmp_path / "o"))
        main(["--config", path, "simulate", "--n", "50"])
        chain_file = tmp_path / "o" / "chain.tsv"
        lines = chain_file.read_bytes().splitlines()
        lines[20] = b"0.5\xff"
        chain_file.write_bytes(b"\n".join(lines) + b"\n")
        assert main(["--config", path, "estimate", "--chain",
                     str(chain_file)]) == 4
        assert "chain line 21: not UTF-8 text" in caplog.text

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    @pytest.mark.parametrize("times", [[], ["--times"]])
    def test_chain_line_ends_read_as_lf(self, tmp_path, newline, times):
        # universal newlines, as Path.read_text reads them: the same fit
        path = write_config(tmp_path, out_dir=str(tmp_path / "o"))
        main(["--config", path, "simulate", "--n", "500"] + times)
        chain_file = tmp_path / "o" / "chain.tsv"
        other = tmp_path / "other.tsv"
        other.write_bytes(chain_file.read_bytes().replace(b"\n", newline))
        outputs = []
        for name, chain in (("lf", chain_file), ("other", other)):
            out = str(tmp_path / name)
            assert main(["--config", path, "--out", out, "estimate",
                         "--chain", str(chain)]) == 0
            outputs.append([(tmp_path / name / f).read_bytes()
                            for f in ("fit.tsv", "grid.tsv")])
        assert outputs[0] == outputs[1]


class TestBenchCommand:
    def test_smoke(self, tmp_path, capsys):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["experiment"] = {"n_values": [100], "replicates": 2, "base_seed": 3}
        path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"),
                            grid_points=129)
        assert main(["--config", path, "bench"]) == 0
        csv = (tmp_path / "o" / "bench.csv").read_text()
        assert len(csv.splitlines()) == 2

    def test_byte_identical_modulo_timing(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["experiment"] = {"n_values": [100], "replicates": 2, "base_seed": 3}
        path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"),
                            grid_points=129)
        main(["--config", path, "bench"])
        first = (tmp_path / "o" / "bench.csv").read_text()
        main(["--config", path, "bench"])
        second = (tmp_path / "o" / "bench.csv").read_text()
        strip = lambda t: [",".join(l.split(",")[:-1]) for l in t.splitlines()]
        assert strip(first) == strip(second)


class TestDiagnoseCommand:
    def test_runs(self, tmp_path, capsys):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["experiment"] = {"n_values": [1000], "replicates": 1, "base_seed": 3}
        path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
        assert main(["--config", path, "diagnose"]) == 0
        out = capsys.readouterr().out
        assert "tail_ok=True" in out

    def test_two_lengths_print_the_slope(self, tmp_path, capsys):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["experiment"] = {"n_values": [1000, 3000], "replicates": 1,
                             "base_seed": 3}
        path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
        assert main(["--config", path, "diagnose"]) == 0
        assert capsys.readouterr().out == (
            "half_distance_sq=0.00579686 null=0.00741534 "
            "stationarity_ok=True\n"
            "denominator_rate_slope=-0.606\n"
            "tail_ok=True\n")

    def test_zero_rmse_reports_no_slope(self, tmp_path, capsys, caplog):
        # from z0 = 40 every replicate's delta = 200 chain has the same
        # denominator at the interval's midpoint, 1.5: the RMSE whose log
        # the slope regresses is 0
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["model"]["rate"]["delta"] = 200.0
        doc["model"]["z0"] = 40.0
        doc["experiment"] = {"n_values": [1000, 3000], "replicates": 1,
                             "base_seed": 0}
        path = write_config(tmp_path, doc, out_dir=str(tmp_path / "o"))
        assert main(["--config", path, "diagnose"]) == 0
        out = capsys.readouterr().out
        assert "tail_ok=True" in out
        assert "denominator_rate_slope" not in out
        assert "no denominator rate slope" in caplog.text

    def test_short_chain_exit_code(self, tmp_path, caplog):
        # BASE_DOC's largest chain length, 200, is below the 1000 needed
        path = write_config(tmp_path, out_dir=str(tmp_path / "o"))
        assert main(["--config", path, "diagnose"]) == 3
        assert "at least 1000 transitions" in caplog.text
