import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmprate import (Basis, ExperimentConfig, Flow, JumpMap, PowerRate,
                      ShiftedQuadraticRate, make_grid, tcp_model)
from pdmprate.cli import main
from pdmprate.config import dump_config, load_config
from pdmprate.errors import ConfigError, PdmpError


BASE_DOC = {
    "model": {
        "flow": {"variant": "additive", "c": 1.0},
        "f": {"kappa": 0.5},
        "rate": {"variant": "power", "lam": 1.0, "delta": 0.0},
    },
    "experiment": {"n_values": [200], "replicates": 2, "base_seed": 11},
}


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


def _experiment(**fields):
    return ExperimentConfig(**{"model": tcp_model(), "interval": (0.2, 4.0),
                               "n_values": [100], **fields})


def _finite_positive(v):
    return math.isfinite(v) and v > 0


def _finite_nonnegative(v):
    return math.isfinite(v) and v >= 0


# (field, constructor of a value from one number, the rule on that number)
FLOAT_RULES = [
    ("c", lambda v: Flow("additive", v), _finite_positive),
    ("kappa", JumpMap, lambda v: 0 < v < 1),
    ("lam", lambda v: PowerRate(v, 0.0), _finite_positive),
    ("delta", lambda v: PowerRate(1.0, v), lambda v: math.isfinite(v) and v > -1),
    ("a", lambda v: ShiftedQuadraticRate(v, 0.5), _finite_positive),
    ("b", lambda v: ShiftedQuadraticRate(1.0, v), _finite_nonnegative),
    ("a_max", Basis, _finite_positive),
    ("a_max", lambda v: _experiment(a_max=v), _finite_positive),
    ("interval", lambda v: make_grid((v, 2.0), 5), lambda v: 0 < v < 2.0),
    ("interval", lambda v: make_grid((0.5, v), 5),
     lambda v: math.isfinite(v) and v > 0.5),
    ("interval", lambda v: _experiment(interval=(0.5, v)),
     lambda v: math.isfinite(v) and v > 0.5),
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
])
def test_bad_flag_exit_code(tmp_path, caplog, argv, flag):
    path = write_config(tmp_path, out_dir=str(tmp_path / "o"))
    assert main(["--config", path] + argv) == 2
    assert f"config: {flag}: " in caplog.text


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

    def test_invalid_config_exit_code(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["model"]["f"]["kappa"] = 1.5
        path = write_config(tmp_path, doc)
        assert main(["--config", path, "simulate"]) == 2

    def test_state_overflow_exit_code(self, tmp_path, caplog):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["model"]["rate"]["delta"] = 200.0
        doc["model"]["z0"] = 40.0
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
        # the chain's z[1] is one ulp below kappa*z[0] = 10
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
        assert "z[17]" in caplog.text

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

    def test_short_chain_exit_code(self, tmp_path, caplog):
        # BASE_DOC's largest chain length, 200, is below the 1000 needed
        path = write_config(tmp_path, out_dir=str(tmp_path / "o"))
        assert main(["--config", path, "diagnose"]) == 3
        assert "at least 1000 transitions" in caplog.text
