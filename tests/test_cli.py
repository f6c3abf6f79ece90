import numpy as np
import pytest
import yaml

from pdmprate.cli import main
from pdmprate.config import dump_config, load_config
from pdmprate.errors import ConfigError


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
])
def test_bad_config_value_exit_code(tmp_path, caplog, key, value):
    doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
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
