import json
import os
import configparser

import numpy as np
import pytest

from modnet import config as C
from modnet.cli import main
from modnet.errors import ConfigError, DataError


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


class TestConfigLayer:
    def test_defaults_resolve(self):
        cfg = C.load_config(None)
        tc = C.resolve_train_config(cfg)
        assert tc.steps == 500
        assert tc.batch_size == 128
        assert tc.model.arch == "mlp"
        assert tc.model.input_shape == (2, 28, 28)
        assert tc.model.classes == 2
        assert tc.objective.base == "erm"
        assert tc.out_dir is None

    def test_rotated_kind_sets_shapes(self):
        cfg = C.load_config(None)
        cfg["data"]["kind"] = "rotated"
        tc = C.resolve_train_config(cfg)
        assert tc.model.input_shape == (1, 28, 28)
        assert tc.model.classes == 10

    def test_file_values_override_defaults(self, tmp_path):
        p = write_cfg(tmp_path / "a.cfg", "[train]\nsteps = 77\n\n[reg]\nalpha = 1e-4\n")
        cfg = C.load_config(p)
        assert cfg["train"]["steps"] == "77"
        assert cfg["reg"]["alpha"] == "1e-4"
        # untouched keys keep defaults
        assert cfg["train"]["lr"] == "1e-3"

    def test_unknown_section_rejected(self, tmp_path):
        p = write_cfg(tmp_path / "a.cfg", "[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            C.load_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = write_cfg(tmp_path / "a.cfg", "[train]\nstepz = 77\n")
        with pytest.raises(ConfigError, match="train.stepz"):
            C.load_config(p)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            C.load_config("/no/such/file.cfg")

    def test_malformed_file(self, tmp_path):
        p = write_cfg(tmp_path / "a.cfg", "steps = 1\n")  # key before any section
        with pytest.raises(ConfigError):
            C.load_config(p)

    def test_overrides_qualified_and_bare(self):
        cfg = C.default_config()
        C.apply_overrides(cfg, ["train.steps=9", "seed=4", "alpha=1e-5"])
        assert cfg["train"]["steps"] == "9"
        assert cfg["train"]["seed"] == "4"
        assert cfg["reg"]["alpha"] == "1e-5"

    def test_overrides_last_wins(self):
        cfg = C.default_config()
        C.apply_overrides(cfg, ["train.steps=9", "train.steps=11"])
        assert cfg["train"]["steps"] == "11"

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            C.apply_overrides(C.default_config(), ["train.bogus=1"])

    def test_override_needs_equals(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            C.apply_overrides(C.default_config(), ["train.steps"])

    def test_bad_value_type_reported(self):
        cfg = C.default_config()
        cfg["train"]["steps"] = "abc"
        with pytest.raises(ConfigError, match="train.steps"):
            C.resolve_train_config(cfg)

    def test_render_round_trips(self):
        cfg = C.default_config()
        cfg["train"]["steps"] = "33"
        parser = configparser.ConfigParser()
        parser.read_string(C.render_config(cfg))
        assert parser["train"]["steps"] == "33"
        assert set(parser.sections()) == set(C.SCHEMA)

    def test_unset_data_path_rejected(self):
        cfg = C.default_config()
        with pytest.raises(ConfigError, match="data.train_images"):
            C.build_environments(cfg, 0)

    def test_missing_data_file_named(self, tmp_path):
        cfg = C.default_config()
        cfg["data"]["train_images"] = str(tmp_path / "absent-images")
        cfg["data"]["train_labels"] = str(tmp_path / "absent-labels")
        with pytest.raises(DataError, match="absent-images"):
            C.build_environments(cfg, 0)

    def test_data_root_prefixes_relative_paths(self, synth_corpus, monkeypatch):
        root = os.path.dirname(synth_corpus["train_images"])
        monkeypatch.setenv("MODNET_DATA_ROOT", root)
        cfg = C.default_config()
        cfg["data"]["train_images"] = os.path.basename(synth_corpus["train_images"])
        cfg["data"]["train_labels"] = os.path.basename(synth_corpus["train_labels"])
        cfg["data"]["test_images"] = os.path.basename(synth_corpus["test_images"])
        cfg["data"]["test_labels"] = os.path.basename(synth_corpus["test_labels"])
        cfg["data"]["train_count"] = "200"
        train_envs, eval_envs = C.build_environments(cfg, 0)
        assert [e.env_id for e in train_envs] == ["e0", "e1"]
        assert [e.env_id for e in eval_envs] == ["test"]

    def test_colored_environments_wiring(self, synth_corpus):
        cfg = C.default_config()
        for k, v in synth_corpus.items():
            cfg["data"][k] = v
        cfg["data"]["train_count"] = "400"
        train_envs, eval_envs = C.build_environments(cfg, 3)
        assert [e.env_id for e in train_envs] == ["e0", "e1"]
        assert all(e.inputs.shape[1:] == (2, 28, 28) for e in train_envs)
        assert sum(len(e) for e in train_envs) == 400
        assert eval_envs[0].role == "test"

    def test_rotated_environments_wiring(self, synth_corpus):
        cfg = C.default_config()
        cfg["data"]["kind"] = "rotated"
        cfg["data"]["train_images"] = synth_corpus["train_images"]
        cfg["data"]["train_labels"] = synth_corpus["train_labels"]
        cfg["data"]["per_env_count"] = "50"
        train_envs, eval_envs = C.build_environments(cfg, 3)
        assert sorted(e.env_id for e in train_envs) == ["rot15", "rot30", "rot45", "rot60", "rot75"]
        assert [e.env_id for e in eval_envs] == ["rot0"]
        assert all(len(e) == 50 for e in train_envs + eval_envs)


@pytest.fixture()
def cmnist_cfg(tmp_path, synth_corpus):
    out = tmp_path / "out"
    text = (
        "[data]\n"
        f"train_images = {synth_corpus['train_images']}\n"
        f"train_labels = {synth_corpus['train_labels']}\n"
        f"test_images = {synth_corpus['test_images']}\n"
        f"test_labels = {synth_corpus['test_labels']}\n"
        "train_count = 400\n"
        "[model]\n"
        "hidden = 16\n"
        "[train]\n"
        "steps = 20\n"
        "batch_size = 32\n"
        "eval_interval = 10\n"
        "[output]\n"
        f"dir = {out}\n"
    )
    return write_cfg(tmp_path / "cm.cfg", text), out


class TestCliTrain:
    def test_train_writes_artifacts(self, cmnist_cfg, capsys):
        cfg_path, out = cmnist_cfg
        assert main(["train", "--config", cfg_path, "--set", "train.steps=15"]) == 0
        stdout = capsys.readouterr().out
        assert "acc test:" in stdout
        assert (out / "metrics.csv").exists()
        assert (out / "model.subnet.json").exists()
        echoed = (out / "resolved.cfg").read_text()
        assert "steps = 15" in echoed

    def test_train_requires_out_dir(self, capsys):
        rc = main(["train", "--set", "data.kind=colored"])
        assert rc == 2
        assert "output.dir" in capsys.readouterr().err

    def test_unknown_override_is_config_error(self, capsys):
        assert main(["train", "--set", "train.bogus=1"]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_data_files_exit_2(self, tmp_path, capsys):
        rc = main([
            "train",
            "--set", f"output.dir={tmp_path / 'o'}",
            "--set", f"data.train_images={tmp_path / 'nope'}",
            "--set", f"data.train_labels={tmp_path / 'nope2'}",
        ])
        assert rc == 2
        assert "nope" in capsys.readouterr().err

    def test_metrics_identical_across_reruns(self, tmp_path, synth_corpus):
        def once(sub):
            out = tmp_path / sub
            rc = main([
                "train",
                "--set", f"data.train_images={synth_corpus['train_images']}",
                "--set", f"data.train_labels={synth_corpus['train_labels']}",
                "--set", f"data.test_images={synth_corpus['test_images']}",
                "--set", f"data.test_labels={synth_corpus['test_labels']}",
                "--set", "data.train_count=300",
                "--set", "model.hidden=12",
                "--set", "train.steps=12",
                "--set", "train.batch_size=32",
                "--set", "train.eval_interval=6",
                "--set", f"output.dir={out}",
            ])
            assert rc == 0
            return (out / "metrics.csv").read_bytes(), (out / "model.subnet.json").read_bytes()
        a = once("r1")
        b = once("r2")
        assert a == b


class TestCliEvalAnalyze:
    @pytest.fixture()
    def trained(self, cmnist_cfg):
        cfg_path, out = cmnist_cfg
        assert main(["train", "--config", cfg_path]) == 0
        return cfg_path, out / "model.subnet.json"

    def test_eval_csv_contract(self, trained, capsys):
        cfg_path, artifact = trained
        assert main(["eval", str(artifact), "--config", cfg_path, "--csv"]) == 0
        first = capsys.readouterr().out
        lines = first.strip().splitlines()
        assert lines[0] == "env_id,accuracy"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["e0", "e1", "test"]
        assert main(["eval", str(artifact), "--config", cfg_path, "--csv"]) == 0
        assert capsys.readouterr().out == first  # deterministic

    def test_analyze_reports_layers(self, trained, tmp_path, capsys):
        _, artifact = trained
        dot = tmp_path / "g.dot"
        assert main(["analyze", str(artifact), "--dot", str(dot), "--max-units", "2000"]) == 0
        out = capsys.readouterr().out
        assert "dense0: density" in out
        assert "pruned sources" in out
        assert dot.read_text().startswith("digraph")

    def test_analyze_refuses_oversized_graph(self, trained, tmp_path, capsys):
        _, artifact = trained
        rc = main(["analyze", str(artifact), "--dot", str(tmp_path / "g.dot"), "--max-units", "10"])
        assert rc == 3
        assert "refusing" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["seed=abc", "batch_size=2.5"])
    def test_eval_non_integer_setting_exit_2(self, trained, override, capsys):
        cfg_path, artifact = trained
        assert main(["eval", str(artifact), "--config", cfg_path, "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: train.") and "Traceback" not in err

    def test_eval_bad_artifact_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["eval", str(bad)]) == 2


class TestCliGradcheck:
    def test_passes_clean(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1] == "PASS"
        assert "full objective" in out

    def test_fault_injection_caught_and_named(self, capsys):
        assert main(["gradcheck", "--inject-fault", "s2-sign"]) == 1
        out = capsys.readouterr().out
        last = out.strip().splitlines()[-1]
        assert last.startswith("FAIL")
        assert "reuse penalty" in last


class TestCliDataBuild:
    def test_writes_npz_per_environment(self, tmp_path, synth_corpus, capsys):
        out = tmp_path / "envs"
        rc = main([
            "data-build",
            "--set", f"data.train_images={synth_corpus['train_images']}",
            "--set", f"data.train_labels={synth_corpus['train_labels']}",
            "--set", f"data.test_images={synth_corpus['test_images']}",
            "--set", f"data.test_labels={synth_corpus['test_labels']}",
            "--set", "data.train_count=200",
            "--set", f"output.dir={out}",
        ])
        assert rc == 0
        for env_id in ("e0", "e1", "test"):
            with np.load(out / f"{env_id}.npz") as z:
                assert z["inputs"].shape[1:] == (2, 28, 28)
                assert str(z["role"]) == ("test" if env_id == "test" else "train")

    def test_requires_out_dir(self, capsys):
        assert main(["data-build"]) == 2
        assert "output.dir" in capsys.readouterr().err

    def test_non_integer_seed_exit_2(self, tmp_path, capsys):
        assert main(["data-build", "--set", "seed=abc", "--set", f"output.dir={tmp_path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: train.seed") and "Traceback" not in err
