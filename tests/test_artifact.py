import json
import os

import numpy as np
import pytest

from modnet import artifact as A
from modnet.errors import FormatError, SizeLimitError
from modnet.masking import MaskMode, extract_final_mask
from modnet.models import ModelConfig, build_model
from modnet.tensor import Tensor
from modnet.training import MetricsRow, write_metrics_csv

DET = MaskMode.deterministic()


def small_model(seed=0, arch="mlp"):
    if arch == "mlp":
        cfg = ModelConfig(arch="mlp", input_shape=(1, 2, 2), classes=3, hidden=(5,))
    else:
        cfg = ModelConfig(arch="cnn", input_shape=(2, 4, 4), classes=3, conv_channels=(3,), dense_hidden=4)
    m = build_model(cfg, seed)
    rng = np.random.default_rng(seed + 100)
    for layer in m.layers:
        layer.param.mask_logits.data[:] = rng.normal(size=layer.param.mask_logits.shape)
        layer.bias.data[:] = rng.normal(size=layer.bias.shape)
    return m


class TestRoundtrip:
    @pytest.mark.parametrize("arch", ["mlp", "cnn"])
    def test_export_load_identity(self, tmp_path, arch):
        m = small_model(arch=arch)
        path = tmp_path / "model.subnet.json"
        A.export_subnetwork(m, path)
        loaded = A.load_subnetwork(path)
        for orig, new in zip(m.layers, loaded.layers):
            np.testing.assert_array_equal(orig.param.weights.data, new.param.weights.data)
            np.testing.assert_array_equal(orig.bias.data, new.bias.data)
            np.testing.assert_array_equal(
                extract_final_mask(orig.param), extract_final_mask(new.param)
            )

    def test_predictions_survive_roundtrip(self, tmp_path):
        m = small_model(seed=3)
        path = tmp_path / "model.subnet.json"
        A.export_subnetwork(m, path)
        loaded = A.load_subnetwork(path)
        x = Tensor(np.random.default_rng(5).random((1000, 1, 2, 2)))
        np.testing.assert_array_equal(m.forward(x, DET).data, loaded.forward(x, DET).data)

    def test_file_is_one_compact_line(self, tmp_path):
        path = tmp_path / "model.subnet.json"
        doc = A.export_subnetwork(small_model(), path)
        text = path.read_text()
        assert "\n" not in text and ", " not in text and ": " not in text
        assert text == json.dumps(doc, separators=(",", ":"))
        assert os.listdir(tmp_path) == ["model.subnet.json"]

    def test_file_parses_to_returned_document_bit_for_bit(self, tmp_path):
        m = small_model(seed=4)
        m.layers[0].param.weights.data.reshape(-1)[:4] = [0.1, -0.0, 1e-310, 2.0 / 3.0]
        path = tmp_path / "model.subnet.json"
        doc = A.export_subnetwork(m, path)
        parsed = json.loads(path.read_text())
        assert parsed == doc
        for got, want in zip(parsed["layers"], doc["layers"]):
            for key in ("weights", "bias"):
                assert np.array(got[key]).tobytes() == np.array(want[key]).tobytes()

    def test_extraction_rule(self):
        m = small_model()
        m.layers[0].param.mask_logits.data.reshape(-1)[:3] = [1.0, -1.0, 0.0]
        art = A.export_subnetwork(m, None)
        assert art["layers"][0]["mask"][:3] == [1, 0, 0]

    def test_meta_passthrough_and_default(self, tmp_path):
        m = small_model()
        path = tmp_path / "a.json"
        A.export_subnetwork(m, path, meta={"seed": 7})
        assert A.load_artifact(path)["meta"] == {"seed": 7}
        doc = A.export_subnetwork(m, None)
        del doc["meta"]
        (tmp_path / "b.json").write_text(json.dumps(doc))
        assert A.load_artifact(tmp_path / "b.json")["meta"] == {}


class TestValidation:
    def art(self):
        return A.export_subnetwork(small_model(), None)

    def roundtrip_error(self, mutate, tmp_path):
        doc = self.art()
        mutate(doc)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            A.load_artifact(p)

    def test_version_mismatch(self, tmp_path):
        self.roundtrip_error(lambda d: d.update(format_version=2), tmp_path)

    def test_mask_length_mismatch(self, tmp_path):
        self.roundtrip_error(lambda d: d["layers"][0]["mask"].pop(), tmp_path)

    def test_corrupt_mask_bit(self, tmp_path):
        def mutate(d):
            d["layers"][0]["mask"][0] = 2

        self.roundtrip_error(mutate, tmp_path)

    def test_bias_length_mismatch(self, tmp_path):
        self.roundtrip_error(lambda d: d["layers"][0]["bias"].append(0.0), tmp_path)

    @pytest.mark.parametrize("bit", [0.5, "1", None, [1]])  # 2 is test_corrupt_mask_bit
    def test_mask_bit_rejected(self, tmp_path, bit):
        def mutate(d):
            d["layers"][0]["mask"][1] = bit

        self.roundtrip_error(mutate, tmp_path)

    def test_nested_mask_rejected(self, tmp_path):
        def mutate(d):
            d["layers"][0]["mask"] = [[b] for b in d["layers"][0]["mask"]]

        self.roundtrip_error(mutate, tmp_path)

    @pytest.mark.parametrize("bits", [[0, 1], [0.0, 1.0], [False, True], [False, 1.0]])
    def test_mask_bit_accepted(self, tmp_path, bits):
        doc = self.art()
        mask = doc["layers"][0]["mask"]
        mask[:2] = bits
        p = tmp_path / "ok.json"
        p.write_text(json.dumps(doc))
        model = A.load_subnetwork(p)
        got = extract_final_mask(model.layers[0].param).reshape(-1)
        assert got[:2].tolist() == [0, 1]
        assert got.tolist() == [int(b) for b in mask]

    @pytest.mark.parametrize("key,value", [
        ("weights", "abc"), ("weights", [1.0]), ("weights", "1.5"), ("weights", None), ("weights", True),
        ("bias", None), ("bias", "0.5"), ("bias", [0.0]), ("bias", False),
    ])
    def test_non_number_entry_rejected(self, tmp_path, key, value):
        def mutate(d):
            d["layers"][0][key][0] = value

        self.roundtrip_error(mutate, tmp_path)
        doc = self.art()
        mutate(doc)
        for handed_over in (A.model_from_artifact, A.analyze):
            with pytest.raises(FormatError, match=key):
                handed_over(doc)

    def test_integer_weights_accepted(self):
        doc = self.art()
        doc["layers"][0]["weights"][:2] = [3, -1]
        model = A.model_from_artifact(doc)
        assert model.layers[0].param.weights.data.reshape(-1)[:2].tolist() == [3.0, -1.0]

    def test_validated_document_builds_unshared_models(self, tmp_path):
        p = tmp_path / "a.json"
        A.export_subnetwork(small_model(), p)
        doc = A.load_artifact(p)
        first, second = A.model_from_artifact(doc), A.model_from_artifact(doc)
        first.layers[0].param.weights.data[:] = 0.0
        assert np.any(second.layers[0].param.weights.data != 0.0)

    def test_not_json(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        with pytest.raises(FormatError):
            A.load_artifact(p)


class TestAnalyze:
    def test_density_counts_alive_bits(self):
        m = small_model()
        # dense0 is (5, 4): keep exactly 5 of 20
        m.layers[0].param.mask_logits.data[:] = -1.0
        m.layers[0].param.mask_logits.data.reshape(-1)[:5] = 1.0
        report = A.analyze(A.export_subnetwork(m, None))
        assert report.density["dense0"] == 5 / 20

    def test_reuse_counts_sum_to_alive(self):
        m = small_model(seed=9, arch="cnn")
        report = A.analyze(A.export_subnetwork(m, None))
        for layer in m.layers:
            name = layer.param.name
            alive = int(extract_final_mask(layer.param).sum())
            assert int(report.reuse[name].sum()) == alive

    def test_pruned_features_brute_force(self):
        m = small_model(seed=11)
        report = A.analyze(A.export_subnetwork(m, None))
        mask = extract_final_mask(m.layers[0].param)  # (out, in), groups = columns
        want = [j for j in range(mask.shape[1]) if mask[:, j].sum() == 0]
        assert report.pruned["dense0"] == want

    def test_jaccard_identical_and_disjoint(self):
        m = small_model()
        logits = m.layers[0].param.mask_logits.data  # (5, 4)
        logits[:] = -1.0
        logits[0] = [1, 1, -1, -1]
        logits[1] = [1, 1, -1, -1]  # identical to unit 0
        logits[2] = [-1, -1, 1, 1]  # disjoint from unit 0
        report = A.analyze(A.export_subnetwork(m, None))
        j = report.jaccard["dense0"]
        assert j[0, 1] == 1.0
        assert j[0, 2] == 0.0
        # units 3 and 4 are empty: overlap defined as 0
        assert j[3, 4] == 0.0
        assert j[0, 0] == 1.0

    def test_jaccard_partial_overlap(self):
        m = small_model()
        logits = m.layers[0].param.mask_logits.data
        logits[:] = -1.0
        logits[0] = [1, 1, 1, -1]  # {0,1,2}
        logits[1] = [-1, 1, 1, 1]  # {1,2,3}; intersection 2, union 4
        report = A.analyze(A.export_subnetwork(m, None))
        assert report.jaccard["dense0"][0, 1] == 0.5


class TestDot:
    def test_edge_count_matches_alive_bits(self):
        m = small_model(seed=13)
        art = A.export_subnetwork(m, None)
        text = A.dot_export(art, max_units=512)
        edges = [ln for ln in text.splitlines() if "->" in ln]
        alive = sum(int(extract_final_mask(l.param).sum()) for l in m.layers)
        assert len(edges) == alive

    def test_deterministic_output(self):
        m = small_model(seed=14)
        art = A.export_subnetwork(m, None)
        assert A.dot_export(art) == A.dot_export(art)

    def test_fully_pruned_layer_has_no_edges(self):
        m = small_model()
        for layer in m.layers:
            layer.param.mask_logits.data[:] = -1.0
        text = A.dot_export(A.export_subnetwork(m, None))
        assert not any("->" in ln for ln in text.splitlines())

    def test_size_refusal_names_limit(self):
        m = small_model()
        with pytest.raises(SizeLimitError, match="3"):
            A.dot_export(A.export_subnetwork(m, None), max_units=3)

    def test_conv_parallel_edges(self):
        m = small_model(seed=15, arch="cnn")
        for layer in m.layers:
            layer.param.mask_logits.data[:] = 1.0  # everything alive
        art = A.export_subnetwork(m, None)
        text = A.dot_export(art, max_units=512)
        edges = [ln.strip() for ln in text.splitlines() if "->" in ln]
        # conv0 is (3, 2, 3, 3): 9 parallel edges per channel pair
        assert edges.count("u0_0 -> u1_0;") == 9


class TestAtomicWrite:
    def rows(self, n=3):
        return [
            MetricsRow(step=k, risk=0.5, irm=0.0, l2=0.1, s1=0.2, s2=0.3, temperature=1.0,
                       train_accuracy=0.6, accuracies={"e0": 0.5, "test": 0.4}, densities={"dense0": 0.9})
            for k in range(1, n + 1)
        ]

    def test_failed_export_keeps_previous_artifact(self, tmp_path, monkeypatch):
        path = tmp_path / "model.subnet.json"
        A.export_subnetwork(small_model(seed=1), path)
        before = path.read_bytes()

        def boom(*args, **kwargs):
            raise RuntimeError("encoder failed")

        monkeypatch.setattr(A.json, "dumps", boom)
        with pytest.raises(RuntimeError):
            A.export_subnetwork(small_model(seed=2), path)
        monkeypatch.undo()
        monkeypatch.setattr(A.os, "replace", boom)
        with pytest.raises(RuntimeError):
            A.export_subnetwork(small_model(seed=2), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.subnet.json"]

    def test_failed_csv_row_keeps_previous_metrics(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(self.rows(), path)
        before = path.read_bytes()
        rows = self.rows(5)
        del rows[3].accuracies["test"]  # its row raises after the header and three rows
        with pytest.raises(KeyError):
            write_metrics_csv(rows, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["metrics.csv"]

    def test_new_file_gets_default_mode(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        with A.atomic_open(tmp_path / "atomic.txt") as fh:
            fh.write("x")
        assert (tmp_path / "atomic.txt").stat().st_mode == plain.stat().st_mode
