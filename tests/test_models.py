import numpy as np
import pytest

import _reference as ref
from modnet import tensor as T
from modnet.errors import ConfigError, ShapeError
from modnet.masking import LOGIT_INIT, MaskMode
from modnet.models import ModelConfig, build_model, l2_penalty
from modnet.tensor import Tape, Tensor, finite_difference_check

DET = MaskMode.deterministic()


def tiny_mlp(seed=0, classes=3):
    cfg = ModelConfig(arch="mlp", input_shape=(1, 2, 3), classes=classes, hidden=(8,))
    return build_model(cfg, seed)


def tiny_cnn(seed=0):
    cfg = ModelConfig(
        arch="cnn", input_shape=(2, 8, 8), classes=4, conv_channels=(3, 5), conv_kernel=3, dense_hidden=6
    )
    return build_model(cfg, seed)


class TestConfig:
    def test_rejects_unknown_arch(self):
        with pytest.raises(ConfigError):
            ModelConfig(arch="transformer")

    def test_rejects_single_class(self):
        with pytest.raises(ConfigError):
            ModelConfig(classes=1)

    def test_rejects_odd_dims_for_pooling(self):
        with pytest.raises(ConfigError):
            ModelConfig(arch="cnn", input_shape=(1, 7, 8))
        with pytest.raises(ConfigError):
            # 10 -> 5, second pool would see odd height
            ModelConfig(arch="cnn", input_shape=(1, 10, 10), conv_channels=(4, 4))


class TestInit:
    def test_mlp_shapes_and_bounds(self):
        m = tiny_mlp()
        shapes = [layer.param.weights.shape for layer in m.layers]
        assert shapes == [(8, 6), (3, 8)]
        for layer in m.layers:
            fan_in = layer.param.weights.shape[1]
            bound = np.sqrt(6.0 / fan_in)
            assert np.all(np.abs(layer.param.weights.data) <= bound)
            assert np.all(layer.bias.data == 0.0)

    def test_logits_start_at_dense_init(self):
        m = tiny_cnn()
        for layer in m.layers:
            assert np.all(layer.param.mask_logits.data == LOGIT_INIT)
        p = 1 / (1 + np.exp(-LOGIT_INIT))
        assert abs(p - 0.9) < 1e-4

    def test_build_is_deterministic_per_seed(self):
        a, b = tiny_cnn(seed=5), tiny_cnn(seed=5)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.param.weights.data, lb.param.weights.data)
        c = tiny_cnn(seed=6)
        assert any(
            not np.array_equal(la.param.weights.data, lc.param.weights.data)
            for la, lc in zip(a.layers, c.layers)
        )


class TestForward:
    def test_mlp_output_shape(self):
        m = tiny_mlp()
        out = m.forward(Tensor(np.random.default_rng(0).normal(size=(5, 1, 2, 3))), DET)
        assert out.shape == (5, 3)

    def test_cnn_output_shape(self):
        m = tiny_cnn()
        out = m.forward(Tensor(np.random.default_rng(0).normal(size=(2, 2, 8, 8))), DET)
        assert out.shape == (2, 4)

    def test_input_shape_checked(self):
        m = tiny_mlp()
        with pytest.raises(ShapeError):
            m.forward(Tensor(np.zeros((5, 1, 3, 2))), DET)
        with pytest.raises(ShapeError):
            m.forward(Tensor(np.zeros((5, 6))), DET)

    def test_zero_weights_give_uniform_logits(self):
        m = tiny_mlp(classes=4)
        for layer in m.layers:
            layer.param.weights.data[:] = 0.0
        x = Tensor(np.random.default_rng(1).normal(size=(3, 1, 2, 3)))
        out = m.forward(x, DET)
        np.testing.assert_array_equal(out.data, np.zeros((3, 4)))
        loss = T.softmax_cross_entropy(m.forward(x, DET), np.array([0, 1, 2]))
        np.testing.assert_allclose(loss.item(), np.log(4.0), atol=1e-12)

    def test_fully_pruned_model_outputs_bias_only(self):
        m = tiny_mlp()
        for layer in m.layers:
            layer.param.mask_logits.data[:] = -5.0
        m.layers[-1].bias.data[:] = [1.0, 2.0, 3.0]
        out = m.forward(Tensor(np.random.default_rng(2).normal(size=(4, 1, 2, 3))), DET)
        np.testing.assert_allclose(out.data, np.tile([1.0, 2.0, 3.0], (4, 1)), atol=1e-12)

    def test_deterministic_forward_is_repeatable(self):
        m = tiny_cnn()
        x = Tensor(np.random.default_rng(3).normal(size=(2, 2, 8, 8)))
        np.testing.assert_array_equal(m.forward(x, DET).data, m.forward(x, DET).data)

    def test_saturated_logits_make_modes_agree(self):
        # |l| = 40 exceeds the clipped noise range, so sampling cannot flip a bit
        m = tiny_mlp()
        rng = np.random.default_rng(4)
        for layer in m.layers:
            sign = rng.choice([-1.0, 1.0], size=layer.param.mask_logits.shape)
            layer.param.mask_logits.data[:] = 40.0 * sign
        x = Tensor(rng.normal(size=(3, 1, 2, 3)))
        det = m.forward(x, DET)
        sto = m.forward(x, MaskMode.stochastic(0.5), np.random.default_rng(11))
        np.testing.assert_allclose(sto.data, det.data, atol=1e-10)

    def test_pruned_input_feature_is_ignored(self):
        # kill every first-layer weight reading input feature 0
        m = tiny_mlp()
        m.layers[0].param.mask_logits.data[:, 0] = -40.0
        rng = np.random.default_rng(5)
        x1 = rng.normal(size=(3, 1, 2, 3))
        x2 = x1.copy()
        x2[:, 0, 0, 0] += 100.0  # feature 0 in C-order flattening
        np.testing.assert_allclose(
            m.forward(Tensor(x1), DET).data, m.forward(Tensor(x2), DET).data, atol=1e-12
        )

    def test_one_mask_draw_shared_across_batches(self):
        m = tiny_mlp()
        m.layers[0].param.mask_logits.data[:] = 0.5  # genuinely random masks
        rng = np.random.default_rng(6)
        effs = m.effective_parameters(MaskMode.stochastic(1.0), rng)
        xa = Tensor(np.random.default_rng(7).normal(size=(2, 1, 2, 3)))
        out1 = m.apply_with(effs, xa)
        out2 = m.apply_with(effs, xa)
        np.testing.assert_array_equal(out1.data, out2.data)


class TestGroupSpecs:
    def test_mlp_group_counts(self):
        cfg = ModelConfig(arch="mlp", input_shape=(2, 28, 28), classes=2, hidden=(256, 256))
        m = build_model(cfg, 0)
        specs = m.collect_group_specs()
        assert specs["dense0"].num_groups == 1568
        assert specs["dense1"].num_groups == 256
        assert specs["dense2"].num_groups == 256
        for layer in m.layers:
            assert specs[layer.param.name].num_entries == layer.param.weights.size

    def test_cnn_group_counts(self):
        cfg = ModelConfig(
            arch="cnn", input_shape=(2, 28, 28), classes=2, conv_channels=(16, 32), conv_kernel=3
        )
        m = build_model(cfg, 0)
        specs = m.collect_group_specs()
        assert specs["conv0"].num_groups == 2
        assert all(len(g) == 16 * 9 for g in ref.groups_of(specs["conv0"]))
        assert specs["conv1"].num_groups == 16
        # head reads the flattened (32, 7, 7) map, grouped by channel
        assert specs["dense0"].num_groups == 32
        assert all(len(g) == 128 * 49 for g in ref.groups_of(specs["dense0"]))
        assert specs["dense1"].num_groups == 128

    def test_flatten_blocks_follow_channel_layout(self):
        # zeroing the masks of dense0 group c must erase dependence on channel c
        m = tiny_cnn()
        specs = m.collect_group_specs()
        dense0 = next(l for l in m.layers if l.param.name == "dense0")
        flat_logits = dense0.param.mask_logits.data.reshape(-1)
        for idx in ref.groups_of(specs["dense0"])[0]:
            flat_logits[idx] = -40.0
        # ...and the conv stack's channel 0 output then cannot matter
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 2, 8, 8)))
        base = m.forward(x, DET).data
        conv1 = next(l for l in m.layers if l.param.name == "conv1")
        conv1.bias.data[0] += 3.0  # only shifts channel 0 of the flattened map
        shifted = m.forward(x, DET).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)


class TestPenaltyHelpers:
    def test_l2_closed_form(self):
        m = tiny_mlp()
        for layer in m.layers:
            layer.param.weights.data[:] = 2.0
            layer.bias.data[:] = 1.0
        n_w = sum(l.param.weights.size for l in m.layers)
        n_b = sum(l.bias.size for l in m.layers)
        out = l2_penalty(m, 0.5)
        np.testing.assert_allclose(out.item(), 0.5 * (4.0 * n_w + 1.0 * n_b), rtol=1e-12)

    def test_l2_disabled_is_exact_zero(self):
        assert l2_penalty(tiny_mlp(), 0.0).item() == 0.0

    def test_density_tracks_logit_signs(self):
        m = tiny_mlp()
        d0 = m.mask_density()
        assert all(v == 1.0 for v in d0.values())
        m.layers[0].param.mask_logits.data[:4, :] = -1.0
        assert m.mask_density()["dense0"] == 0.5


class TestGradients:
    def test_full_forward_gradcheck_weights(self):
        cfg = ModelConfig(arch="mlp", input_shape=(1, 2, 3), classes=3, hidden=(8,))
        m = build_model(cfg, 12)
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(4, 1, 2, 3)))
        y = rng.integers(0, 3, size=4)

        target = m.layers[0].param.weights

        def f(w: Tensor) -> Tensor:
            m.layers[0].param.weights = w
            return T.softmax_cross_entropy(m.forward(x, DET), y)

        err = finite_difference_check(f, target)
        assert err < 1e-4

    def test_cnn_forward_gradcheck_weights(self):
        m = tiny_cnn(seed=21)
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(2, 2, 8, 8)))
        y = rng.integers(0, 4, size=2)
        target = m.layers[0].param.weights

        def f(w: Tensor) -> Tensor:
            m.layers[0].param.weights = w
            return T.softmax_cross_entropy(m.forward(x, DET), y)

        assert finite_difference_check(f, target) < 1e-4

    def test_bias_gradient_flows(self):
        m = tiny_mlp()
        x = Tensor(np.random.default_rng(14).normal(size=(4, 1, 2, 3)))
        with Tape() as tape:
            loss = T.softmax_cross_entropy(m.forward(x, DET), np.array([0, 1, 2, 0]))
            grads = tape.backward(loss)
        g = tape.grad(grads, m.layers[-1].bias)
        assert g is not None and np.any(g != 0)
