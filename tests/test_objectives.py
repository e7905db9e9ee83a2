from dataclasses import dataclass

import numpy as np
import pytest

from modnet import objectives as O
from modnet import tensor as T
from modnet.errors import ConfigError, DataError
from modnet.masking import MaskMode
from modnet.models import ModelConfig, build_model
from modnet.regularizers import RegWeights
from modnet.tensor import Tape, Tensor, finite_difference_check

DET = MaskMode.deterministic()


@dataclass
class Batch:
    env_id: str
    inputs: np.ndarray
    labels: np.ndarray


def tiny_model(seed=0, classes=3, hidden=(6,)):
    cfg = ModelConfig(arch="mlp", input_shape=(1, 2, 2), classes=classes, hidden=hidden)
    return build_model(cfg, seed)


def rand_batch(rng, env_id, n=8, classes=3):
    return Batch(env_id, rng.normal(size=(n, 1, 2, 2)), rng.integers(0, classes, size=n))


def ce_numpy(z, y, w=1.0):
    zw = w * z
    m = zw.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(zw - m).sum(axis=1))
    return float((lse - zw[np.arange(len(y)), y]).mean())


class TestRisk:
    def test_uniform_ten_class(self):
        loss = T.softmax_cross_entropy(Tensor(np.zeros((5, 10))), np.zeros(5, dtype=int))
        np.testing.assert_allclose(loss.item(), np.log(10.0), atol=1e-12)
        np.testing.assert_allclose(loss.item(), 2.302585, atol=1e-6)

    def test_saturated_logit_vanishes(self):
        z = np.zeros((1, 3))
        z[0, 1] = 50.0
        loss = T.softmax_cross_entropy(Tensor(z), np.array([1]))
        assert loss.item() <= 1e-8

    def test_mean_of_two_samples(self):
        za = np.array([[2.0, -1.0, 0.5]])
        zb = np.array([[0.1, 0.2, 0.3]])
        a = T.softmax_cross_entropy(Tensor(za), np.array([0])).item()
        b = T.softmax_cross_entropy(Tensor(zb), np.array([2])).item()
        both = T.softmax_cross_entropy(Tensor(np.vstack([za, zb])), np.array([0, 2])).item()
        np.testing.assert_allclose(both, (a + b) / 2, rtol=1e-12)


class TestDummyGrad:
    def test_float_labels_raise_data_error_like_the_risk(self):
        z = Tensor([[0.5, -0.5], [1.0, 2.0]])
        labels = np.array([0.0, 1.0])
        with pytest.raises(DataError, match="integers"):
            T.softmax_cross_entropy(z, labels)
        with pytest.raises(DataError, match="integers"):
            O.risk_dummy_grad(z, labels)
        with pytest.raises(DataError, match="integers"):
            O.irm_penalty([(z, labels)])

    def test_worked_example(self):
        d = O.risk_dummy_grad(Tensor([[1.0, 0.0]]), np.array([0]))
        np.testing.assert_allclose(d.item(), -0.268941, atol=1e-6)
        pen = O.irm_penalty([(Tensor([[1.0, 0.0]]), np.array([0]))])
        np.testing.assert_allclose(pen.item(), 0.072329, atol=1e-6)

    def test_zero_logits_annihilate(self):
        pen = O.irm_penalty([(Tensor(np.zeros((4, 3))), np.array([0, 1, 2, 0]))])
        np.testing.assert_allclose(pen.item(), 0.0, atol=1e-15)

    def test_duplicate_environments_double_penalty(self):
        rng = np.random.default_rng(0)
        z, y = rng.normal(size=(6, 4)), rng.integers(0, 4, size=6)
        one = O.irm_penalty([(Tensor(z), y)]).item()
        two = O.irm_penalty([(Tensor(z), y), (Tensor(z.copy()), y)]).item()
        np.testing.assert_allclose(two, 2 * one, rtol=1e-12)

    def test_empty_environment_list(self):
        with pytest.raises(DataError):
            O.irm_penalty([])

    def test_matches_fd_in_dummy_scalar(self):
        # forward valueD == d/dw CE(w z) at w=1 by central differences
        rng = np.random.default_rng(99)
        eps = 1e-6
        for _ in range(20):
            n, k = int(rng.integers(1, 9)), int(rng.integers(2, 6))
            z = rng.normal(size=(n, k)) * 2
            y = rng.integers(0, k, size=n)
            analytic = O.risk_dummy_grad(Tensor(z), y).item()
            numeric = (ce_numpy(z, y, 1 + eps) - ce_numpy(z, y, 1 - eps)) / (2 * eps)
            assert abs(analytic - numeric) / max(1.0, abs(analytic)) < 1e-6

    def test_penalty_gradient_in_logits(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 3, size=5)
        z = Tensor(rng.normal(size=(5, 3)))
        err = finite_difference_check(lambda t: O.irm_penalty([(t, y)]), z)
        assert err < 1e-4


class TestTotalObjective:
    def test_degenerate_config_equals_risk(self):
        m = tiny_model()
        rng = np.random.default_rng(1)
        b = rand_batch(rng, "e0")
        cfg = O.ObjectiveConfig(base="erm")
        loss, bd = O.total_objective(m, [b], cfg, None, DET, None, step=0)
        direct = T.softmax_cross_entropy(m.forward(Tensor(b.inputs), DET), b.labels)
        assert loss.item() == direct.item()
        assert bd.irm == 0.0 and bd.l2 == 0.0 and bd.s1 == 0.0 and bd.s2 == 0.0

    def test_erm_pools_by_sample_count(self):
        m = tiny_model()
        rng = np.random.default_rng(2)
        small, big = rand_batch(rng, "a", n=2), rand_batch(rng, "b", n=6)
        cfg = O.ObjectiveConfig(base="erm")
        loss, _ = O.total_objective(m, [small, big], cfg, None, DET, None, step=0)
        ra = T.softmax_cross_entropy(m.forward(Tensor(small.inputs), DET), small.labels).item()
        rb = T.softmax_cross_entropy(m.forward(Tensor(big.inputs), DET), big.labels).item()
        np.testing.assert_allclose(loss.item(), (2 * ra + 6 * rb) / 8, rtol=1e-12)

    def test_irm_averages_env_risks(self):
        m = tiny_model()
        rng = np.random.default_rng(3)
        a, b = rand_batch(rng, "a", n=2), rand_batch(rng, "b", n=6)
        cfg = O.ObjectiveConfig(base="irm", irm_lambda=0.0, irm_anneal_steps=0)
        _, bd = O.total_objective(m, [a, b], cfg, None, DET, None, step=10)
        ra = T.softmax_cross_entropy(m.forward(Tensor(a.inputs), DET), a.labels).item()
        rb = T.softmax_cross_entropy(m.forward(Tensor(b.inputs), DET), b.labels).item()
        np.testing.assert_allclose(bd.risk, (ra + rb) / 2, rtol=1e-12)

    def test_lambda_anneal_schedule(self):
        m = tiny_model()
        rng = np.random.default_rng(4)
        batches = [rand_batch(rng, "a"), rand_batch(rng, "b")]
        cfg = O.ObjectiveConfig(base="irm", irm_lambda=1e4, irm_anneal_steps=500)
        _, before = O.total_objective(m, batches, cfg, None, DET, None, step=499)
        _, after = O.total_objective(m, batches, cfg, None, DET, None, step=500)
        assert before.lambda_eff == 1.0 and before.scale == 1.0
        assert after.lambda_eff == 1e4 and after.scale == 1e-4

    def test_bookkeeping_identity(self):
        m = tiny_model(seed=7)
        rng = np.random.default_rng(7)
        batches = [rand_batch(rng, "a"), rand_batch(rng, "b")]
        specs = m.collect_group_specs()
        cfg = O.ObjectiveConfig(
            base="irm", irm_lambda=1e4, irm_anneal_steps=100,
            reg=RegWeights(alpha=1e-3, beta=2e-3), weight_decay=1e-4,
        )
        loss, bd = O.total_objective(m, batches, cfg, specs, DET, None, step=200)
        recon = bd.scale * (bd.risk + bd.lambda_eff * bd.irm + bd.l2 + bd.s1 + bd.s2)
        np.testing.assert_allclose(loss.item(), recon, rtol=1e-12, atol=1e-12)
        assert bd.total == loss.item()

    def test_mask_term_closed_form(self):
        # dense0 is a (2, 1) column group; probabilities 0.6 and 0.8 give
        # alpha*(0.6+0.8)^2 + beta*sqrt(0.36+0.64) = 1.96 + 2.0
        m = tiny_model(classes=2, hidden=(2,))
        cfg0 = ModelConfig(arch="mlp", input_shape=(1, 1, 1), classes=2, hidden=(2,))
        m = build_model(cfg0, 0)
        m.layers[0].param.mask_logits.data[:] = np.array([[np.log(1.5)], [np.log(4.0)]])
        m.layers[1].param.mask_logits.data[:] = -40.0
        specs = m.collect_group_specs()
        cfg = O.ObjectiveConfig(base="erm", reg=RegWeights(alpha=1.0, beta=2.0))
        batch = Batch("e", np.zeros((2, 1, 1, 1)), np.array([0, 1]))
        _, bd = O.total_objective(m, [batch], cfg, specs, DET, None, step=0)
        np.testing.assert_allclose(bd.s1 + bd.s2, 3.96, atol=1e-4)

    def test_deterministic_given_seed_and_step(self):
        m = tiny_model(seed=9)
        rng = np.random.default_rng(10)
        batches = [rand_batch(rng, "a"), rand_batch(rng, "b")]
        cfg = O.ObjectiveConfig(base="erm", reg=RegWeights(alpha=1e-4, beta=1e-4))
        specs = m.collect_group_specs()
        vals = []
        for _ in range(2):
            step_rng = np.random.default_rng([11, 42])
            loss, _ = O.total_objective(
                m, batches, cfg, specs, MaskMode.stochastic(1.0), step_rng, step=42
            )
            vals.append(loss.item())
        assert vals[0] == vals[1]

    def test_mask_logit_gradient_present_when_regularized(self):
        m = tiny_model(seed=12)
        rng = np.random.default_rng(12)
        b = rand_batch(rng, "e")
        specs = m.collect_group_specs()
        cfg = O.ObjectiveConfig(base="erm", reg=RegWeights(alpha=1e-3, beta=1e-3))
        with Tape() as tape:
            loss, _ = O.total_objective(m, [b], cfg, specs, DET, None, step=0)
            grads = tape.backward(loss)
        for layer in m.layers:
            g = tape.grad(grads, layer.param.mask_logits)
            assert g is not None and np.linalg.norm(g) > 0

    def test_train_accuracy_reported(self):
        m = tiny_model()
        for layer in m.layers:
            layer.param.weights.data[:] = 0.0
        m.layers[-1].bias.data[:] = [5.0, 0.0, 0.0]  # constant class-0 predictor
        b = Batch("e", np.zeros((4, 1, 2, 2)), np.array([0, 0, 1, 2]))
        _, bd = O.total_objective(m, [b], O.ObjectiveConfig(), None, DET, None, step=0)
        assert bd.train_accuracy == 0.5

    def test_empty_batches_rejected(self):
        with pytest.raises(DataError):
            O.total_objective(tiny_model(), [], O.ObjectiveConfig(), None, DET, None, step=0)

    def test_bad_base_rejected(self):
        with pytest.raises(ConfigError):
            O.ObjectiveConfig(base="vrex")
