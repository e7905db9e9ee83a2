import gc
import tracemalloc

import numpy as np
import pytest

from modnet import tensor as T
from modnet import training as TR
from modnet.data import Environment
from modnet.errors import ConfigError, DataError, TrainingError
from modnet.masking import MaskMode
from modnet.models import ModelConfig, build_model
from modnet.objectives import ObjectiveConfig, cross_entropy_risk
from modnet.regularizers import RegWeights, reuse_penalty, specialization_penalty
from modnet.tensor import Tape, Tensor
from modnet.training import Adam, MetricsRow, TrainConfig, evaluate, temperature, train


def synth_env(env_id, n, seed, role="train"):
    # label = whether total intensity clears the expected mean; linearly separable
    rng = np.random.default_rng(seed)
    inputs = rng.random((n, 1, 4, 4))
    labels = (inputs.sum(axis=(1, 2, 3)) > 8.0).astype(np.int64)
    return Environment(env_id=env_id, inputs=inputs, labels=labels, role=role)


def small_cfg(**kw):
    defaults = dict(
        model=ModelConfig(arch="mlp", input_shape=(1, 4, 4), classes=2, hidden=(16,)),
        objective=ObjectiveConfig(base="erm"),
        steps=60,
        batch_size=32,
        lr=5e-3,
        eval_interval=30,
        seed=3,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestAdam:
    def test_untouched_parameter_stays_put(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        z = Tensor(3.0, requires_grad=True)
        opt = Adam([("w", w), ("z", z)], lr=0.1)
        with Tape() as tape:
            grads = tape.backward(T.square(z))
        opt.step(tape, grads)
        np.testing.assert_array_equal(w.data, [1.0, 2.0])
        assert opt.t == 1

    def test_first_step_is_lr_times_sign(self):
        w = Tensor(2.0, requires_grad=True)
        opt = Adam([("w", w)], lr=0.1)
        with Tape() as tape:
            grads = tape.backward(T.scalar_multiply(w, 0.5))  # grad = 0.5
        opt.step(tape, grads)
        np.testing.assert_allclose(w.data, 2.0 - 0.1, atol=1e-7)

    def test_parameter_order_does_not_matter(self):
        def run(order):
            a = Tensor([1.0], requires_grad=True)
            b = Tensor([2.0], requires_grad=True)
            params = [("a", a), ("b", b)]
            opt = Adam(params if order else params[::-1], lr=0.01)
            for _ in range(3):
                with Tape() as tape:
                    loss = T.add(T.reduce_sum(T.square(a)), T.reduce_sum(T.square(T.square(b))))
                    grads = tape.backward(loss)
                opt.step(tape, grads)
            return a.data.copy(), b.data.copy()

        a1, b1 = run(True)
        a2, b2 = run(False)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_nonfinite_gradient_names_parameter(self):
        w = Tensor([0.0], requires_grad=True)
        opt = Adam([("dense0.weights", w)], lr=0.1)
        with Tape() as tape:
            grads = tape.backward(T.reduce_sum(T.sqrt(w)))  # d sqrt at 0 = inf
        with pytest.raises(TrainingError, match="dense0.weights"):
            opt.step(tape, grads)

    def test_update_does_not_mutate_arrays_in_place(self):
        w = Tensor([1.0], requires_grad=True)
        before = w.data
        opt = Adam([("w", w)], lr=0.1)
        with Tape() as tape:
            grads = tape.backward(T.reduce_sum(T.square(w)))
        opt.step(tape, grads)
        np.testing.assert_array_equal(before, [1.0])


    def test_matches_closed_form_and_keeps_moments_apart(self):
        rng = np.random.default_rng(31)
        shapes = {"big": (40, 30), "bias": (7,), "scalar": ()}
        params = [(name, Tensor(rng.normal(size=shape), requires_grad=True)) for name, shape in shapes.items()]
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        ref = {name: (t.data.copy(), np.zeros(shape), np.zeros(shape)) for (name, t), shape in zip(params, shapes.values())}
        for step in range(1, 4):
            with Tape() as tape:
                loss = Tensor(0.0)
                for _, t in params:  # gradient 3 t^2: changes every step
                    loss = T.add(loss, T.reduce_sum(T.multiply(T.square(t), t)))
                grads = tape.backward(loss)
            opt.step(tape, grads)
            b1c, b2c = 1.0 - b1**step, 1.0 - b2**step
            for name, t in params:
                data, m, v = ref[name]
                g = tape.grad(grads, t)
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * g * g
                data = data - lr * (m / b1c) / (np.sqrt(v / b2c) + eps)
                ref[name] = (data, m, v)
                assert t.data.tobytes() == data.tobytes()
                assert opt.m[name].tobytes() == m.tobytes() and opt.v[name].tobytes() == v.tobytes()
                assert not np.shares_memory(opt.m[name], t.data)
                assert not np.shares_memory(opt.v[name], t.data)


class TestTemperature:
    def test_endpoints(self):
        assert temperature(0, 5.0, 0.5, 100) == 5.0
        assert temperature(100, 5.0, 0.5, 100) == 0.5
        assert temperature(250, 5.0, 0.5, 100) == 0.5

    def test_geometric_midpoint(self):
        np.testing.assert_allclose(temperature(50, 5.0, 0.5, 100), np.sqrt(2.5), rtol=1e-12)
        np.testing.assert_allclose(temperature(50, 5.0, 0.5, 100), 1.5811, atol=1e-4)

    def test_monotone_nonincreasing(self):
        taus = [temperature(s, 5.0, 0.5, 64) for s in range(80)]
        assert all(a >= b for a, b in zip(taus, taus[1:]))

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigError):
            temperature(0, 0.4, 0.5, 10)
        with pytest.raises(ConfigError):
            temperature(0, 5.0, 0.0, 10)


class TestEvaluate:
    def test_constant_predictor_hits_class_frequency(self):
        m = build_model(ModelConfig(arch="mlp", input_shape=(1, 4, 4), classes=2, hidden=(4,)), 0)
        for layer in m.layers:
            layer.param.weights.data[:] = 0.0
        env = synth_env("e", 200, seed=1)
        # zero logits everywhere: argmax ties resolve to class 0
        acc = evaluate(m, env)
        np.testing.assert_allclose(acc, float((env.labels == 0).mean()))

    def test_evaluation_is_deterministic(self):
        m = build_model(ModelConfig(arch="mlp", input_shape=(1, 4, 4), classes=2, hidden=(4,)), 1)
        env = synth_env("e", 57, seed=2)
        assert evaluate(m, env, batch_size=10) == evaluate(m, env, batch_size=10)

    def test_batch_size_does_not_change_result(self):
        m = build_model(ModelConfig(arch="mlp", input_shape=(1, 4, 4), classes=2, hidden=(4,)), 2)
        env = synth_env("e", 57, seed=3)
        assert evaluate(m, env, batch_size=7) == evaluate(m, env, batch_size=57)


class TestBatchStream:
    def test_cycles_epochs(self):
        env = synth_env("e", 10, seed=4)
        s = TR._BatchStream(env, 4, seed=0)
        sizes = [len(s.next().labels) for _ in range(6)]
        assert sizes == [4, 4, 2, 4, 4, 2]
        assert s.epoch == 1


class TestTrain:
    def test_smoke_risk_decreases(self):
        cfg = small_cfg()
        envs = [synth_env("a", 256, seed=10), synth_env("b", 256, seed=11)]
        model, rows = train(cfg, envs)
        fresh = build_model(cfg.model, cfg.seed)
        x = Tensor(envs[0].inputs)
        before = cross_entropy_risk(fresh.forward(x, MaskMode.deterministic()), envs[0].labels).item()
        after = cross_entropy_risk(model.forward(x, MaskMode.deterministic()), envs[0].labels).item()
        assert after < before

    def test_identical_seeds_identical_logs(self):
        cfg = small_cfg(steps=30, eval_interval=10)
        envs = lambda: [synth_env("a", 128, seed=20), synth_env("b", 128, seed=21)]
        _, rows1 = train(cfg, envs())
        _, rows2 = train(cfg, envs())
        assert rows1 == rows2

    def test_control_run_keeps_masks_dense(self):
        cfg = small_cfg(steps=50)
        model, _ = train(cfg, [synth_env("a", 128, seed=30)])
        dens = model.mask_density()
        assert all(v >= 0.85 for v in dens.values())

    def test_eval_env_accuracy_logged(self):
        cfg = small_cfg(steps=20, eval_interval=20)
        test_env = synth_env("held", 64, seed=41, role="test")
        _, rows = train(cfg, [synth_env("a", 128, seed=40)], [test_env])
        assert set(rows[-1].accuracies) == {"a", "held"}

    def test_duplicate_env_ids_rejected(self):
        cfg = small_cfg(steps=5)
        with pytest.raises(DataError):
            train(cfg, [synth_env("a", 32, seed=1)], [synth_env("a", 32, seed=2, role="test")])

    def test_no_train_envs_rejected(self):
        with pytest.raises(DataError):
            train(small_cfg(), [])

    def test_artifacts_written(self, tmp_path):
        cfg = small_cfg(steps=20, eval_interval=10, out_dir=str(tmp_path))
        train(cfg, [synth_env("a", 64, seed=50)], [synth_env("t", 32, seed=51, role="test")])
        csv_path = tmp_path / "metrics.csv"
        art_path = tmp_path / "model.subnet.json"
        assert csv_path.exists() and art_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "step,risk,irm,l2,s1,s2,temperature,acc_a,acc_t,density_dense0,density_dense1"
        from modnet.artifact import load_subnetwork

        loaded = load_subnetwork(art_path)
        assert loaded.config.classes == 2

    def test_mask_logits_receive_updates_when_regularized(self):
        cfg = small_cfg(
            steps=25,
            objective=ObjectiveConfig(base="erm", reg=RegWeights(alpha=1e-3, beta=1e-3)),
        )
        model, _ = train(cfg, [synth_env("a", 128, seed=60)])
        from modnet.masking import LOGIT_INIT

        moved = any(
            not np.allclose(l.param.mask_logits.data, LOGIT_INIT) for l in model.layers
        )
        assert moved


class TestStepMemory:
    def test_peak_does_not_grow_after_the_first_step(self):
        # no step's tape, gradients or loss may live on into the next step
        def env(i):
            rng = np.random.default_rng(i)
            x = rng.random((64, 2, 16, 16))
            y = (x.sum(axis=(1, 2, 3)) > x[0].size / 2).astype(np.int64)
            return Environment(env_id=f"e{i}", inputs=x, labels=y, role="train")

        envs = [env(0), env(1)]
        cfg = dict(
            model=ModelConfig(arch="mlp", input_shape=(2, 16, 16), classes=2, hidden=(1024,)),
            objective=ObjectiveConfig(base="irm", irm_lambda=10.0, irm_anneal_steps=1,
                                      reg=RegWeights(alpha=1e-3, beta=1e-3)),
            batch_size=32, eval_interval=1000, seed=3,
        )

        def peak(steps):
            gc.collect()
            tracemalloc.start()
            try:
                train(TrainConfig(steps=steps, **cfg), envs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4) <= 1.05 * peak(1)


class TestPruningPressure:
    def test_pure_mask_objective_shrinks_probabilities_monotonically(self):
        m = build_model(ModelConfig(arch="mlp", input_shape=(1, 2, 2), classes=2, hidden=(6,)), 7)
        specs = m.collect_group_specs()
        opt = Adam([(f"{p.name}.mask_logits", p.mask_logits) for p in m.masked_params()], lr=0.05)
        means = [np.mean([1 / (1 + np.exp(-p.mask_logits.data)).mean() for p in m.masked_params()])]
        for _ in range(10):
            with Tape() as tape:
                probs = m.mask_probabilities()
                loss = T.add(
                    specialization_penalty(probs, specs), reuse_penalty(probs, specs)
                )
                grads = tape.backward(loss)
            opt.step(tape, grads)
            means.append(np.mean([1 / (1 + np.exp(-p.mask_logits.data)).mean() for p in m.masked_params()]))
        assert all(a > b for a, b in zip(means, means[1:]))
