import gc
import tracemalloc

import numpy as np
import pytest

import _reference as ref
from modnet import masking
from modnet import regularizers as R
from modnet import tensor as T
from modnet import training as TR
from modnet.data import Environment
from modnet.errors import ConfigError, DataError, TrainingError
from modnet.masking import MaskMode
from modnet.models import ModelConfig, build_model
from modnet.objectives import ObjectiveConfig
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

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_nonfinite_gradient_on_a_later_parameter_changes_nothing(self):
        def fresh():
            a = Tensor([1.0], requires_grad=True)
            b = Tensor([0.0], requires_grad=True)
            return a, b, Adam([("a", a), ("b", b)], lr=0.1)

        def step(a, b, opt, f):
            with Tape() as tape:
                grads = tape.backward(T.add(T.reduce_sum(T.square(a)), T.reduce_sum(f(b))))
            opt.step(tape, grads)

        a, b, opt = fresh()
        with pytest.raises(TrainingError, match="'b' at step 1"):
            step(a, b, opt, T.sqrt)  # d sqrt at 0 = inf; a's gradient is finite
        assert a.data.tolist() == [1.0] and b.data.tolist() == [0.0] and opt.t == 0
        for moments in (opt.m, opt.v):
            assert all(not arr.any() for arr in moments.values())
        # a retry with finite gradients is a fresh optimizer's first step
        a2, b2, opt2 = fresh()
        step(a, b, opt, T.square)
        step(a2, b2, opt2, T.square)
        assert opt.t == opt2.t == 1
        for x, y in ((a, a2), (b, b2)):
            assert x.data.tobytes() == y.data.tobytes()
        for name in ("a", "b"):
            assert opt.m[name].tobytes() == opt2.m[name].tobytes()
            assert opt.v[name].tobytes() == opt2.v[name].tobytes()

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


class TestBlockedAdam:
    SHAPES = {"wide": (3 * T._BLOCK + 77,), "dense": (130, 200), "bias": (7,), "scalar": ()}

    def params(self):
        rng = np.random.default_rng(41)
        return [(name, Tensor(rng.normal(size=shape), requires_grad=True)) for name, shape in self.SHAPES.items()]

    def test_matches_whole_array_sequence_over_three_steps(self):
        ps, ref_ps = self.params(), self.params()
        opt, ref_opt = Adam(ps, lr=0.01), Adam(ref_ps, lr=0.01)
        for _ in range(3):
            for params, step in ((ps, opt.step), (ref_ps, lambda tape, grads: ref.adam_step(ref_opt, tape, grads))):
                with Tape() as tape:
                    loss = Tensor(0.0)
                    for _, t in params:  # gradient 3 t^2: changes every step
                        loss = T.add(loss, T.reduce_sum(T.multiply(T.square(t), t)))
                    grads = tape.backward(loss)
                step(tape, grads)
            for (name, t), (_, r) in zip(ps, ref_ps):
                assert t.data.tobytes() == r.data.tobytes()
                assert opt.m[name].tobytes() == ref_opt.m[name].tobytes()
                assert opt.v[name].tobytes() == ref_opt.v[name].tobytes()

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_nonfinite_gradient_in_a_later_block_touches_nothing(self):
        w = Tensor(np.ones(3 * T._BLOCK + 5), requires_grad=True)
        opt = Adam([("w", w)], lr=0.1)
        with Tape() as tape:
            grads = tape.backward(T.reduce_sum(T.square(w)))
        opt.step(tape, grads)
        w.data[-1] = 0.0
        before = [a.copy() for a in (w.data, opt.m["w"], opt.v["w"])]
        with Tape() as tape:
            grads = tape.backward(T.reduce_sum(T.sqrt(w)))  # d sqrt at 0 = inf, in the tail block
        with pytest.raises(TrainingError, match="'w'"):
            opt.step(tape, grads)
        for a, b in zip((w.data, opt.m["w"], opt.v["w"]), before):
            assert a.tobytes() == b.tobytes()


class TestFastFormsInTraining:
    def test_irm_with_both_penalties_matches_reference_forms(self, monkeypatch):
        cfg = small_cfg(
            # 1100 x 16 gates span two blocks of the elementwise passes
            model=ModelConfig(arch="mlp", input_shape=(1, 4, 4), classes=2, hidden=(1100,)),
            objective=ObjectiveConfig(base="irm", irm_lambda=10.0, irm_anneal_steps=6,
                                      reg=RegWeights(alpha=1e-3, beta=1e-3)),
            steps=12, eval_interval=6,
        )
        envs = [synth_env("e0", 64, 1), synth_env("e1", 64, 2)]
        fast, fast_rows = train(cfg, envs)
        with monkeypatch.context() as mp:
            for name in ("sigmoid", "relu", "square", "segment_sum"):
                mp.setattr(T, name, getattr(ref, name))
            mp.setattr(R, "_grouped", ref.grouped)
            mp.setattr(masking, "_relaxed_gate", ref.relaxed_gate)
            mp.setattr(Adam, "step", ref.adam_step)
            slow, slow_rows = train(cfg, envs)
        assert [n for n, _ in fast.named_parameters()] == [n for n, _ in slow.named_parameters()]
        for (name, a), (_, b) in zip(fast.named_parameters(), slow.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes(), name
        assert fast_rows == slow_rows


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
        before = T.softmax_cross_entropy(fresh.forward(x, MaskMode.deterministic()), envs[0].labels).item()
        after = T.softmax_cross_entropy(model.forward(x, MaskMode.deterministic()), envs[0].labels).item()
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
