import copy
import gc
import tracemalloc

import numpy as np
import pytest

import _reference as ref
from modnet import masking
from modnet import tensor as T
from modnet.errors import ConfigError, ContractError
from modnet.masking import MaskedParameter, MaskMode
from modnet.tensor import Tape, Tensor


def make_param(logits, weights=None, name="w"):
    logits = np.asarray(logits, dtype=float)
    if weights is None:
        weights = np.ones_like(logits)
    return MaskedParameter(name, Tensor(weights, requires_grad=True), Tensor(logits, requires_grad=True))


class TestProbability:
    def test_zero_logit_is_half(self):
        p = T.sigmoid(Tensor([0.0]))
        np.testing.assert_allclose(p.data, [0.5])

    def test_log3_is_three_quarters(self):
        p = T.sigmoid(Tensor([np.log(3.0)]))
        np.testing.assert_allclose(p.data, [0.75], atol=1e-12)

    def test_init_logit_lands_at_point_nine(self):
        p = T.sigmoid(Tensor([masking.LOGIT_INIT]))
        np.testing.assert_allclose(p.data, [0.9], atol=1e-4)

    def test_saturation(self):
        p = T.sigmoid(Tensor([-40.0, 40.0]))
        assert p.data[0] < 1e-15
        assert p.data[1] > 1.0 - 1e-15


class TestRelaxedSample:
    def test_median_noise_recovers_plain_sigmoid(self):
        # u = 0.5 makes the logistic noise exactly 0, so s = sigmoid(l / tau)

        class FixedHalf:
            def uniform(self, size=None):
                return np.full(size, 0.5)

        logits = Tensor([2.0, -1.0, 0.0])
        s = masking.sample_relaxed_mask(logits, 1.0, FixedHalf())
        np.testing.assert_allclose(s.data[0], 0.880797, atol=1e-6)
        np.testing.assert_allclose(s.data, 1 / (1 + np.exp(-logits.data)), atol=1e-12)

        s2 = masking.sample_relaxed_mask(logits, 2.0, FixedHalf())
        np.testing.assert_allclose(s2.data, 1 / (1 + np.exp(-logits.data / 2.0)), atol=1e-12)

    def test_threshold_rate_matches_probability(self):
        # P(s > 0.5) = P(l + noise > 0) = sigmoid(l) regardless of temperature
        rng = np.random.default_rng(123)
        n = 100_000
        for l in (-2.0, 0.0, 0.5, 3.0):
            s = masking.sample_relaxed_mask(Tensor(np.full(n, l)), 0.37, rng)
            rate = float((s.data > 0.5).mean())
            assert abs(rate - 1 / (1 + np.exp(-l))) < 0.01, f"l={l}"

    def test_sample_stays_open_interval(self):
        # at tau = 1 the clipped noise keeps sigmoid strictly inside (0, 1);
        # colder temperatures may round to exactly 0 or 1 in float64
        rng = np.random.default_rng(0)
        s = masking.sample_relaxed_mask(Tensor(np.zeros(10_000)), 1.0, rng)
        assert np.all(s.data > 0.0) and np.all(s.data < 1.0)
        cold = masking.sample_relaxed_mask(Tensor(np.zeros(10_000)), 0.1, rng)
        assert np.all(cold.data >= 0.0) and np.all(cold.data <= 1.0)

    def test_rejects_bad_temperature(self):
        with pytest.raises(ConfigError):
            masking.sample_relaxed_mask(Tensor([0.0]), 0.0, np.random.default_rng(0))

    def test_gradient_flows_to_logits(self):
        rng = np.random.default_rng(5)
        logits = Tensor(np.linspace(-1, 1, 5), requires_grad=True)
        with Tape() as tape:
            s = masking.sample_relaxed_mask(logits, 0.5, rng)
            grads = tape.backward(_sum(s))
        g = tape.grad(grads, logits)
        assert g is not None and np.all(np.isfinite(g)) and np.any(g != 0)


def _sum(t):
    from modnet import tensor as T

    return T.reduce_sum(t)


class TestStraightThrough:
    def test_forward_is_binary_with_ties_to_zero(self):
        s = Tensor([0.2, 0.5, 0.7])
        hard = masking.binarize_straight_through(s)
        np.testing.assert_array_equal(hard.data, [0.0, 0.0, 1.0])

    def test_backward_is_identity(self):
        x = Tensor([0.3, 0.9], requires_grad=True)
        with Tape() as tape:
            hard = masking.binarize_straight_through(x)
            grads = tape.backward(_sum(hard))
        np.testing.assert_array_equal(tape.grad(grads, x), [1.0, 1.0])


class TestEffectiveWeights:
    def test_deterministic_example(self):
        p = make_param([1.0, -1.0], weights=[2.0, -3.0])
        out = masking.effective_weights(p, MaskMode.deterministic())
        np.testing.assert_array_equal(out.data, [2.0, 0.0])

    def test_deterministic_consumes_no_randomness(self):
        p = make_param([[1.0, -2.0], [0.0, 3.0]])
        rng = np.random.default_rng(99)
        before = copy.deepcopy(rng.bit_generator.state)
        masking.effective_weights(p, MaskMode.deterministic(), rng)
        assert rng.bit_generator.state == before

    def test_zero_logit_drops_deterministically(self):
        p = make_param([0.0], weights=[5.0])
        out = masking.effective_weights(p, MaskMode.deterministic())
        np.testing.assert_array_equal(out.data, [0.0])

    def test_stochastic_masks_are_binary_scalings(self):
        p = make_param(np.zeros(1000), weights=np.full(1000, 2.0))
        rng = np.random.default_rng(7)
        out = masking.effective_weights(p, MaskMode.stochastic(0.7), rng)
        assert set(np.unique(out.data)) <= {0.0, 2.0}

    def test_stochastic_requires_rng(self):
        p = make_param([1.0])
        with pytest.raises(ContractError):
            masking.effective_weights(p, MaskMode.stochastic(1.0))

    def test_keep_rate_monotone_in_logit(self):
        rng = np.random.default_rng(21)
        n = 50_000
        rates = []
        for l in (-1.0, 0.0, 1.0):
            p = make_param(np.full(n, l))
            out = masking.effective_weights(p, MaskMode.stochastic(0.5), rng)
            rates.append(float((out.data != 0).mean()))
        assert rates[0] < rates[1] < rates[2]

    def test_gradients_reach_both_weights_and_logits(self):
        p = make_param(np.linspace(-1, 1, 6), weights=np.linspace(0.5, 2.0, 6))
        rng = np.random.default_rng(3)
        with Tape() as tape:
            out = masking.effective_weights(p, MaskMode.stochastic(1.0), rng)
            grads = tape.backward(_sum(out))
        assert tape.grad(grads, p.weights) is not None
        gl = tape.grad(grads, p.mask_logits)
        assert gl is not None and np.any(gl != 0)


def _reference_gate(param, temperature, rng):
    """The five-node tape chain the fused gate replaces:
    add -> scalar_multiply -> sigmoid -> binarize_straight_through -> multiply,
    with the noise clipped by np.clip and the boolean-index sigmoid."""
    u = np.clip(rng.uniform(size=param.mask_logits.shape), 1e-12, 1.0 - 1e-12)
    noise = np.log(u) - np.log1p(-u)
    relaxed = ref.sigmoid(T.scalar_multiply(T.add(param.mask_logits, Tensor(noise)), 1.0 / temperature))
    hard = T.apply_primitive((relaxed.data > 0.5).astype(np.float64), (relaxed,), (lambda g: g,))
    return relaxed, T.multiply(param.weights, hard)


class TestFusedGate:
    # 1-D, a 2-D dense shape spanning several of the gate's blocks, a conv kernel
    SHAPES = [(37,), (130, 200), (6, 3, 3, 3)]

    @pytest.mark.parametrize("tau", [5.0, 1.0, 0.1])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bit_identical_to_reference_chain(self, shape, tau):
        data = np.random.default_rng(len(shape))
        logits = data.normal(0.0, 3.0, size=shape)
        logits.flat[:2] = (-80.0, 80.0)  # saturate the gate at the cold temperature
        weights = data.normal(size=shape)  # both signs, so w * 0 gives -0.0 too
        cotangent = data.normal(size=shape)

        def run(gate):
            p = make_param(logits.copy(), weights=weights.copy())
            rng = np.random.default_rng(2024)
            with Tape() as tape:
                relaxed, out = gate(p, rng)
                loss = _sum(out * Tensor(cotangent))
                grads = tape.backward(loss)
            return relaxed, out.data, tape.grad(grads, p.weights), tape.grad(grads, p.mask_logits), rng

        fused = run(lambda p, rng: (None, masking.effective_weights(p, MaskMode.stochastic(tau), rng)))
        ref = run(lambda p, rng: _reference_gate(p, tau, rng))
        for got, want in zip(fused[1:4], ref[1:4]):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert fused[4].bit_generator.state == ref[4].bit_generator.state
        if tau == 0.1:
            s = ref[0].data
            assert np.any(s == 0.0) and np.any(s == 1.0)

    @pytest.mark.parametrize("tau", [5.0, 0.1])
    def test_relaxed_sample_matches_reference_sigmoid(self, tau):
        logits = np.random.default_rng(4).normal(0.0, 3.0, size=(130, 200))
        cotangent = np.random.default_rng(5).normal(size=logits.shape)

        def run(sample):
            p = make_param(logits.copy())
            with Tape() as tape:
                s = sample(p, np.random.default_rng(9))
                grads = tape.backward(_sum(s * Tensor(cotangent)))
            return s.data, tape.grad(grads, p.mask_logits)

        got = run(lambda p, rng: masking.sample_relaxed_mask(p.mask_logits, tau, rng))
        want = run(lambda p, rng: _reference_gate(p, tau, rng)[0])
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_tape_keeps_a_byte_per_hard_gate(self):
        # the tape holds the relaxed sample (8 bytes a gate) and the bool hard
        # mask (1 byte); values and weight gradient are those of the float mask
        shape = (200, 500)
        data = np.random.default_rng(6)
        p = make_param(data.normal(size=shape), weights=data.normal(size=shape))
        cotangent = data.normal(size=shape)
        s = masking._relaxed_gate(p.mask_logits.data, 1.0, np.random.default_rng(8))
        hard = masking._threshold(s)
        gc.collect()
        with Tape() as tape:
            tracemalloc.start()
            try:
                out = masking.effective_weights(p, MaskMode.stochastic(1.0), np.random.default_rng(8))
                held = tracemalloc.get_traced_memory()[0] - out.data.nbytes
            finally:
                tracemalloc.stop()
            grads = tape.backward(_sum(out * Tensor(cotangent)))
        assert out.data.tobytes() == (p.weights.data * hard).tobytes()
        assert np.signbit(out.data[hard == 0]).any()
        assert tape.grad(grads, p.weights).tobytes() == (cotangent * hard).tobytes()
        assert held < 9.5 * s.size

    @pytest.mark.parametrize("tau", [5.0, 0.1])
    def test_sample_matches_clip_form_at_the_ends_of_the_draw(self, tau):
        class Draws:  # a generator whose uniform draws include 0 and the top of [0, 1)
            def uniform(self, size):
                u = np.random.default_rng(3).uniform(size=size)
                u.flat[:4] = (0.0, 1e-13, 1.0 - 1e-13, np.nextafter(1.0, 0.0))
                u.flat[-4:] = u.flat[:4]
                return u

        logits = np.random.default_rng(4).normal(0.0, 3.0, size=3 * T._BLOCK + 123)
        logits[:2] = (-80.0, 80.0)
        got = masking._relaxed_gate(logits, tau, Draws())
        assert got.tobytes() == ref.relaxed_gate(logits, tau, Draws()).tobytes()

    def test_one_tape_node(self):
        p = make_param(np.zeros((4, 5)), weights=np.ones((4, 5)))
        with Tape() as tape:
            masking.effective_weights(p, MaskMode.stochastic(1.0), np.random.default_rng(0))
        assert len(tape._records) == 1


class TestExtraction:
    def test_threshold_and_idempotence(self):
        p = make_param([0.3, 0.0, -0.2, 7.0])
        m1 = masking.extract_final_mask(p)
        np.testing.assert_array_equal(m1, [1, 0, 0, 1])
        np.testing.assert_array_equal(masking.extract_final_mask(p), m1)

    def test_agrees_with_deterministic_forward_support(self):
        rng = np.random.default_rng(17)
        p = make_param(rng.normal(size=(8, 8)), weights=rng.normal(size=(8, 8)))
        mask = masking.extract_final_mask(p)
        eff = masking.effective_weights(p, MaskMode.deterministic())
        np.testing.assert_array_equal(eff.data, p.weights.data * mask)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            MaskedParameter("w", Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


class TestMode:
    def test_stochastic_rejects_nonpositive_temperature(self):
        with pytest.raises(ConfigError):
            MaskMode.stochastic(-1.0)
        with pytest.raises(ConfigError):
            MaskMode.stochastic(0.0)
