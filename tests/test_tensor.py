import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from modnet.errors import ConfigError, ContractError, DataError, ShapeError
from modnet import tensor as T
from modnet.tensor import Tape, Tensor, finite_difference_check


class TestForward:
    def test_add_broadcasts(self):
        out = T.add(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([10.0, 20.0]))
        np.testing.assert_array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_matmul_identity(self):
        a = np.arange(6, dtype=float).reshape(2, 3)
        out = T.matmul(Tensor(a), Tensor(np.eye(3)))
        np.testing.assert_array_equal(out.data, a)

    def test_matmul_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_linear_width_mismatch(self):
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_relu_sign(self):
        out = T.relu(Tensor([-1.5, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_extremes_are_finite(self):
        out = T.sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[1], 0.5)

    def test_softmax_ce_uniform_two_class(self):
        # identical logits, one sample: loss is exactly ln 2
        loss = T.softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([0]))
        np.testing.assert_allclose(loss.item(), np.log(2.0), atol=1e-12)
        np.testing.assert_allclose(loss.item(), 0.693147, atol=1e-6)

    def test_softmax_ce_label_out_of_range(self):
        with pytest.raises(DataError):
            T.softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([2]))

    def test_softmax_ce_huge_logits_stable(self):
        loss = T.softmax_cross_entropy(Tensor([[1000.0, -1000.0]]), np.array([0]))
        assert np.isfinite(loss.item())
        assert loss.item() < 1e-8

    def test_max_pool_picks_first_on_ties(self):
        x = np.zeros((1, 1, 2, 2))
        out = T.max_pool2x2(Tensor(x))
        assert out.data.shape == (1, 1, 1, 1)
        assert out.item() == 0.0

    def test_max_pool_rejects_odd_dims(self):
        with pytest.raises(ShapeError):
            T.max_pool2x2(Tensor(np.zeros((1, 1, 3, 4))))

    def test_conv2d_same_preserves_spatial_shape(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 7, 7)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        out = T.conv2d(x, w, padding="same")
        assert out.data.shape == (2, 4, 7, 7)

    def test_conv2d_valid_shrinks(self):
        out = T.conv2d(Tensor(np.ones((1, 1, 5, 5))), Tensor(np.ones((1, 1, 3, 3))), padding="valid")
        assert out.data.shape == (1, 1, 3, 3)
        # interior of an all-ones image: full 3x3 window
        assert out.data[0, 0, 1, 1] == 9.0

    def test_conv2d_matches_direct_loop(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(w), padding="valid").data
        ref = np.zeros((1, 3, 3, 3))
        for o in range(3):
            for i in range(3):
                for j in range(3):
                    ref[0, o, i, j] = np.sum(x[0, :, i : i + 3, j : j + 3] * w[o])
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_conv2d_bad_padding(self):
        with pytest.raises(ConfigError):
            T.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))), padding="full")

    def test_segment_sum(self):
        out = T.segment_sum(Tensor([1.0, 2.0, 3.0, 4.0]), np.array([0, 1, 0, 1]), 2)
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_segment_sum_rejects_bad_ids(self):
        with pytest.raises(ContractError):
            T.segment_sum(Tensor([1.0, 2.0]), np.array([0, 5]), 2)

    def test_concat(self):
        out = T.concat([Tensor([1.0, 2.0]), Tensor([3.0])])
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])


class TestBackward:
    def test_grad_of_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = T.reduce_sum(T.square(x))
            grads = tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(grads, x), [2.0, 4.0])

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        with Tape() as tape:
            loss = T.reduce_sum(T.relu(x))
            grads = tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(grads, x), [0.0])

    def test_sigmoid_grad_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(T.sigmoid(x))
        np.testing.assert_allclose(tape.grad(grads, x), 0.25, atol=1e-15)

    def test_broadcast_add_accumulates(self):
        # bias broadcast over a batch of 3 rows: gradient sums over the batch
        b = Tensor([0.0, 0.0], requires_grad=True)
        x = Tensor(np.ones((3, 2)))
        with Tape() as tape:
            grads = tape.backward(T.reduce_sum(T.add(x, b)))
        np.testing.assert_array_equal(tape.grad(grads, b), [3.0, 3.0])

    def test_fan_out_accumulates(self):
        # x used twice: d/dx (x*x + x) = 2x + 1
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = T.reduce_sum(T.add(T.multiply(x, x), x))
            grads = tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(grads, x), [7.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.square(x)
            with pytest.raises(ContractError):
                tape.backward(y)

    def test_off_tape_loss_rejected(self):
        x = Tensor(1.0, requires_grad=True)
        with Tape():
            loss = T.square(x)
        with Tape() as other:
            with pytest.raises(ContractError):
                other.backward(loss)

    def test_backward_is_repeatable_bit_for_bit(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        with Tape() as tape:
            loss = T.reduce_sum(T.square(T.matmul(x, w)))
            g1 = tape.backward(loss)
            g2 = tape.backward(loss)
        for nid in g1:
            assert np.array_equal(g1[nid].data, g2[nid].data)

    def test_backward_returns_leaf_gradients_only(self):
        rng = np.random.default_rng(5)
        xv, wv = rng.normal(size=(4, 5)), rng.normal(size=(5, 3))
        x, w = Tensor(xv, requires_grad=True), Tensor(wv, requires_grad=True)
        with Tape() as tape:
            y = T.matmul(x, w)
            loss = T.reduce_sum(T.square(y))
            grads = tape.backward(loss)
        assert set(grads) == {x.node_id, w.node_id}
        assert tape.grad(grads, y) is None
        gy = np.full(y.shape, 1.0) * (2.0 * (xv @ wv))
        assert tape.grad(grads, x).tobytes() == (gy @ wv.T).tobytes()
        assert tape.grad(grads, w).tobytes() == (xv.T @ gy).tobytes()

    def test_backward_holds_only_live_cotangents(self):
        # each op's cotangent is dropped once used, so the pass over a long
        # chain holds about two arrays however long the chain is
        n = 10**6
        x = Tensor(np.ones(n), requires_grad=True)
        with Tape() as tape:
            y = x
            for _ in range(20):
                y = T.scalar_multiply(y, 1.0)
            loss = T.reduce_sum(y)
            del y
            gc.collect()
            tracemalloc.start()
            try:
                grads = tape.backward(loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert tape.grad(grads, x).tobytes() == np.ones(n).tobytes()
        assert peak < 3 * x.data.nbytes

    def test_parameter_does_not_keep_its_tape_alive(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(T.reduce_sum(T.square(w)))
        np.testing.assert_array_equal(tape.grad(grads, w), [2.0, 4.0])
        ref = weakref.ref(tape)
        del tape, grads
        assert ref() is None
        with Tape() as tape:
            grads = tape.backward(T.reduce_sum(w))
        np.testing.assert_array_equal(tape.grad(grads, w), [1.0, 1.0])

    def test_backward_linearity(self):
        # grad of (f + g) equals grad f + grad g, computed on separate tapes
        rng = np.random.default_rng(11)
        xv = rng.normal(size=6)

        def run(f):
            x = Tensor(xv.copy(), requires_grad=True)
            with Tape() as tape:
                grads = tape.backward(f(x))
            return tape.grad(grads, x)

        f = lambda x: T.reduce_sum(T.square(x))
        g = lambda x: T.reduce_sum(T.sigmoid(x))
        both = lambda x: T.add(T.reduce_sum(T.square(x)), T.reduce_sum(T.sigmoid(x)))
        np.testing.assert_allclose(run(both), run(f) + run(g), atol=1e-12)

    def test_no_tape_no_tracking(self):
        x = Tensor([1.0], requires_grad=True)
        y = T.square(x)
        assert y._tape is None

    def test_grad_for_untouched_tensor_is_none(self):
        x = Tensor(1.0, requires_grad=True)
        z = Tensor(1.0, requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(T.square(x))
        assert tape.grad(grads, z) is None

    def test_softmax_ce_grad_is_softmax_minus_onehot(self):
        z = Tensor([[1.0, 0.0]], requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(T.softmax_cross_entropy(z, np.array([0])))
        p = np.exp([1.0, 0.0]) / np.exp([1.0, 0.0]).sum()
        np.testing.assert_allclose(tape.grad(grads, z), [p - [1.0, 0.0]], atol=1e-12)

    def test_linear_matches_matmul_of_transpose(self):
        rng = np.random.default_rng(11)
        xv, wv = rng.normal(size=(128, 300)), rng.normal(size=(64, 300))
        g = rng.normal(size=(128, 64))

        def run(op):
            x, w = Tensor(xv, requires_grad=True), Tensor(wv, requires_grad=True)
            with Tape() as tape:
                out = op(x, w)
                grads = tape.backward(T.reduce_sum(T.multiply(out, Tensor(g))))
            return out.data, tape.grad(grads, x), tape.grad(grads, w)

        out, gx, gw = run(T.linear)
        ref_out, ref_gx, ref_gw = run(lambda x, w: T.matmul(x, T.transpose(w)))
        assert out.tobytes() == ref_out.tobytes()
        assert gx.tobytes() == ref_gx.tobytes()
        np.testing.assert_allclose(gw, ref_gw, rtol=1e-12, atol=1e-12)
        assert gw.flags.c_contiguous and not ref_gw.flags.c_contiguous


class TestFiniteDifference:
    def test_matmul_oracle(self):
        rng = np.random.default_rng(42)
        b = rng.uniform(-2, 2, size=(4, 2))
        x = Tensor(rng.uniform(-2, 2, size=(3, 4)))
        err = finite_difference_check(lambda t: T.reduce_sum(T.square(T.matmul(t, Tensor(b)))), x)
        assert err < 1e-6

    @pytest.mark.parametrize(
        "name,make",
        [
            ("add", lambda b: lambda x: T.reduce_sum(T.square(T.add(x, Tensor(b))))),
            ("subtract", lambda b: lambda x: T.reduce_sum(T.square(T.subtract(x, Tensor(b))))),
            ("multiply", lambda b: lambda x: T.reduce_sum(T.square(T.multiply(x, Tensor(b))))),
            ("scalar-multiply", lambda b: lambda x: T.reduce_sum(T.square(T.scalar_multiply(x, 1.7)))),
            ("matmul", lambda b: lambda x: T.reduce_sum(T.square(T.matmul(x, Tensor(b.reshape(5, 2)[:, :2]))))),
            ("transpose", lambda b: lambda x: T.reduce_sum(T.square(T.transpose(x)))),
            ("sigmoid", lambda b: lambda x: T.reduce_sum(T.sigmoid(x))),
            ("square", lambda b: lambda x: T.reduce_sum(T.square(x))),
            ("mean", lambda b: lambda x: T.square(T.reduce_mean(x))),
            ("reshape", lambda b: lambda x: T.reduce_sum(T.square(T.reshape(x, (-1,) if x.data.ndim == 1 else (x.size,)))),),
        ],
    )
    def test_elementwise_and_linear_ops(self, name, make):
        rng = np.random.default_rng(abs(hash(name)) % 2**32)
        for trial in range(10):
            if name in ("matmul", "transpose"):
                shape = (4, 5) if name == "transpose" else (3, 5)
                b = rng.uniform(-2, 2, size=10)
            else:
                shape = (6,)
                b = rng.uniform(-2, 2, size=shape)
            x = Tensor(rng.uniform(-2, 2, size=shape))
            assert finite_difference_check(make(b), x) < 1e-4, f"{name} trial {trial}"

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=8)
            x[np.abs(x) < 1e-3] = 0.5  # keep fd probes off the kink
            err = finite_difference_check(lambda t: T.reduce_sum(T.square(T.relu(t))), Tensor(x))
            assert err < 1e-4

    def test_sqrt_positive_domain(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = Tensor(rng.uniform(0.5, 2, size=7))
            assert finite_difference_check(lambda t: T.reduce_sum(T.sqrt(t)), x) < 1e-4

    def test_linear_both_arguments(self):
        rng = np.random.default_rng(7)
        xv = rng.uniform(-2, 2, size=(3, 5))
        wv = rng.uniform(-2, 2, size=(4, 5))
        err_x = finite_difference_check(lambda t: T.reduce_sum(T.square(T.linear(t, Tensor(wv)))), Tensor(xv.copy()))
        err_w = finite_difference_check(lambda t: T.reduce_sum(T.square(T.linear(Tensor(xv), t))), Tensor(wv.copy()))
        assert err_x < 1e-4 and err_w < 1e-4

    def test_conv2d_both_arguments(self):
        rng = np.random.default_rng(8)
        xv = rng.uniform(-2, 2, size=(2, 2, 5, 5))
        wv = rng.uniform(-2, 2, size=(3, 2, 3, 3))
        err_x = finite_difference_check(
            lambda t: T.reduce_sum(T.square(T.conv2d(t, Tensor(wv), padding="same"))), Tensor(xv.copy())
        )
        err_w = finite_difference_check(
            lambda t: T.reduce_sum(T.square(T.conv2d(Tensor(xv), t, padding="same"))), Tensor(wv.copy())
        )
        assert err_x < 1e-4 and err_w < 1e-4

    def test_max_pool(self):
        rng = np.random.default_rng(9)
        # distinct entries so the argmax is stable under the fd perturbation
        x = rng.permutation(16).astype(float).reshape(1, 1, 4, 4)
        err = finite_difference_check(lambda t: T.reduce_sum(T.square(T.max_pool2x2(t))), Tensor(x))
        assert err < 1e-4

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            z = rng.uniform(-2, 2, size=(4, 3))
            y = rng.integers(0, 3, size=4)
            err = finite_difference_check(lambda t: T.softmax_cross_entropy(t, y), Tensor(z.copy()))
            assert err < 1e-4

    def test_segment_sum_grad(self):
        rng = np.random.default_rng(12)
        ids = np.array([0, 1, 1, 2, 0, 2])
        x = Tensor(rng.uniform(-2, 2, size=6))
        err = finite_difference_check(
            lambda t: T.reduce_sum(T.square(T.segment_sum(t, ids, 3))), x
        )
        assert err < 1e-4

    def test_hard_threshold_reports_mismatch(self):
        # a step function has zero analytic gradient but nonzero fd slope when
        # a probe straddles the jump; the check must surface that, not crash
        def step(t: Tensor) -> Tensor:
            return Tensor((t.data > 0.5).astype(float).sum())

        err = finite_difference_check(step, Tensor([0.5 + 1e-6]))
        assert err > 1.0
