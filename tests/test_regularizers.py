import math

import numpy as np
import pytest

import _reference as ref
from modnet import regularizers as R
from modnet import tensor as T
from modnet.errors import ConfigError, ContractError
from modnet.regularizers import GroupSpec, RegWeights
from modnet.tensor import Tensor, finite_difference_check


def s1_brute(flat, groups):
    total = 0.0
    for g in groups:
        s = 0.0
        for i in g:
            s += flat[i]
        total += s * s
    return total


def s2_brute(flat, groups, eps=R.EPS):
    total = 0.0
    for g in groups:
        s = 0.0
        for i in g:
            s += flat[i] ** 2
        total += math.sqrt(eps + s)
    return total


def single_spec(probs, groups, layer_id="l0"):
    listed = ref.ListGroupSpec(layer_id, groups)
    spec = GroupSpec(layer_id, listed.group_ids, listed.num_groups)
    return {layer_id: Tensor(np.asarray(probs, dtype=float))}, {layer_id: spec}


class TestClosedForms:
    def test_specialization_two_groups(self):
        # groups {0.5, 0.5} and {1.0, 0.0}: (1.0)^2 + (1.0)^2
        probs, specs = single_spec([0.5, 0.5, 1.0, 0.0], [[0, 1], [2, 3]])
        out = R.specialization_penalty(probs, specs)
        np.testing.assert_allclose(out.item(), 2.0, atol=1e-12)

    def test_reuse_pythagorean_group(self):
        probs, specs = single_spec([0.6, 0.8], [[0, 1]])
        out = R.reuse_penalty(probs, specs)
        np.testing.assert_allclose(out.item(), 1.0, atol=1e-6)

    def test_weighted_total(self):
        # S1 = 1.96, S2 = 1.0, alpha=1, beta=2
        probs, specs = single_spec([0.6, 0.8], [[0, 1]])
        out = R.total_mask_regularizer(probs, specs, RegWeights(alpha=1.0, beta=2.0))
        np.testing.assert_allclose(out.item(), 3.96, atol=1e-6)

    def test_uniform_group_scaling(self):
        # constant p over a group of M entries: S1 = (M p)^2, S2 = p sqrt(M)
        for m in (1, 4, 9):
            p = 0.3
            probs, specs = single_spec(np.full(m, p), [list(range(m))])
            np.testing.assert_allclose(R.specialization_penalty(probs, specs).item(), (m * p) ** 2, rtol=1e-12)
            np.testing.assert_allclose(R.reuse_penalty(probs, specs).item(), p * math.sqrt(m), rtol=1e-6)

    def test_all_zero_probs(self):
        probs, specs = single_spec([0.0, 0.0, 0.0], [[0, 1], [2]])
        assert R.specialization_penalty(probs, specs).item() == 0.0
        np.testing.assert_allclose(R.reuse_penalty(probs, specs).item(), 2 * math.sqrt(R.EPS), rtol=1e-9)

    def test_disabled_weights_short_circuit(self):
        probs, specs = single_spec([0.25, 0.75], [[0], [1]])
        assert R.total_mask_regularizer(probs, specs, RegWeights()).item() == 0.0


class TestBruteForceOracle:
    def test_random_partitions_match(self):
        rng = np.random.default_rng(2024)
        for case in range(100):
            n = int(rng.integers(2, 40))
            num_groups = int(rng.integers(1, n + 1))
            perm = rng.permutation(n)
            cuts = np.sort(rng.choice(np.arange(1, n), size=num_groups - 1, replace=False)) if num_groups > 1 else []
            groups = [g for g in np.split(perm, cuts)]
            flat = rng.uniform(0, 1, size=n)
            probs, specs = single_spec(flat, groups)
            np.testing.assert_allclose(
                R.specialization_penalty(probs, specs).item(), s1_brute(flat, groups),
                rtol=1e-12, atol=1e-12, err_msg=f"case {case} S1",
            )
            np.testing.assert_allclose(
                R.reuse_penalty(probs, specs).item(), s2_brute(flat, groups),
                rtol=1e-12, atol=1e-12, err_msg=f"case {case} S2",
            )

    def test_conv_grouping_matches(self):
        rng = np.random.default_rng(7)
        for case in range(20):
            o, c, k = (int(rng.integers(1, 5)) for _ in range(3))
            spec = R.build_group_spec_conv(o, c, k, k, "conv")
            flat = rng.uniform(0, 1, size=o * c * k * k)
            probs = {"conv": Tensor(flat.reshape(o, c, k, k))}
            np.testing.assert_allclose(
                R.specialization_penalty(probs, {"conv": spec}).item(),
                s1_brute(flat, ref.groups_of(spec)), rtol=1e-12, atol=1e-12,
            )
            np.testing.assert_allclose(
                R.reuse_penalty(probs, {"conv": spec}).item(),
                s2_brute(flat, ref.groups_of(spec)), rtol=1e-12, atol=1e-12,
            )

    def test_multi_layer_sums(self):
        rng = np.random.default_rng(44)
        d_spec = R.build_group_spec_dense(3, 4, "dense")
        c_spec = R.build_group_spec_conv(2, 3, 2, 2, "conv")
        d_flat = rng.uniform(0, 1, size=12)
        c_flat = rng.uniform(0, 1, size=24)
        probs = {"dense": Tensor(d_flat.reshape(3, 4)), "conv": Tensor(c_flat.reshape(2, 3, 2, 2))}
        specs = {"dense": d_spec, "conv": c_spec}
        expect = s1_brute(d_flat, ref.groups_of(d_spec)) + s1_brute(c_flat, ref.groups_of(c_spec))
        np.testing.assert_allclose(R.specialization_penalty(probs, specs).item(), expect, rtol=1e-12)


class TestStructure:
    def test_dense_groups_are_columns(self):
        spec = R.build_group_spec_dense(2, 3)
        assert spec.num_groups == 3
        np.testing.assert_array_equal(ref.groups_of(spec)[0], [0, 3])
        np.testing.assert_array_equal(ref.groups_of(spec)[2], [2, 5])

    def test_conv_groups_are_input_channels(self):
        spec = R.build_group_spec_conv(4, 2, 3, 3)
        assert spec.num_groups == 2
        assert all(len(g) == 4 * 9 for g in ref.groups_of(spec))
        # channel 0 of an (O, C, 3, 3) kernel: first 9 flat entries of each o
        assert 0 in ref.groups_of(spec)[0] and 9 in ref.groups_of(spec)[1]

    def test_block_groups(self):
        spec = R.build_group_spec_dense_blocks(2, 6, 3)
        assert spec.num_groups == 3 and all(len(g) == 4 for g in ref.groups_of(spec))
        with pytest.raises(ContractError):
            R.build_group_spec_dense_blocks(2, 6, 4)

    def test_dense_shape_marks_column_groups_only(self):
        assert R.build_group_spec_dense(2, 3).dense_shape == (2, 3)
        assert R.build_group_spec_dense(1, 7).dense_shape == (1, 7)
        assert R.build_group_spec_conv(4, 2, 1, 1).dense_shape == (4, 2)  # a 1x1 kernel's groups are columns
        assert R.build_group_spec_conv(4, 2, 3, 3).dense_shape is None
        assert R.build_group_spec_dense_blocks(2, 6, 3).dense_shape is None
        # ids 0, 1, 0, 1, 0 repeat like columns but fill no whole last row
        assert GroupSpec("l0", np.array([0, 1, 0, 1, 0]), 2).dense_shape is None

    def test_partition_validation(self):
        # one id per entry partitions the entries by construction; what can
        # be wrong is the id array itself
        for ids, k in (
            (np.array([0, 2]), 2),  # id out of range
            (np.array([0, -1]), 2),  # negative id
            (np.array([], dtype=np.intp), 1),  # no entries
            (np.array([[0, 1]]), 2),  # not 1-D
            (np.array([0.0, 1.0]), 2),  # not integers
            (np.array([True, False]), 2),  # not integers
            (np.array([0, 0]), 0),  # no groups
        ):
            with pytest.raises(ContractError):
                GroupSpec("bad", ids, k)
        assert GroupSpec("ok", np.array([0, 0], dtype=np.uint8), 2).group_ids.dtype == np.intp

    def test_size_mismatch_rejected(self):
        probs, specs = single_spec([0.1, 0.2], [[0, 1]])
        probs["l0"] = Tensor([0.1, 0.2, 0.3])
        with pytest.raises(ContractError):
            R.specialization_penalty(probs, specs)

    def test_missing_layer_rejected(self):
        _, specs = single_spec([0.1], [[0]])
        with pytest.raises(ContractError):
            R.reuse_penalty({}, specs)

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            RegWeights(alpha=-0.1)


class TestProperties:
    def test_permutation_invariance_within_group(self):
        rng = np.random.default_rng(10)
        flat = rng.uniform(0, 1, size=6)
        probs_a, specs = single_spec(flat, [[0, 1, 2], [3, 4, 5]])
        shuffled = flat[[2, 0, 1, 5, 3, 4]]
        probs_b, _ = single_spec(shuffled, [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_allclose(
            R.specialization_penalty(probs_a, specs).item(),
            R.specialization_penalty(probs_b, specs).item(), rtol=1e-12,
        )
        np.testing.assert_allclose(
            R.reuse_penalty(probs_a, specs).item(),
            R.reuse_penalty(probs_b, specs).item(), rtol=1e-12,
        )

    def test_monotone_in_each_probability(self):
        flat = np.array([0.2, 0.4, 0.1, 0.6])
        groups = [[0, 2], [1, 3]]
        probs, specs = single_spec(flat, groups)
        s1_0 = R.specialization_penalty(probs, specs).item()
        s2_0 = R.reuse_penalty(probs, specs).item()
        for i in range(4):
            bumped = flat.copy()
            bumped[i] += 0.05
            probs_b, _ = single_spec(bumped, groups)
            assert R.specialization_penalty(probs_b, specs).item() > s1_0
            assert R.reuse_penalty(probs_b, specs).item() > s2_0

    def test_splitting_mass_lowers_specialization(self):
        # same total mass, spread across two groups instead of one
        concentrated, specs = single_spec([0.8, 0.0], [[0], [1]])
        spread, _ = single_spec([0.4, 0.4], [[0], [1]])
        assert (
            R.specialization_penalty(spread, specs).item()
            < R.specialization_penalty(concentrated, specs).item()
        )

    def test_gradient_through_sigmoid(self):
        rng = np.random.default_rng(31)
        spec = R.build_group_spec_dense(3, 4, "l")

        def f(logits: Tensor) -> Tensor:
            probs = {"l": T.sigmoid(logits)}
            return R.total_mask_regularizer(probs, {"l": spec}, RegWeights(alpha=0.7, beta=1.3))

        x = Tensor(rng.uniform(-2, 2, size=(3, 4)))
        assert finite_difference_check(f, x) < 1e-4


def assert_same_spec(new, old):
    assert new.group_ids.dtype == old.group_ids.dtype
    assert new.group_ids.tobytes() == old.group_ids.tobytes()
    assert (new.layer_id, new.dense_shape, new.num_entries, new.num_groups) == (
        old.layer_id, old.dense_shape, old.num_entries, old.num_groups)


class TestBuildersMatchListOfGroups:
    """The builders' id arrays against the one-index-array-per-group
    construction they replaced."""

    @pytest.mark.parametrize("out_dim, in_dim", [(3, 5), (1, 7), (6, 1), (1, 1), (256, 1568)])
    def test_dense(self, out_dim, in_dim):
        assert_same_spec(R.build_group_spec_dense(out_dim, in_dim, "l"), ref.list_spec_dense(out_dim, in_dim, "l"))

    @pytest.mark.parametrize("out_dim, in_dim, blocks", [
        (2, 6, 3), (1, 6, 3), (4, 5, 5), (3, 4, 1), (5, 1, 1), (1, 1, 1), (128, 1568, 32),
    ])
    def test_dense_blocks(self, out_dim, in_dim, blocks):
        assert_same_spec(R.build_group_spec_dense_blocks(out_dim, in_dim, blocks, "l"),
                         ref.list_spec_dense_blocks(out_dim, in_dim, blocks, "l"))

    @pytest.mark.parametrize("o, c, kh, kw", [
        (4, 2, 3, 3), (1, 3, 3, 3), (4, 1, 3, 3), (4, 2, 1, 1), (1, 1, 1, 1), (2, 3, 2, 3), (32, 16, 3, 3),
    ])
    def test_conv(self, o, c, kh, kw):
        assert_same_spec(R.build_group_spec_conv(o, c, kh, kw, "l"), ref.list_spec_conv(o, c, kh, kw, "l"))


class TestColumnSums:
    """A dense spec's penalties sum columns; they give the bytes that
    segment_sum's bincount gives for the same groups."""

    @pytest.mark.parametrize("shape", [(256, 1568), (2, 256), (1, 7), (300, 1)])
    def test_values_and_logit_gradients_match_bincount(self, shape, monkeypatch):
        rng = np.random.default_rng(shape[0] * shape[1])
        logits = rng.normal(0.0, 4.0, size=shape)
        spec = R.build_group_spec_dense(*shape, layer_id="l0")
        assert spec.dense_shape == shape

        def run(penalty):
            l = Tensor(logits, requires_grad=True)
            with T.Tape() as tape:
                value = penalty({"l0": T.sigmoid(l)}, {"l0": spec})
                grads = tape.backward(value)
            return value.data, tape.grad(grads, l)

        for penalty in (R.specialization_penalty, R.reuse_penalty):
            got = run(penalty)
            with monkeypatch.context() as mp:
                mp.setattr(R, "_grouped", ref.grouped)
                mp.setattr(T, "segment_sum", ref.segment_sum)
                want = run(penalty)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
