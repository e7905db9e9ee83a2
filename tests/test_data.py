import gzip
import struct

import numpy as np
import pytest

from modnet import data as D
from modnet.errors import ConfigError, ContractError, DataError, FormatError


def idx_images(arr: np.ndarray) -> bytes:
    n, h, w = arr.shape
    return struct.pack(">iiii", D.IDX_MAGIC_IMAGES, n, h, w) + arr.astype(np.uint8).tobytes()


def idx_labels(arr: np.ndarray) -> bytes:
    return struct.pack(">ii", D.IDX_MAGIC_LABELS, len(arr)) + arr.astype(np.uint8).tobytes()


def fake_mnist(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return D.MnistSet(
        images=rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8),
        labels=rng.integers(0, 10, size=n, dtype=np.uint8),
    )


class TestIdx:
    def test_parses_two_images(self):
        arr = np.arange(2 * 28 * 28, dtype=np.uint8).reshape(2, 28, 28)
        out = D.parse_idx(idx_images(arr))
        assert out.shape == (2, 28, 28)
        np.testing.assert_array_equal(out, arr)

    def test_parses_labels(self):
        out = D.parse_idx(idx_labels(np.array([3, 1, 4])))
        np.testing.assert_array_equal(out, [3, 1, 4])

    def test_rejects_wrong_magic(self):
        blob = struct.pack(">ii", 0x00000802, 3) + b"\x00" * 3
        with pytest.raises(FormatError, match="magic"):
            D.parse_idx(blob)

    def test_rejects_short_payload_with_counts(self):
        arr = np.zeros((2, 28, 28), dtype=np.uint8)
        blob = idx_images(arr)[:-1]
        with pytest.raises(FormatError, match="1567.*1568"):
            D.parse_idx(blob)

    def test_rejects_trailing_garbage(self):
        blob = idx_labels(np.array([1, 2])) + b"\x07"
        with pytest.raises(FormatError):
            D.parse_idx(blob)

    def test_load_pair_with_gzip(self, tmp_path):
        ms = fake_mnist(5)
        ip = tmp_path / "images.idx.gz"
        lp = tmp_path / "labels.idx"
        ip.write_bytes(gzip.compress(idx_images(ms.images)))
        lp.write_bytes(idx_labels(ms.labels))
        loaded = D.load_mnist_set(ip, lp)
        np.testing.assert_array_equal(loaded.images, ms.images)
        np.testing.assert_array_equal(loaded.labels, ms.labels)

    def test_count_mismatch_rejected(self):
        with pytest.raises(DataError):
            D.MnistSet(images=np.zeros((3, 28, 28), dtype=np.uint8), labels=np.zeros(2, dtype=np.uint8))


class TestColored:
    def test_degenerate_probabilities(self):
        base = fake_mnist(200)
        (env,) = D.build_colored_mnist(base, [("e", 0.0)], label_noise=0.0, seed=1)
        want = (base.labels[:200] >= 5).astype(int)
        np.testing.assert_array_equal(env.labels, want)
        # color equals the label: digit pixels sit in channel y
        picked = env.inputs[np.arange(len(env)), env.labels]
        np.testing.assert_allclose(picked, base.images[:200] / 255.0)

    def test_color_label_agreement_rate(self):
        base = fake_mnist(10_000, seed=3)
        (env,) = D.build_colored_mnist(base, [("e", 0.1)], label_noise=0.25, seed=7)
        color = np.argmax(np.asarray(env.inputs).sum(axis=(2, 3)), axis=1)
        agree = float((color == env.labels).mean())
        assert abs(agree - 0.9) < 0.02

    def test_high_flip_reverses_correlation(self):
        base = fake_mnist(10_000, seed=4)
        (env,) = D.build_colored_mnist(base, [("t", 0.9)], label_noise=0.25, seed=8)
        color = np.argmax(np.asarray(env.inputs).sum(axis=(2, 3)), axis=1)
        agree = float((color == env.labels).mean())
        assert abs(agree - 0.1) < 0.02

    def test_exactly_one_channel_holds_pixels(self):
        base = fake_mnist(50, seed=5)
        (env,) = D.build_colored_mnist(base, [("e", 0.5)], seed=9)
        occupied = (np.asarray(env.inputs).sum(axis=(2, 3)) > 0).sum(axis=1)
        # random uint8 images are never all-zero, so exactly one channel fires
        assert np.all(occupied == 1)

    def test_environments_use_disjoint_slices(self):
        base = fake_mnist(100, seed=6)
        envs = D.build_colored_mnist(base, [("a", 0.1), ("b", 0.2)], seed=10)
        assert [len(e) for e in envs] == [50, 50]
        assert envs[0].provenance["base_slice"] == [0, 50]
        assert envs[1].provenance["base_slice"] == [50, 100]

    def test_deterministic_given_seed(self):
        base = fake_mnist(80, seed=7)
        a = D.build_colored_mnist(base, [("e", 0.2)], seed=11)[0]
        b = D.build_colored_mnist(base, [("e", 0.2)], seed=11)[0]
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = D.build_colored_mnist(base, [("e", 0.2)], seed=12)[0]
        assert not np.array_equal(a.labels, c.labels)

    def test_bad_probability_rejected(self):
        base = fake_mnist(10)
        with pytest.raises(ConfigError):
            D.build_colored_mnist(base, [("e", 1.5)])
        with pytest.raises(ConfigError):
            D.build_colored_mnist(base, [("e", 0.1)], label_noise=-0.1)

    def test_empty_base_rejected(self):
        empty = D.MnistSet(
            images=np.zeros((0, 28, 28), dtype=np.uint8), labels=np.zeros(0, dtype=np.uint8)
        )
        with pytest.raises(DataError):
            D.build_colored_mnist(empty, [("e", 0.1)])


class TestRotation:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(0)
        img = rng.random((28, 28))
        np.testing.assert_array_equal(D.rotate_image(img, 0.0), img)

    def test_nearest_quarter_turn_matches_hand_computation(self):
        img = np.array([[1.0, 2, 3], [4, 5, 6], [7, 8, 9]])
        out = D.rotate_image(img, 90.0, method="nearest")
        np.testing.assert_array_equal(out, [[3, 6, 9], [2, 5, 8], [1, 4, 7]])
        np.testing.assert_array_equal(out, np.rot90(img))

    def test_bilinear_full_turn(self):
        rng = np.random.default_rng(1)
        img = rng.random((28, 28))
        out = D.rotate_image(img, 360.0)
        assert np.max(np.abs(out - img)) < 1e-9

    def test_mass_preserved_for_centered_blob(self):
        # a centered blob clears the borders at every angle we train on
        r, c = np.meshgrid(np.arange(28), np.arange(28), indexing="ij")
        blob = np.exp(-((r - 13.5) ** 2 + (c - 13.5) ** 2) / 18.0)
        for angle in (15, 30, 45, 60, 75):
            out = D.rotate_image(blob, angle)
            assert abs(out.sum() - blob.sum()) / blob.sum() < 0.02, f"angle {angle}"

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            D.rotate_image(np.zeros((4, 4)), 10.0, method="cubic")

    @pytest.mark.parametrize("method", ["bilinear", "nearest"])
    def test_stack_matches_per_image_bit_for_bit(self, method):
        stack = np.random.default_rng(2).random((3, 2, 28, 28))
        for angle in (15, 37.5, 75, 200):
            out = D.rotate_image(stack, angle, method)
            want = np.array([[D.rotate_image(im, angle, method) for im in group] for group in stack])
            assert out.shape == stack.shape
            assert out.tobytes() == want.tobytes()


def float_colored(base, envs, label_noise=0.25, seed=0):
    """Reference float64 colored inputs: float zeros plus a scatter of
    `images / 255.0`, with the builder's random draws in the builder's order."""
    rng = np.random.default_rng(seed)
    per = len(base) // len(envs)
    out = []
    for i, (_, flip_p) in enumerate(envs):
        sl = slice(i * per, (i + 1) * per)
        imgs = base.images[sl].astype(np.float64) / 255.0
        y = (base.labels[sl] >= 5).astype(np.int64)
        y = y ^ (rng.random(per) < label_noise).astype(np.int64)
        color = y ^ (rng.random(per) < flip_p).astype(np.int64)
        inputs = np.zeros((per, 2) + base.images.shape[1:])
        inputs[np.arange(per), color] = imgs
        out.append((inputs, y))
    return out


class TestPixelInputs:
    ENVS = [("a", 0.1), ("b", 0.9)]

    def built(self):
        base = fake_mnist(300, seed=12)
        return D.build_colored_mnist(base, self.ENVS, seed=5), float_colored(base, self.ENVS, seed=5)

    def test_rows_byte_equal_to_float_construction(self):
        envs, refs = self.built()
        for env, (ref, y) in zip(envs, refs):
            assert isinstance(env.inputs, D.PixelInputs)
            np.testing.assert_array_equal(env.labels, y)
            idx = np.array([149, 0, 7, 7, 80])
            for key in (slice(3, 40), slice(None), idx, 17, -1, (np.arange(len(env)), env.labels)):
                got, want = env.inputs[key], ref[key]
                assert got.dtype == np.float64 and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_whole_array_and_sizes(self):
        envs, refs = self.built()
        for env, (ref, _) in zip(envs, refs):
            n = len(env)
            arr = np.asarray(env.inputs)
            assert arr.dtype == np.float64 and arr.flags.c_contiguous
            assert arr.shape == env.inputs.shape == (n, 2, 28, 28)
            assert arr.tobytes() == ref.tobytes()
            assert env.inputs.ndim == 4 and env.inputs.dtype == np.float64
            assert env.inputs.nbytes == n * 2 * 28 * 28

    def test_batches_equal_float_construction(self):
        envs, refs = self.built()
        for env, (ref, y) in zip(envs, refs):
            plain = D.Environment(env.env_id, ref, y, "train")
            for epoch in (0, 1):
                got = list(D.batch_iter(env, 32, seed=3, epoch=epoch))
                want = list(D.batch_iter(plain, 32, seed=3, epoch=epoch))
                assert len(got) == len(want) == 5
                for a, b in zip(got, want):
                    assert a.inputs.tobytes() == b.inputs.tobytes()
                    np.testing.assert_array_equal(a.labels, b.labels)

    def test_array_protocol(self):
        pixels = np.arange(2 * 2 * 3 * 3, dtype=np.uint8).reshape(2, 2, 3, 3)
        view = D.PixelInputs(pixels)
        want = pixels.astype(np.float64) / 255.0
        for f32 in (view.__array__(np.float32), np.asarray(view, dtype=np.float32)):
            assert f32.dtype == np.float32
            np.testing.assert_array_equal(f32, want.astype(np.float32))
        np.testing.assert_array_equal(np.array(view), want)
        with pytest.raises(ValueError):
            view.__array__(copy=False)
        if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
            with pytest.raises(ValueError):
                np.asarray(view, copy=False)

    def test_read_only(self):
        pixels = np.zeros((1, 2, 2, 2), np.uint8)
        view = D.PixelInputs(pixels)
        with pytest.raises(TypeError):
            view[0] = 1.0
        with pytest.raises(ValueError):
            view.pixels[0] = 1
        pixels[0, 0, 0, 0] = 255  # the caller's array stays writable
        assert view[0, 0, 0, 0] == 1.0

    def test_rejects_non_uint8_or_wrong_rank(self):
        for bad in (np.zeros((2, 2, 3, 3)), np.zeros((2, 3, 3), np.uint8), [[[[0]]]]):
            with pytest.raises(DataError):
                D.PixelInputs(bad)


class TestEnvironment:
    def test_empty_rejected(self):
        for inputs in (np.zeros((0, 1, 1, 4)), D.PixelInputs(np.zeros((0, 2, 3, 3), np.uint8))):
            with pytest.raises(DataError, match="no samples"):
                D.Environment("e", inputs, np.zeros(0, np.int64), "train")

    def test_non_finite_rejected(self):
        x = np.zeros((3, 1, 1, 2))
        x[1, 0, 0, 1] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            D.Environment("e", x, np.zeros(3, np.int64), "train")


class TestRotatedEnvs:
    def test_partition_and_roles(self):
        base = fake_mnist(120, seed=8)
        envs = D.build_rotated_envs(base, angles=(0, 30, 60), test_angle=0, per_env_count=40, seed=2)
        assert [e.env_id for e in envs] == ["rot0", "rot30", "rot60"]
        assert [e.role for e in envs] == ["test", "train", "train"]
        assert all(len(e) == 40 for e in envs)

    def test_zero_angle_env_equals_base_subset(self):
        base = fake_mnist(60, seed=9)
        (env,) = D.build_rotated_envs(base, angles=(0,), test_angle=0, per_env_count=30, seed=3)
        perm = np.random.default_rng(3).permutation(60)[:30]
        np.testing.assert_allclose(env.inputs[:, 0], base.images[perm] / 255.0)
        np.testing.assert_array_equal(env.labels, base.labels[perm])

    def test_determinism(self):
        base = fake_mnist(100, seed=10)
        a = D.build_rotated_envs(base, angles=(15, 45), test_angle=45, per_env_count=20, seed=4)
        b = D.build_rotated_envs(base, angles=(15, 45), test_angle=45, per_env_count=20, seed=4)
        for ea, eb in zip(a, b):
            np.testing.assert_array_equal(ea.inputs, eb.inputs)

    def test_insufficient_examples(self):
        base = fake_mnist(50)
        with pytest.raises(DataError):
            D.build_rotated_envs(base, angles=(0, 15), test_angle=0, per_env_count=30)

    def test_test_angle_must_be_listed(self):
        base = fake_mnist(50)
        with pytest.raises(ConfigError):
            D.build_rotated_envs(base, angles=(0, 15), test_angle=90, per_env_count=10)


class TestBatchIter:
    def env(self, n=10, seed=0):
        rng = np.random.default_rng(seed)
        return D.Environment(
            env_id="e", inputs=rng.random((n, 1, 4, 4)), labels=np.arange(n), role="train"
        )

    def test_batch_sizes(self):
        sizes = [len(b.labels) for b in D.batch_iter(self.env(10), 4, seed=0, epoch=0)]
        assert sizes == [4, 4, 2]

    def test_same_key_same_order(self):
        a = [b.labels for b in D.batch_iter(self.env(), 4, seed=1, epoch=2)]
        b = [b.labels for b in D.batch_iter(self.env(), 4, seed=1, epoch=2)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_epoch_changes_order(self):
        a = np.concatenate([b.labels for b in D.batch_iter(self.env(50, 1), 10, seed=1, epoch=0)])
        b = np.concatenate([b.labels for b in D.batch_iter(self.env(50, 1), 10, seed=1, epoch=1)])
        assert not np.array_equal(a, b)

    def test_exact_cover(self):
        labels = np.concatenate([b.labels for b in D.batch_iter(self.env(23), 5, seed=3, epoch=0)])
        np.testing.assert_array_equal(np.sort(labels), np.arange(23))

    def test_bad_batch_size(self):
        with pytest.raises(ContractError):
            list(D.batch_iter(self.env(), 0, seed=0, epoch=0))
