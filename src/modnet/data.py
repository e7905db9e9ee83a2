"""MNIST ingestion and the two environment suites built from it.

Colored digits: a binary task where a color channel carries a spurious,
per-environment correlation with the (noisy) label. Rotated digits: the
10-class task replicated across rotation angles, holding one angle out.
Every construction is a pure function of (base data, parameters, seed).
"""

from __future__ import annotations

import gzip
import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DataError, FormatError

IDX_MAGIC_IMAGES = 0x00000803  # ubyte, 3 dims
IDX_MAGIC_LABELS = 0x00000801  # ubyte, 1 dim


@dataclass
class MnistSet:
    images: np.ndarray  # uint8 (count, 28, 28)
    labels: np.ndarray  # uint8 (count,)

    def __post_init__(self):
        if self.images.ndim != 3:
            raise DataError(f"images must be 3-D, got shape {self.images.shape}")
        if self.labels.ndim != 1 or len(self.labels) != len(self.images):
            raise DataError(
                f"{len(self.images)} images but {self.labels.shape} labels"
            )
        if self.labels.size and self.labels.max() > 9:
            raise DataError(f"labels must be digits 0-9, saw {int(self.labels.max())}")

    def __len__(self) -> int:
        return len(self.images)


class PixelInputs:
    """Read-only float64 rows over stored uint8 pixels of shape (N, C, H, W).

    Indexing with any numpy key returns `pixels[key] / 255.0`, built only for
    the rows asked for: the same IEEE division as
    `pixels.astype(np.float64) / 255.0`, so every row is byte-identical to a
    float64 store of the same pixels, at one eighth of its memory.
    """

    dtype = np.dtype(np.float64)

    def __init__(self, pixels: np.ndarray):
        if not isinstance(pixels, np.ndarray) or pixels.dtype != np.uint8 or pixels.ndim != 4:
            raise DataError(
                f"pixels must be a uint8 (N, C, H, W) array, got "
                f"{getattr(pixels, 'dtype', type(pixels).__name__)} {np.shape(pixels)}"
            )
        self.pixels = np.ascontiguousarray(pixels).view()
        self.pixels.flags.writeable = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.pixels.shape

    @property
    def ndim(self) -> int:
        return self.pixels.ndim

    @property
    def nbytes(self) -> int:
        """Bytes stored: one per pixel."""
        return self.pixels.nbytes

    def __len__(self) -> int:
        return len(self.pixels)

    def __getitem__(self, key) -> np.ndarray:
        return self.pixels[key] / 255.0

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("PixelInputs can only be converted to an array by copying")
        out = self.pixels / 255.0
        return out if dtype is None else out.astype(dtype, copy=False)


@dataclass
class Environment:
    env_id: str
    inputs: np.ndarray | PixelInputs  # float64 (count, C, H, W) rows, values in [0, 1]
    labels: np.ndarray  # int64 (count,)
    role: str  # "train" | "test"
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.inputs) == 0:
            raise DataError(f"{self.env_id}: no samples")
        # uint8 pixels are always finite
        if not isinstance(self.inputs, PixelInputs) and not np.all(np.isfinite(self.inputs)):
            raise DataError(f"{self.env_id}: non-finite input values")
        if len(self.labels) != len(self.inputs):
            raise DataError(f"{self.env_id}: {len(self.inputs)} inputs vs {len(self.labels)} labels")
        if self.role not in ("train", "test"):
            raise DataError(f"{self.env_id}: role must be 'train' or 'test', got {self.role!r}")

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass
class EnvironmentBatch:
    env_id: str
    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if len(self.inputs) == 0:
            raise DataError(f"{self.env_id}: empty batch")


def parse_idx(raw: bytes) -> np.ndarray:
    """Decode one IDX file: big-endian magic, dimension sizes, raw ubyte payload."""
    if len(raw) < 4:
        raise FormatError(f"IDX header truncated: {len(raw)} bytes")
    (magic,) = struct.unpack(">i", raw[:4])
    if magic == IDX_MAGIC_IMAGES:
        ndim = 3
    elif magic == IDX_MAGIC_LABELS:
        ndim = 1
    else:
        raise FormatError(f"bad IDX magic 0x{magic:08x}")
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise FormatError(f"IDX header truncated: {len(raw)} bytes, need {header}")
    dims = struct.unpack(f">{ndim}i", raw[4:header])
    if min(dims) < 0:
        raise FormatError(f"negative IDX dimension in {dims}")
    expected = int(np.prod(dims, dtype=np.int64))
    actual = len(raw) - header
    if actual != expected:
        raise FormatError(f"IDX payload is {actual} bytes, header promises {expected}")
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(dims)


def _read_maybe_gzip(path: str | Path) -> bytes:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        return gzip.decompress(raw)
    return raw


def load_mnist_set(images_path: str | Path, labels_path: str | Path) -> MnistSet:
    """Read an images/labels IDX file pair (plain or gzipped)."""
    images = parse_idx(_read_maybe_gzip(images_path))
    labels = parse_idx(_read_maybe_gzip(labels_path))
    if images.ndim != 3:
        raise FormatError(f"{images_path}: expected an image file, got {images.ndim} dims")
    if labels.ndim != 1:
        raise FormatError(f"{labels_path}: expected a label file, got {labels.ndim} dims")
    return MnistSet(images=images, labels=labels)


def build_colored_mnist(
    base: MnistSet,
    envs: Sequence[tuple[str, float]],
    label_noise: float = 0.25,
    seed: int = 0,
    role: str = "train",
) -> list[Environment]:
    """Split `base` into one slice per (env_id, color_flip_prob) entry.

    Per sample: binary label = [digit >= 5], flipped with prob label_noise;
    color bit = that label, flipped with the environment's prob. The digit's
    pixels land in the channel selected by the color bit; the other channel
    stays zero. The flip probability therefore IS the misalignment rate
    between color and final label. Inputs stay uint8 pixels behind a
    `PixelInputs` view and are read as float64 `pixel / 255` rows.
    """
    if len(base) == 0:
        raise DataError("empty base dataset")
    if not envs:
        raise ConfigError("need at least one environment")
    if not 0 <= label_noise <= 1:
        raise ConfigError(f"label_noise must be in [0,1], got {label_noise}")
    for env_id, p in envs:
        if not 0 <= p <= 1:
            raise ConfigError(f"{env_id}: color_flip_prob must be in [0,1], got {p}")
    per = len(base) // len(envs)
    if per == 0:
        raise DataError(f"{len(base)} examples cannot cover {len(envs)} environments")

    rng = np.random.default_rng(seed)
    h, w = base.images.shape[1:]
    out = []
    for i, (env_id, flip_p) in enumerate(envs):
        sl = slice(i * per, (i + 1) * per)
        digits = base.labels[sl]
        y = (digits >= 5).astype(np.int64)
        y = y ^ (rng.random(per) < label_noise).astype(np.int64)
        color = y ^ (rng.random(per) < flip_p).astype(np.int64)
        pixels = np.zeros((per, 2, h, w), np.uint8)
        pixels[np.arange(per), color] = base.images[sl]
        out.append(
            Environment(
                env_id=env_id,
                inputs=PixelInputs(pixels),
                labels=y,
                role=role,
                provenance={
                    "kind": "colored",
                    "color_flip_prob": flip_p,
                    "label_noise": label_noise,
                    "seed": seed,
                    "base_slice": [sl.start, sl.stop],
                },
            )
        )
    return out


def rotate_image(img: np.ndarray, angle_degrees: float, method: str = "bilinear") -> np.ndarray:
    """Rotate counter-clockwise about the image center; outside samples are 0.

    `img` is one (H, W) image or a (..., H, W) stack, which is rotated image
    by image on one sampling grid.
    """
    if img.ndim < 2:
        raise ContractError(f"rotate_image expects a (..., H, W) image stack, got shape {img.shape}")
    if method not in ("nearest", "bilinear"):
        raise ConfigError(f"rotation method must be 'nearest' or 'bilinear', got {method!r}")
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape[-2:]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    th = np.radians(angle_degrees)
    cos, sin = np.cos(th), np.sin(th)
    r_o, c_o = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    # display coords (x right, y up); inverse-rotate each output location
    x_o = c_o - cx
    y_o = cy - r_o
    x_i = x_o * cos + y_o * sin
    y_i = -x_o * sin + y_o * cos
    c_i = x_i + cx
    r_i = cy - y_i

    if method == "nearest":
        rr = np.rint(r_i).astype(np.int64)
        cc = np.rint(c_i).astype(np.int64)
        valid = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
        out = np.zeros_like(img)
        out[..., valid] = img[..., rr[valid], cc[valid]]
        return out

    r0 = np.floor(r_i).astype(np.int64)
    c0 = np.floor(c_i).astype(np.int64)
    fr = r_i - r0
    fc = c_i - c0

    def sample(rs, cs):
        valid = (rs >= 0) & (rs < h) & (cs >= 0) & (cs < w)
        vals = np.zeros_like(img)
        vals[..., valid] = img[..., rs[valid], cs[valid]]
        return vals

    out = (
        sample(r0, c0) * (1 - fr) * (1 - fc)
        + sample(r0, c0 + 1) * (1 - fr) * fc
        + sample(r0 + 1, c0) * fr * (1 - fc)
        + sample(r0 + 1, c0 + 1) * fr * fc
    )
    return out


def build_rotated_envs(
    base: MnistSet,
    angles: Sequence[float] = (0, 15, 30, 45, 60, 75),
    test_angle: float = 0,
    per_env_count: int = 1000,
    seed: int = 0,
    method: str = "bilinear",
) -> list[Environment]:
    """One environment per angle, each a disjoint random subset of `base`
    rotated in place. The test_angle environment gets role='test'."""
    if test_angle not in angles:
        raise ConfigError(f"test_angle {test_angle} is not among angles {tuple(angles)}")
    if per_env_count < 1:
        raise ConfigError(f"per_env_count must be >= 1, got {per_env_count}")
    needed = len(angles) * per_env_count
    if needed > len(base):
        raise DataError(f"need {needed} examples for {len(angles)} environments, have {len(base)}")
    perm = np.random.default_rng(seed).permutation(len(base))
    out = []
    for i, angle in enumerate(angles):
        idx = perm[i * per_env_count : (i + 1) * per_env_count]
        imgs = base.images[idx].astype(np.float64) / 255.0
        if angle != 0:
            rotated = rotate_image(imgs, angle, method)
        else:
            rotated = imgs
        out.append(
            Environment(
                env_id=f"rot{angle:g}",
                inputs=rotated[:, None, :, :],
                labels=base.labels[idx].astype(np.int64),
                role="test" if angle == test_angle else "train",
                provenance={"kind": "rotated", "angle": float(angle), "seed": seed, "method": method},
            )
        )
    return out


def batch_iter(
    env: Environment, batch_size: int, seed: int, epoch: int
) -> Iterator[EnvironmentBatch]:
    """Shuffled minibatches covering the environment exactly once.

    The permutation is keyed by (seed, epoch, env_id digest) so two same-size
    environments never share an order; the final short batch is kept.
    """
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    digest = int.from_bytes(hashlib.sha256(env.env_id.encode()).digest()[:4], "big")
    rng = np.random.default_rng([seed, epoch, digest])
    perm = rng.permutation(len(env))
    for start in range(0, len(env), batch_size):
        idx = perm[start : start + batch_size]
        yield EnvironmentBatch(env.env_id, env.inputs[idx], env.labels[idx])
