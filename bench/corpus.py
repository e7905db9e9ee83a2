"""Synthetic seven-segment digit corpus, written as IDX files.

Benchmark input, not program work: the benchmark runs this in a process of
its own, before the measured session starts, so that its time and its peak
memory never show in the session's figures. Rendering is done in chunks of
CHUNK glyphs, which keeps this process near 150 MB even for 70k digits.

The corpus is a pure function of (n_train, n_test, seed):

    python3 bench/corpus.py --out DIR --train 10000 --test 5000 --seed 3

writes DIR/{train,test}-{images-idx3,labels-idx1}-ubyte. The directory
appears atomically (written under a temporary name, then renamed).
"""

from __future__ import annotations

import argparse
import os
import shutil
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

CHUNK = 5000
FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "test-images-idx3-ubyte",
    "test_labels": "test-labels-idx1-ubyte",
}

# segment endpoints as (row, col) on the 28x28 canvas:
# a top, b upper right, c lower right, d bottom, e lower left, f upper left, g middle
_SEGMENTS = {
    "a": ((5.0, 9.5), (5.0, 18.5)),
    "b": ((5.0, 18.5), (14.0, 18.5)),
    "c": ((14.0, 18.5), (23.0, 18.5)),
    "d": ((23.0, 9.5), (23.0, 18.5)),
    "e": ((14.0, 9.5), (23.0, 9.5)),
    "f": ((5.0, 9.5), (14.0, 9.5)),
    "g": ((14.0, 9.5), (14.0, 18.5)),
}
_DIGITS = ("abcdef", "bc", "abged", "abgcd", "fgbc", "afgcd", "afgecd", "abc", "abcdefg", "abcdfg")
_ENDS = [np.array([_SEGMENTS[s] for s in segs]) for segs in _DIGITS]
_CENTER = 13.5
_STROKE_POINTS = 30


def _blur(img: np.ndarray, weight: float) -> np.ndarray:
    out = img.copy()
    out[:, 1:, :] += weight * img[:, :-1, :]
    out[:, :-1, :] += weight * img[:, 1:, :]
    out[:, :, 1:] += weight * img[:, :, :-1]
    out[:, :, :-1] += weight * img[:, :, 1:]
    return out


def render(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(n, 28, 28) uint8 glyphs with per-sample rotation, slant, scale,
    shift and per-stroke endpoint wobble, then a blur and sparse specks."""
    n = len(labels)
    canvas = np.zeros(n * 784)
    angle = np.radians(rng.uniform(-28.0, 28.0, n))
    slant = rng.uniform(-0.18, 0.18, n)
    scale = rng.uniform(0.88, 1.1, n)
    shift = rng.uniform(-1.5, 1.5, (n, 2))
    t = np.linspace(0.0, 1.0, _STROKE_POINTS)[None, None, :]
    for digit in range(10):
        idx = np.flatnonzero(labels == digit)
        if idx.size == 0:
            continue
        ends = _ENDS[digit][None] + rng.normal(0.0, 0.7, (idx.size, *_ENDS[digit].shape))
        start, stop = ends[:, :, 0], ends[:, :, 1]
        r = (start[..., 0:1] + t * (stop[..., 0:1] - start[..., 0:1])).reshape(idx.size, -1) - _CENTER
        c = (start[..., 1:2] + t * (stop[..., 1:2] - start[..., 1:2])).reshape(idx.size, -1) - _CENTER
        c = c + slant[idx, None] * r
        cos, sin, s = np.cos(angle[idx])[:, None], np.sin(angle[idx])[:, None], scale[idx][:, None]
        rr = s * (cos * r - sin * c) + _CENTER + shift[idx, 0:1]
        cc = s * (sin * r + cos * c) + _CENTER + shift[idx, 1:2]
        r0, c0 = np.floor(rr).astype(np.int64), np.floor(cc).astype(np.int64)
        fr, fc = rr - r0, cc - c0
        base = idx[:, None] * 784
        for dr, dc, w in ((0, 0, (1 - fr) * (1 - fc)), (0, 1, (1 - fr) * fc),
                          (1, 0, fr * (1 - fc)), (1, 1, fr * fc)):
            pr, pc = r0 + dr, c0 + dc
            ok = (pr >= 0) & (pr < 28) & (pc >= 0) & (pc < 28)
            np.add.at(canvas, (base + pr * 28 + pc)[ok], 0.55 * w[ok])
    img = np.clip(canvas.reshape(n, 28, 28), 0.0, 1.0)
    img = _blur(img, 0.5)
    img = img + 0.22 * (_blur(img, 1.0) - img)
    speck = rng.random((n, 28, 28)) < 0.01
    img[speck] += rng.uniform(0.1, 0.4, int(speck.sum()))
    return (np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)


def make_split(n: int, seed: int, split: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels and glyphs for one split, rendered CHUNK at a time."""
    labels = np.random.default_rng([seed, split]).integers(0, 10, n).astype(np.uint8)
    images = np.empty((n, 28, 28), dtype=np.uint8)
    for k, start in enumerate(range(0, n, CHUNK)):
        rng = np.random.default_rng([seed, split, k + 1])
        images[start : start + CHUNK] = render(labels[start : start + CHUNK], rng)
    return images, labels


def _write_idx(path: Path, array: np.ndarray) -> None:
    if array.ndim == 3:
        header = struct.pack(">IIII", 0x00000803, *array.shape)
    else:
        header = struct.pack(">II", 0x00000801, len(array))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(array.tobytes())


def write_corpus(out: Path, n_train: int, n_test: int, seed: int) -> None:
    """Write the four IDX files into `out`, which must not exist yet."""
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=out.name + ".", dir=out.parent))
    try:
        for split, (n, prefix) in enumerate(((n_train, "train"), (n_test, "test"))):
            images, labels = make_split(n, seed, split)
            _write_idx(tmp / FILES[f"{prefix}_images"], images)
            _write_idx(tmp / FILES[f"{prefix}_labels"], labels)
        os.replace(tmp, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--train", required=True, type=int)
    p.add_argument("--test", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    args = p.parse_args(argv)
    if min(args.train, args.test) < 1 or args.seed < 0:
        p.error("sizes must be >= 1 and the seed >= 0")
    write_corpus(args.out, args.train, args.test, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
