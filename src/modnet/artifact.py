"""Subnetwork artifacts: serialize a trained model's weights and extracted
masks, analyze the surviving structure, and render it as a graph.

Artifacts are a single line of compact JSON. Weights are stored unmasked next
to a separate bit array, so what was pruned stays inspectable. Python's JSON
float formatting round-trips doubles exactly, which keeps export -> load
lossless. Files are replaced atomically: a failed write leaves the previous
file as it was.
"""

from __future__ import annotations

import array
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, SizeLimitError
from .masking import MaskedParameter, extract_final_mask
from .models import ConvLayer, DenseLayer, Model, ModelConfig
from .tensor import Tensor

FORMAT_VERSION = 1


@contextmanager
def atomic_open(path: str | Path):
    """Open a text file that replaces `path` when the block exits cleanly.

    The text goes to a temporary file in the target's directory, which
    `os.replace` moves onto `path`; if the block raises, the temporary file
    is removed and `path` keeps its previous contents.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp makes 0600; give the mode open() would
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def export_subnetwork(model: Model, path: str | Path | None, meta: dict | None = None) -> dict:
    """Build the artifact document for `model` and write it to `path`.

    Pass path=None to skip the write and just get the document.
    """
    layers = []
    for layer in model.layers:
        p = layer.param
        rec = {
            "name": p.name,
            "kind": "conv" if isinstance(layer, ConvLayer) else "dense",
            "shape": list(p.weights.shape),
            "weights": p.weights.data.reshape(-1).tolist(),
            "mask": extract_final_mask(p).reshape(-1).tolist(),
            "bias": layer.bias.data.tolist(),
        }
        if isinstance(layer, ConvLayer):
            rec["pool"] = layer.pool
        else:
            rec["activation"] = layer.activation
        layers.append(rec)
    cfg = model.config
    artifact = {
        "format_version": FORMAT_VERSION,
        "arch": {
            "arch": cfg.arch,
            "input_shape": list(cfg.input_shape),
            "classes": cfg.classes,
            "hidden": list(cfg.hidden),
            "conv_channels": list(cfg.conv_channels),
            "conv_kernel": cfg.conv_kernel,
            "dense_hidden": cfg.dense_hidden,
        },
        "layers": layers,
        "meta": meta or {},
    }
    if path is not None:
        # a one-shot dumps runs the C encoder; json.dump and indent= do not
        text = json.dumps(artifact, separators=(",", ":"))
        with atomic_open(path) as fh:
            fh.write(text)
    return artifact


def _require(cond: bool, msg: str):
    if not cond:
        raise FormatError(msg)


class _Checked(dict):
    """A document that passed `validate_artifact`. `arrays` holds each
    layer's (weights, mask, bias) as the arrays the check made of them."""

    arrays: list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def _numbers(rec: dict, key: str, name: str) -> np.ndarray:
    """`rec[key]` as a float64 vector; every entry must be a JSON number."""
    values = rec.get(key)
    _require(isinstance(values, list), f"{name}: '{key}' must be a list")
    try:
        arr = np.frombuffer(array.array("d", values))  # raises on strings, null, lists, objects
    except (TypeError, OverflowError):
        raise FormatError(f"{name}: {key} entries must be numbers") from None
    # array("d") reads true and false as 1.0 and 0.0: only those entries can be booleans
    _require(not any(type(values[i]) is bool for i in np.flatnonzero((arr == 0) | (arr == 1))),
             f"{name}: {key} entries must be numbers")
    return arr


def _bits(rec: dict, name: str) -> np.ndarray:
    """`rec["mask"]` as a bool vector; accepts exactly the entries with
    `b in (0, 1)`: 0, 1, 0.0, 1.0, true and false."""
    bits = rec.get("mask")
    _require(isinstance(bits, list), f"{name}: 'mask' must be a list")
    try:
        arr = np.array(bits)
    except (ValueError, TypeError):  # nested lists of uneven shape
        arr = None
    # string and object arrays compare unequal to 0 and 1 entry by entry
    _require(arr is not None and arr.ndim == 1 and ((arr == 0) | (arr == 1)).all(), f"{name}: mask bits must be 0 or 1")
    return arr == 1


def validate_artifact(artifact: dict) -> dict:
    """Schema-check an artifact document.

    Returns a copy with defaults filled in that also carries the checked
    arrays; `model_from_artifact` and `analyze` build from those without
    checking again, so edit a document before validating it, not after.
    """
    _require(isinstance(artifact, dict), "artifact must be a JSON object")
    version = artifact.get("format_version")
    _require(version == FORMAT_VERSION, f"unsupported format_version {version!r}, expected {FORMAT_VERSION}")
    _require("arch" in artifact, "artifact missing 'arch'")
    _require(isinstance(artifact.get("layers"), list) and artifact["layers"], "artifact needs a nonempty 'layers' list")
    checked = _Checked(artifact)
    checked.setdefault("meta", {})
    checked.arrays = []
    for rec in checked["layers"]:
        _require(isinstance(rec, dict) and isinstance(rec.get("name"), str), "each layer needs a 'name' string")
        name = rec["name"]
        _require(rec.get("kind") in ("dense", "conv"), f"{name}: kind must be 'dense' or 'conv'")
        shape = rec.get("shape")
        _require(isinstance(shape, list) and all(isinstance(s, int) and s > 0 for s in shape),
                 f"{name}: bad shape {shape!r}")
        size = int(np.prod(shape))
        weights = _numbers(rec, "weights", name)
        _require(weights.size == size, f"{name}: expected {size} weights, got {weights.size}")
        mask = _bits(rec, name)
        _require(mask.size == size, f"{name}: mask length {mask.size} != weight length {size}")
        bias = _numbers(rec, "bias", name)
        _require(bias.size == shape[0], f"{name}: expected {shape[0]} bias entries")
        checked.arrays.append((weights.reshape(shape), mask.reshape(shape), bias))
    return checked


def load_artifact(path: str | Path) -> dict:
    try:
        artifact = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from None
    return validate_artifact(artifact)


def model_from_artifact(artifact: dict) -> Model:
    """Rebuild a deterministic-mask model: logits are +1 for kept bits, -1
    for pruned ones, so the deterministic forward reproduces the mask."""
    if not isinstance(artifact, _Checked):
        artifact = validate_artifact(artifact)
    a = artifact["arch"]
    try:
        cfg = ModelConfig(
            arch=a["arch"],
            input_shape=tuple(a["input_shape"]),
            classes=a["classes"],
            hidden=tuple(a.get("hidden", ())),
            conv_channels=tuple(a.get("conv_channels", ())),
            conv_kernel=a.get("conv_kernel", 3),
            dense_hidden=a.get("dense_hidden", 128),
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad arch record: {exc}") from None
    layers: list = []
    for rec, (weights, mask, bias) in zip(artifact["layers"], artifact.arrays):
        # copies, so that two models built from one document share no memory
        w = Tensor(weights.copy(), requires_grad=True)
        logits = Tensor(np.where(mask, 1.0, -1.0), requires_grad=True)
        b = Tensor(bias.copy(), requires_grad=True)
        param = MaskedParameter(rec["name"], w, logits)
        if rec["kind"] == "conv":
            layers.append(ConvLayer(param, b, pool=bool(rec.get("pool", True))))
        else:
            layers.append(DenseLayer(param, b, activation=rec.get("activation", "none")))
    return Model(cfg, layers)


def load_subnetwork(path: str | Path) -> Model:
    return model_from_artifact(load_artifact(path))


@dataclass
class AnalysisReport:
    density: dict[str, float]  # alive fraction per layer
    reuse: dict[str, np.ndarray]  # alive outgoing weights per source feature
    pruned: dict[str, list[int]]  # source features with zero alive fan-out
    jaccard: dict[str, np.ndarray]  # pairwise incoming-support overlap per layer


def analyze(artifact: dict) -> AnalysisReport:
    model = model_from_artifact(artifact)
    specs = model.collect_group_specs()
    density: dict[str, float] = {}
    reuse: dict[str, np.ndarray] = {}
    pruned: dict[str, list[int]] = {}
    jaccard: dict[str, np.ndarray] = {}
    for layer in model.layers:
        name = layer.param.name
        mask = extract_final_mask(layer.param).astype(np.float64)
        flat = mask.reshape(-1)
        density[name] = float(flat.mean())
        spec = specs[name]
        counts = np.bincount(spec.group_ids, weights=flat, minlength=spec.num_groups).astype(np.int64)
        reuse[name] = counts
        pruned[name] = [int(i) for i in np.flatnonzero(counts == 0)]
        rows = mask.reshape(mask.shape[0], -1)  # incoming support per output unit
        inter = rows @ rows.T
        sizes = rows.sum(axis=1)
        union = sizes[:, None] + sizes[None, :] - inter
        with np.errstate(invalid="ignore", divide="ignore"):
            j = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)
        jaccard[name] = j
    return AnalysisReport(density=density, reuse=reuse, pruned=pruned, jaccard=jaccard)


def dot_export(artifact: dict, max_units: int = 512) -> str:
    """Layered graph in DOT form: one node per feature, one edge per alive
    mask bit (conv layers get parallel channel-to-channel edges)."""
    model = model_from_artifact(artifact)
    specs = model.collect_group_specs()
    first = model.layers[0].param.name
    rank_sizes = [specs[first].num_groups] + [layer.param.weights.shape[0] for layer in model.layers]
    total = sum(rank_sizes)
    if total > max_units:
        raise SizeLimitError(f"graph has {total} units, refusing to render more than {max_units}")

    lines = ["digraph subnet {", "  rankdir=LR;", "  node [shape=circle, fontsize=10];"]
    rank_names = ["in"] + [layer.param.name for layer in model.layers]
    for r, (rname, size) in enumerate(zip(rank_names, rank_sizes)):
        nodes = " ".join(f'u{r}_{i} [label="{rname}/{i}"];' for i in range(size))
        lines.append("  { rank=same; " + nodes + " }")
    for li, layer in enumerate(model.layers):
        spec = specs[layer.param.name]
        mask = extract_final_mask(layer.param).reshape(-1)
        out_count = layer.param.weights.shape[0]
        per_out = mask.size // out_count
        for e in np.flatnonzero(mask):
            src = spec.group_ids[e]
            dst = e // per_out
            lines.append(f"  u{li}_{src} -> u{li + 1}_{dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"
