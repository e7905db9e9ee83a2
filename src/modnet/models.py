"""Masked feed-forward models: a plain MLP and a small conv net.

Every weight tensor is a MaskedParameter; biases are left unmasked. The
forward pass is assembled from tensor-module ops so one tape records the
whole computation, and masks can be realized once per step and shared across
several batches via `effective_parameters` + `apply_with`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .masking import LOGIT_INIT, MaskedParameter, MaskMode, effective_weights
from .regularizers import (
    GroupSpec,
    build_group_spec_conv,
    build_group_spec_dense,
    build_group_spec_dense_blocks,
)
from .tensor import Tensor


@dataclass(frozen=True)
class ModelConfig:
    arch: str = "mlp"
    input_shape: tuple[int, int, int] = (2, 28, 28)
    classes: int = 2
    hidden: tuple[int, ...] = (256, 256)  # mlp only
    conv_channels: tuple[int, ...] = (16, 32)  # cnn only
    conv_kernel: int = 3
    dense_hidden: int = 128  # cnn head width

    def __post_init__(self):
        if self.arch not in ("mlp", "cnn"):
            raise ConfigError(f"arch must be 'mlp' or 'cnn', got {self.arch!r}")
        if self.classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}")
        if len(self.input_shape) != 3 or min(self.input_shape) < 1:
            raise ConfigError(f"input_shape must be (channels, height, width), got {self.input_shape}")
        if self.arch == "mlp" and not self.hidden:
            raise ConfigError("mlp needs at least one hidden layer")
        if self.arch == "cnn":
            if not self.conv_channels:
                raise ConfigError("cnn needs at least one conv layer")
            if self.conv_kernel < 1:
                raise ConfigError(f"conv_kernel must be >= 1, got {self.conv_kernel}")
            h, w = self.input_shape[1], self.input_shape[2]
            for i in range(len(self.conv_channels)):
                if h % 2 or w % 2:
                    raise ConfigError(
                        f"2x2 pooling after conv layer {i} needs even spatial dims, got {h}x{w}"
                    )
                h, w = h // 2, w // 2


@dataclass
class DenseLayer:
    param: MaskedParameter  # weights (out, in)
    bias: Tensor  # (out,)
    activation: str = "relu"  # "relu" | "none"


@dataclass
class ConvLayer:
    param: MaskedParameter  # weights (out_ch, in_ch, kh, kw), stride 1, same padding
    bias: Tensor  # (out_ch,)
    pool: bool = True


class Model:
    def __init__(self, config: ModelConfig, layers: list):
        self.config = config
        self.layers = layers

    def masked_params(self) -> list[MaskedParameter]:
        return [layer.param for layer in self.layers]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """(name, tensor) pairs in a fixed order: the optimizer's view."""
        out = []
        for layer in self.layers:
            name = layer.param.name
            out.append((f"{name}.weights", layer.param.weights))
            out.append((f"{name}.bias", layer.bias))
            out.append((f"{name}.mask_logits", layer.param.mask_logits))
        return out

    def mask_probabilities(self) -> dict[str, Tensor]:
        from .masking import mask_probability

        return {layer.param.name: mask_probability(layer.param.mask_logits) for layer in self.layers}

    def effective_parameters(self, mode: MaskMode, rng: np.random.Generator | None = None) -> dict[str, Tensor]:
        """Realize every layer's masked weights once.

        Stochastic mode spawns one child stream per layer, in layer order, so
        the draw for layer k does not depend on other layers' shapes.
        """
        streams: list = [None] * len(self.layers)
        if mode.kind == "stochastic":
            if rng is None:
                raise ContractError("stochastic masking requires an rng")
            streams = rng.spawn(len(self.layers))
        return {
            layer.param.name: effective_weights(layer.param, mode, streams[i])
            for i, layer in enumerate(self.layers)
        }

    def apply_with(self, effs: dict[str, Tensor], x: Tensor) -> Tensor:
        """Forward pass with pre-realized weights. Returns (batch, classes) logits."""
        if x.data.ndim != 4 or x.shape[1:] != tuple(self.config.input_shape):
            raise ShapeError(
                f"input must be (batch, {', '.join(map(str, self.config.input_shape))}), got {x.shape}"
            )
        n = x.shape[0]
        h = x
        flattened = self.config.arch == "mlp"
        if flattened:
            h = T.reshape(h, (n, -1))
        for layer in self.layers:
            w = effs[layer.param.name]
            if isinstance(layer, ConvLayer):
                h = T.conv2d(h, w, padding="same")
                h = T.add(h, T.reshape(layer.bias, (layer.bias.size, 1, 1)))
                h = T.relu(h)
                if layer.pool:
                    h = T.max_pool2x2(h)
            else:
                if not flattened:
                    h = T.reshape(h, (n, -1))
                    flattened = True
                h = T.add(T.linear(h, w), layer.bias)
                if layer.activation == "relu":
                    h = T.relu(h)
        return h

    def forward(self, x: Tensor, mode: MaskMode, rng: np.random.Generator | None = None) -> Tensor:
        return self.apply_with(self.effective_parameters(mode, rng), x)

    def collect_group_specs(self) -> dict[str, GroupSpec]:
        """One spec per masked tensor, grouping entries by source feature.

        Dense weights group by input column; conv kernels by input channel;
        the dense layer that reads a flattened conv map groups its columns by
        the channel they came from.
        """
        specs: dict[str, GroupSpec] = {}
        prev_conv_channels: int | None = None
        for layer in self.layers:
            name = layer.param.name
            shape = layer.param.weights.shape
            if isinstance(layer, ConvLayer):
                o, c, kh, kw = shape
                specs[name] = build_group_spec_conv(o, c, kh, kw, name)
                prev_conv_channels = o
            else:
                out_dim, in_dim = shape
                if prev_conv_channels is not None:
                    specs[name] = build_group_spec_dense_blocks(out_dim, in_dim, prev_conv_channels, name)
                    prev_conv_channels = None
                else:
                    specs[name] = build_group_spec_dense(out_dim, in_dim, name)
        return specs

    def mask_density(self) -> dict[str, float]:
        """Fraction of kept entries (logit > 0) per layer."""
        return {
            layer.param.name: float((layer.param.mask_logits.data > 0).mean())
            for layer in self.layers
        }


def l2_penalty(model: Model, weight_decay: float) -> Tensor:
    """weight_decay * sum of squared weights and biases. Mask logits excluded."""
    if weight_decay < 0:
        raise ConfigError(f"weight_decay must be >= 0, got {weight_decay}")
    if weight_decay == 0:
        return Tensor(0.0)
    total = Tensor(0.0)
    for layer in model.layers:
        total = T.add(total, T.reduce_sum(T.square(layer.param.weights)))
        total = T.add(total, T.reduce_sum(T.square(layer.bias)))
    return T.scalar_multiply(total, weight_decay)


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    bound = math.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _fresh_logits(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.full(shape, LOGIT_INIT), requires_grad=True)


def _zero_bias(n: int) -> Tensor:
    return Tensor(np.zeros(n), requires_grad=True)


def build_model(config: ModelConfig, seed: int) -> Model:
    """Initialize a model: uniform(-sqrt(6/fan_in), ..) weights, zero biases,
    all mask logits at LOGIT_INIT. One rng, consumed in layer order."""
    rng = np.random.default_rng(seed)
    c, hgt, wid = config.input_shape
    layers: list = []
    if config.arch == "mlp":
        dims = [c * hgt * wid, *config.hidden, config.classes]
        for i in range(len(dims) - 1):
            fan_in, out = dims[i], dims[i + 1]
            w = _uniform_init(rng, (out, fan_in), fan_in)
            act = "relu" if i < len(dims) - 2 else "none"
            layers.append(
                DenseLayer(MaskedParameter(f"dense{i}", w, _fresh_logits(w.shape)), _zero_bias(out), act)
            )
    else:
        k = config.conv_kernel
        in_ch = c
        for i, out_ch in enumerate(config.conv_channels):
            w = _uniform_init(rng, (out_ch, in_ch, k, k), in_ch * k * k)
            layers.append(
                ConvLayer(MaskedParameter(f"conv{i}", w, _fresh_logits(w.shape)), _zero_bias(out_ch))
            )
            in_ch = out_ch
            hgt, wid = hgt // 2, wid // 2
        dims = [in_ch * hgt * wid, config.dense_hidden, config.classes]
        for i in range(len(dims) - 1):
            fan_in, out = dims[i], dims[i + 1]
            w = _uniform_init(rng, (out, fan_in), fan_in)
            act = "relu" if i < len(dims) - 2 else "none"
            layers.append(
                DenseLayer(MaskedParameter(f"dense{i}", w, _fresh_logits(w.shape)), _zero_bias(out), act)
            )
    return Model(config, layers)
