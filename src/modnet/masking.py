"""Differentiable binary masks over weight tensors.

Each maskable weight tensor carries a same-shape tensor of logits l. The mask
probability is sigmoid(l). During training a relaxed sample is drawn by
perturbing the logits with logistic noise and squashing at a temperature;
hard 0/1 masks used in the forward pass pass gradients straight through to
the logits. At extraction time the mask is the deterministic l > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .tensor import Tensor

# sigmoid(2.1972) = 0.900, so fresh masks start near fully dense
LOGIT_INIT = 2.1972

# keeps log(u) and log(1 - u) finite for u drawn at the ends of [0, 1)
_U_CLIP = 1e-12


@dataclass
class MaskedParameter:
    """A weight tensor paired with its mask logits (same shape)."""

    name: str
    weights: Tensor
    mask_logits: Tensor

    def __post_init__(self):
        if self.weights.shape != self.mask_logits.shape:
            raise ContractError(
                f"{self.name}: weights shape {self.weights.shape} "
                f"!= mask logits shape {self.mask_logits.shape}"
            )


@dataclass(frozen=True)
class MaskMode:
    """How masks are realized in a forward pass: sampled at `temperature`,
    or the deterministic l > 0 when it is None."""

    temperature: float | None

    def __post_init__(self):
        if self.temperature is not None and not self.temperature > 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")

    @classmethod
    def stochastic(cls, temperature: float) -> "MaskMode":
        return cls(float(temperature))

    @classmethod
    def deterministic(cls) -> "MaskMode":
        return cls(None)


def _relaxed_gate(logits: np.ndarray, temperature: float, rng: np.random.Generator) -> np.ndarray:
    """sigmoid((l + logistic noise) / temperature) as a plain array.

    One uniform draw per entry; the sigmoid is `tensor.sigmoid`'s own.
    """
    if not temperature > 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    u = rng.uniform(size=logits.shape)
    inv_tau = 1.0 / temperature
    s = np.empty(logits.shape)
    for ub, lb, sb in T._flat_blocks(u, logits, s):
        np.maximum(ub, _U_CLIP, out=ub)
        np.minimum(ub, 1.0 - _U_CLIP, out=ub)
        z = np.log(ub)
        np.negative(ub, out=ub)
        z -= np.log1p(ub, out=ub)
        z += lb
        z *= inv_tau
        T._sigmoid_block(z, sb)
    return s


def _threshold(relaxed: np.ndarray) -> np.ndarray:
    # ties at exactly 0.5 break to 0
    return (relaxed > 0.5).astype(np.float64)


def sample_relaxed_mask(logits: Tensor, temperature: float, rng: np.random.Generator) -> Tensor:
    """Draw a soft mask in (0, 1): sigmoid((l + logistic noise) / temperature).

    One uniform draw per entry. Differentiable in the logits; the noise is a
    constant of the sample.
    """
    s = _relaxed_gate(logits.data, temperature, rng)
    inv_tau = 1.0 / temperature
    return T.apply_primitive(s, (logits,), (lambda g: g * s * (1.0 - s) * inv_tau,))


def binarize_straight_through(relaxed: Tensor) -> Tensor:
    """Threshold a relaxed mask at 0.5 (ties break to 0), gradient = identity."""
    return T.apply_primitive(_threshold(relaxed.data), (relaxed,), (lambda g: g,))


def _gated_weights(param: MaskedParameter, temperature: float, rng: np.random.Generator) -> Tensor:
    """w * hard for a freshly sampled hard mask, as one tape node.

    Same values and gradients as multiply(w, binarize_straight_through(
    sample_relaxed_mask(l))): the weights get g * hard and the logits get the
    straight-through surrogate ((g * w) * s) * (1 - s) * (1 / temperature).
    `hard` stays bool, a byte per gate while the tape holds it; w * hard and
    g * hard give the bits of the float mask, -0.0 included.
    """
    w = param.weights.data
    s = _relaxed_gate(param.mask_logits.data, temperature, rng)
    hard = s > 0.5  # ties at exactly 0.5 break to 0, as in _threshold
    inv_tau = 1.0 / temperature

    def vjp_logits(g: np.ndarray) -> np.ndarray:
        out = np.empty(w.shape)
        for ob, gb, wb, sb in T._flat_blocks(out, g, w, s):
            np.multiply(gb, wb, out=ob)
            ob *= sb
            ob *= 1.0 - sb
            ob *= inv_tau
        return out

    return T.apply_primitive(w * hard, (param.weights, param.mask_logits), (lambda g: g * hard, vjp_logits))


def effective_weights(param: MaskedParameter, mode: MaskMode, rng: np.random.Generator | None = None) -> Tensor:
    """Masked weights for one forward pass.

    Stochastic mode samples a fresh hard mask (straight-through); the caller
    supplies the rng and decides how often to resample. Deterministic mode
    applies l > 0 and never touches an rng.
    """
    if mode.temperature is None:
        mask = Tensor((param.mask_logits.data > 0).astype(np.float64))
        return T.multiply(param.weights, mask)
    if rng is None:
        raise ContractError("stochastic masking requires an rng")
    return _gated_weights(param, mode.temperature, rng)


def extract_final_mask(param: MaskedParameter) -> np.ndarray:
    """The persisted binary mask: 1 where logit > 0. Idempotent by definition."""
    return (param.mask_logits.data > 0).astype(np.uint8)
