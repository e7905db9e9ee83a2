"""Structured penalties on mask probabilities.

Mask entries are grouped by the source feature they read from (one group per
input feature of a layer). Two penalties act on the per-group keep
probabilities:

* specialization: sum over groups of (sum of probabilities)^2, pressing each
  feature's fan-out mass toward fewer, heavier users;
* reuse: sum over groups of the l2 norm of the probabilities, a group lasso
  that switches whole input features off.

Both are computed on probabilities, never on sampled masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .tensor import Tensor

# keeps sqrt differentiable when a whole group's probability mass vanishes
EPS = 1e-12


@dataclass(frozen=True)
class RegWeights:
    """Coefficients for the two mask penalties."""

    alpha: float = 0.0  # specialization
    beta: float = 0.0  # reuse

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError(f"penalty weights must be >= 0, got alpha={self.alpha}, beta={self.beta}")


class GroupSpec:
    """A disjoint, covering partition of a flattened mask tensor.

    `group_ids[e]` is the source feature g that flat entry e (C order) reads
    from, for g in [0, num_groups). `dense_shape` is (rows, num_groups) when
    group g is column g of that matrix, as for a dense layer, so the
    penalties can sum columns directly; None otherwise.
    """

    def __init__(self, layer_id: str, group_ids: np.ndarray, num_groups: int):
        ids = np.asarray(group_ids)
        if ids.ndim != 1 or ids.size == 0 or ids.dtype.kind not in "iu":
            raise ContractError(f"{layer_id}: group ids must be a non-empty 1-D integer array")
        if num_groups < 1 or ids.min() < 0 or ids.max() >= num_groups:
            raise ContractError(f"{layer_id}: group ids must lie in [0, {num_groups})")
        ids = ids.astype(np.intp, copy=False)
        n, k = ids.size, num_groups
        columns = n % k == 0 and np.array_equal(ids, np.arange(n) % k)
        self.layer_id = layer_id
        self.dense_shape = (n // k, k) if columns else None
        self.group_ids = ids
        self.num_entries = n
        self.num_groups = k


def build_group_spec_dense(out_dim: int, in_dim: int, layer_id: str = "") -> GroupSpec:
    """Columns of an (out, in) weight matrix: one group per input feature."""
    if out_dim < 1 or in_dim < 1:
        raise ContractError(f"{layer_id}: dense dims must be >= 1, got ({out_dim}, {in_dim})")
    return GroupSpec(layer_id, np.tile(np.arange(in_dim), out_dim), in_dim)


def build_group_spec_dense_blocks(out_dim: int, in_dim: int, num_blocks: int, layer_id: str = "") -> GroupSpec:
    """Columns grouped in contiguous blocks, for dense layers whose input is a
    flattened (blocks, rest) tensor: one group per block."""
    if num_blocks < 1 or in_dim % num_blocks:
        raise ContractError(f"{layer_id}: cannot split {in_dim} inputs into {num_blocks} equal blocks")
    row = np.repeat(np.arange(num_blocks), in_dim // num_blocks)
    return GroupSpec(layer_id, np.tile(row, out_dim), num_blocks)


def build_group_spec_conv(out_ch: int, in_ch: int, kh: int, kw: int, layer_id: str = "") -> GroupSpec:
    """An (O, C, kh, kw) kernel: one group per input channel, spanning every
    kernel entry that reads it."""
    if min(out_ch, in_ch, kh, kw) < 1:
        raise ContractError(f"{layer_id}: conv dims must be >= 1, got ({out_ch}, {in_ch}, {kh}, {kw})")
    filt = np.repeat(np.arange(in_ch), kh * kw)
    return GroupSpec(layer_id, np.tile(filt, out_ch), in_ch)


def _check_pair(probs: Mapping[str, Tensor], specs: Mapping[str, GroupSpec]) -> list[str]:
    names = sorted(specs)
    for name in names:
        if name not in probs:
            raise ContractError(f"no probabilities supplied for layer {name!r}")
        if probs[name].size != specs[name].num_entries:
            raise ContractError(
                f"{name}: {probs[name].size} probabilities vs {specs[name].num_entries} grouped entries"
            )
    return names


def _grouped(p: Tensor, spec: GroupSpec) -> tuple[Tensor, np.ndarray | None]:
    """`p` laid out for `segment_sum` by `spec`, with the ids to pass: the
    `dense_shape` matrix, summed by columns, else the flat entries."""
    if spec.dense_shape is not None:
        return T.reshape(p, spec.dense_shape), None
    return T.reshape(p, (spec.num_entries,)), spec.group_ids


def specialization_penalty(probs: Mapping[str, Tensor], specs: Mapping[str, GroupSpec]) -> Tensor:
    """Sum over layers and groups of the squared within-group probability mass."""
    total = Tensor(0.0)
    for name in _check_pair(probs, specs):
        spec = specs[name]
        p, ids = _grouped(probs[name], spec)
        sums = T.segment_sum(p, ids, spec.num_groups)
        total = T.add(total, T.reduce_sum(T.square(sums)))
    return total


def reuse_penalty(probs: Mapping[str, Tensor], specs: Mapping[str, GroupSpec]) -> Tensor:
    """Sum over layers and groups of sqrt(EPS + sum of squared probabilities)."""
    total = Tensor(0.0)
    for name in _check_pair(probs, specs):
        spec = specs[name]
        p, ids = _grouped(probs[name], spec)
        sq_sums = T.segment_sum(T.square(p), ids, spec.num_groups)
        total = T.add(total, T.reduce_sum(T.sqrt(T.add(sq_sums, Tensor(EPS)))))
    return total


def total_mask_regularizer(
    probs: Mapping[str, Tensor], specs: Mapping[str, GroupSpec], weights: RegWeights
) -> Tensor:
    """alpha * specialization + beta * reuse, skipping disabled terms."""
    total = Tensor(0.0)
    if weights.alpha > 0:
        total = T.add(total, T.scalar_multiply(specialization_penalty(probs, specs), weights.alpha))
    if weights.beta > 0:
        total = T.add(total, T.scalar_multiply(reuse_penalty(probs, specs), weights.beta))
    return total
