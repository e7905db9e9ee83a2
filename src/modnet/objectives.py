"""Training objectives: pooled or invariance-penalized risk plus the mask
penalties and weight decay.

The invariance penalty follows the dummy-classifier recipe: per environment,
the derivative of cross entropy in a scalar multiplier on the logits, taken
at 1, squared and summed. That derivative has a closed form, and so does its
gradient in the logits, so no second-order autodiff is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DataError
from .masking import MaskMode
from .models import Model, l2_penalty
from .regularizers import GroupSpec, RegWeights, reuse_penalty, specialization_penalty
from .tensor import Tensor


@dataclass(frozen=True)
class ObjectiveConfig:
    base: str = "erm"  # "erm" | "irm"
    irm_lambda: float = 1e4
    irm_anneal_steps: int = 500
    reg: RegWeights = field(default_factory=RegWeights)
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.base not in ("erm", "irm"):
            raise ConfigError(f"objective base must be 'erm' or 'irm', got {self.base!r}")
        if self.irm_lambda < 0:
            raise ConfigError(f"irm_lambda must be >= 0, got {self.irm_lambda}")
        if self.irm_anneal_steps < 0:
            raise ConfigError(f"irm_anneal_steps must be >= 0, got {self.irm_anneal_steps}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


def risk_dummy_grad(logits: Tensor, labels) -> Tensor:
    """d/dw cross_entropy(w * logits, labels) at w = 1, as a tape op.

    Forward: mean over the batch of sum_c z_c * (softmax(z)_c - onehot_c).
    The vjp in z is the closed-form second derivative: with s_n = sum_c z_c p_c,
    dD/dz_{nk} = (p_k (1 + z_k - s_n) - [k = y_n]) / N.
    """
    lab = T._check_logits_labels(logits, labels)
    zd = logits.data
    n = zd.shape[0]
    m = zd.max(axis=1, keepdims=True)
    ex = np.exp(zd - m)
    p = ex / ex.sum(axis=1, keepdims=True)
    s = (p * zd).sum(axis=1)
    d = float((s - zd[np.arange(n), lab]).mean())

    def vjp(g: np.ndarray) -> np.ndarray:
        grad = p * (1.0 + zd - s[:, None])
        grad[np.arange(n), lab] -= 1.0
        return grad * (g / n)

    return T.apply_primitive(np.asarray(d), (logits,), (vjp,))


def irm_penalty(per_env: Sequence[tuple[Tensor, np.ndarray]]) -> Tensor:
    """Sum over environments of the squared dummy-classifier risk derivative."""
    if not per_env:
        raise DataError("invariance penalty needs at least one environment")
    total = Tensor(0.0)
    for logits, labels in per_env:
        total = T.add(total, T.square(risk_dummy_grad(logits, labels)))
    return total


@dataclass
class Breakdown:
    """Per-term values of one objective evaluation.

    Terms are reported before the stability rescale; the identity
    total = scale * (risk + lambda_eff * irm + l2 + s1 + s2) holds exactly.
    """

    risk: float
    irm: float
    l2: float
    s1: float
    s2: float
    lambda_eff: float
    scale: float
    total: float
    train_accuracy: float


def total_objective(
    model: Model,
    batches: Sequence,
    cfg: ObjectiveConfig,
    specs: Mapping[str, GroupSpec] | None,
    mode: MaskMode,
    rng: np.random.Generator | None,
    step: int,
) -> tuple[Tensor, Breakdown]:
    """One loss evaluation over a round of environment batches.

    Masks are realized once and shared across every environment's forward
    pass. Environments are processed in sorted env_id order so the floating
    point sum is reproducible.
    """
    if not batches:
        raise DataError("total_objective needs at least one environment batch")
    alpha, beta = cfg.reg.alpha, cfg.reg.beta
    if (alpha > 0 or beta > 0) and specs is None:
        raise ContractError("mask penalties enabled but no group specs supplied")

    effs = model.effective_parameters(mode, rng)
    ordered = sorted(batches, key=lambda b: b.env_id)
    env_logits: list[tuple[str, Tensor, np.ndarray]] = []
    for b in ordered:
        logits = model.apply_with(effs, Tensor(b.inputs))
        env_logits.append((b.env_id, logits, np.asarray(b.labels)))

    risks = [(T.softmax_cross_entropy(logits, lab), lab.shape[0]) for _, logits, lab in env_logits]
    if cfg.base == "erm":
        # pooled risk: per-environment means recombined by sample count
        total_n = sum(n for _, n in risks)
        risk = Tensor(0.0)
        for r, n in risks:
            risk = T.add(risk, T.scalar_multiply(r, n / total_n))
    else:
        risk = Tensor(0.0)
        for r, _ in risks:
            risk = T.add(risk, r)
        risk = T.scalar_multiply(risk, 1.0 / len(risks))

    lambda_eff = 1.0
    penalty = Tensor(0.0)
    if cfg.base == "irm":
        penalty = irm_penalty([(logits, lab) for _, logits, lab in env_logits])
        lambda_eff = cfg.irm_lambda if step >= cfg.irm_anneal_steps else 1.0

    l2 = l2_penalty(model, cfg.weight_decay)
    s1_term = Tensor(0.0)
    s2_term = Tensor(0.0)
    if alpha > 0 or beta > 0:
        probs = model.mask_probabilities()
        if alpha > 0:
            s1_term = T.scalar_multiply(specialization_penalty(probs, specs), alpha)
        if beta > 0:
            s2_term = T.scalar_multiply(reuse_penalty(probs, specs), beta)

    loss = risk
    if cfg.base == "irm":
        loss = T.add(loss, T.scalar_multiply(penalty, lambda_eff))
    loss = T.add(loss, l2)
    if alpha > 0:
        loss = T.add(loss, s1_term)
    if beta > 0:
        loss = T.add(loss, s2_term)
    scale = 1.0 / lambda_eff if lambda_eff > 1.0 else 1.0
    if scale != 1.0:
        loss = T.scalar_multiply(loss, scale)

    correct = sum(
        int((np.argmax(logits.data, axis=1) == lab).sum()) for _, logits, lab in env_logits
    )
    total_n = sum(lab.shape[0] for _, _, lab in env_logits)

    breakdown = Breakdown(
        risk=risk.item(),
        irm=penalty.item(),
        l2=l2.item(),
        s1=s1_term.item(),
        s2=s2_term.item(),
        lambda_eff=lambda_eff,
        scale=scale,
        total=loss.item(),
        train_accuracy=correct / total_n,
    )
    return loss, breakdown
