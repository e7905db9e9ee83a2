"""Gradient checks: tape gradients against central finite differences.

`gradcheck_suites` runs every suite at its smallest useful size and is what
`modnet gradcheck` prints; `full_objective_gradient_error` checks the whole
training objective of a model. Both difference through
`tensor.finite_difference_check`.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .data import EnvironmentBatch
from .masking import MaskMode
from .models import ModelConfig, build_model
from .objectives import ObjectiveConfig, irm_penalty, risk_dummy_grad, total_objective
from .regularizers import RegWeights, build_group_spec_dense, reuse_penalty, specialization_penalty
from .tensor import Tensor, finite_difference_check


def full_objective_gradient_error(model, batches, cfg, step: int = 5, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients of the training objective and
    central finite differences, over every weight, bias, and mask logit.

    Deterministic masks keep every term smooth: logits far from 0 (they start
    at LOGIT_INIT) never flip under an eps-sized nudge, so the hard gate is
    locally constant and the penalties carry the logit gradient.
    """
    mode = MaskMode.deterministic()
    specs = model.collect_group_specs()

    def objective(_: Tensor) -> Tensor:
        # the parameter is nudged in place, so the model already holds it
        return total_objective(model, batches, cfg, specs, mode, None, step)[0]

    worst = 0.0
    for _, tensor in model.named_parameters():
        worst = max(worst, finite_difference_check(objective, tensor, eps))
    return worst


def gradcheck_suites(fault: str | None) -> list[tuple[str, float]]:
    """(name, max_error) pairs for every suite, smallest useful sizes.

    `fault="s2-sign"` flips the sign of the reuse penalty's gradient, so the
    S2 suite must fail.
    """
    rng = np.random.default_rng(1234)
    out = []

    # core ops under compositions that exercise each backward rule
    op_errs = []
    b = rng.uniform(-2, 2, size=(5, 3))
    op_errs.append(finite_difference_check(
        lambda t: T.reduce_sum(T.square(T.matmul(t, Tensor(b)))), Tensor(rng.uniform(-2, 2, size=(4, 5)))))
    w = rng.uniform(-1, 1, size=(3, 2, 3, 3))
    op_errs.append(finite_difference_check(
        lambda t: T.reduce_sum(T.square(T.conv2d(t, Tensor(w), padding="same"))),
        Tensor(rng.uniform(-1, 1, size=(2, 2, 6, 6)))))
    op_errs.append(finite_difference_check(
        lambda t: T.reduce_sum(T.sigmoid(t)), Tensor(rng.uniform(-2, 2, size=7))))
    y = rng.integers(0, 3, size=4)
    op_errs.append(finite_difference_check(
        lambda t: T.softmax_cross_entropy(t, y), Tensor(rng.uniform(-2, 2, size=(4, 3)))))
    out.append(("tensor ops", max(op_errs)))

    # S1 through the probability map
    spec = {"l": build_group_spec_dense(4, 5, "l")}
    out.append((
        "specialization penalty (S1)",
        finite_difference_check(
            lambda t: specialization_penalty({"l": T.sigmoid(t)}, spec),
            Tensor(rng.uniform(-2, 2, size=(4, 5))),
        ),
    ))

    # S2, optionally with the sign-flip fault hook
    def s2(t: Tensor) -> Tensor:
        pen = reuse_penalty({"l": T.sigmoid(t)}, spec)
        if fault == "s2-sign":
            return T.apply_primitive(pen.data, (pen,), (lambda g: -g,))
        return pen

    out.append(("reuse penalty (S2)", finite_difference_check(s2, Tensor(rng.uniform(-2, 2, size=(4, 5))))))

    # invariance penalty: analytic forward against fd in the dummy scalar,
    # plus analytic logits-gradient against fd
    z = rng.normal(size=(6, 3))
    yl = rng.integers(0, 3, size=6)
    eps = 1e-6

    def ce_w(wv: float) -> float:
        zw = wv * z
        m = zw.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(zw - m).sum(axis=1))
        return float((lse - zw[np.arange(6), yl]).mean())

    analytic = risk_dummy_grad(Tensor(z), yl).item()
    numeric = (ce_w(1 + eps) - ce_w(1 - eps)) / (2 * eps)
    fwd_err = abs(analytic - numeric) / max(1.0, abs(analytic))
    grad_err = finite_difference_check(lambda t: irm_penalty([(t, yl)]), Tensor(z.copy()))
    out.append(("invariance penalty", max(fwd_err, grad_err)))

    # the full objective on a small masked net, deterministic masks
    mcfg = ModelConfig(arch="mlp", input_shape=(1, 1, 6), classes=3, hidden=(8,))
    model = build_model(mcfg, 7)
    batches = [
        EnvironmentBatch("a", rng.normal(size=(4, 1, 1, 6)), rng.integers(0, 3, size=4)),
        EnvironmentBatch("b", rng.normal(size=(4, 1, 1, 6)), rng.integers(0, 3, size=4)),
    ]
    ocfg = ObjectiveConfig(base="irm", irm_lambda=10.0, irm_anneal_steps=0,
                           reg=RegWeights(alpha=0.05, beta=0.05), weight_decay=1e-3)
    out.append(("full objective", full_objective_gradient_error(model, batches, ocfg)))
    return out
