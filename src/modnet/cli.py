"""Command-line front end.

Exit codes: 0 success, 1 a check or training-run failure, 2 configuration or
data problems, 3 resource-limit refusals.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import tensor as T
from .artifact import analyze, dot_export, load_artifact, model_from_artifact
from .config import (
    apply_overrides,
    build_environments,
    load_config,
    render_config,
    resolve_train_config,
)
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    FormatError,
    ShapeError,
    SizeLimitError,
    TrainingError,
)
from .masking import MaskMode
from .models import ModelConfig, build_model
from .objectives import ObjectiveConfig, irm_penalty, risk_dummy_grad, total_objective
from .regularizers import RegWeights, reuse_penalty, specialization_penalty
from .tensor import Tape, Tensor, finite_difference_check
from .training import evaluate, train

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_LIMIT = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="modnet", description="Train, evaluate, and dissect mask-regularized networks.")
    sub = p.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="train a model; writes metrics.csv, model.subnet.json, resolved.cfg")
    tr.add_argument("--config", help="configuration file (sections: model, objective, reg, data, train, output)")
    tr.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                    help="override a config value, e.g. --set reg.alpha=1e-5 (repeatable, last wins)")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate an exported subnetwork on the configured environments")
    ev.add_argument("artifact", help="path to a model.subnet.json")
    ev.add_argument("--config")
    ev.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE")
    ev.add_argument("--csv", action="store_true", help="machine-readable env_id,accuracy output")
    ev.set_defaults(func=cmd_eval)

    an = sub.add_parser("analyze", help="report density, reuse, and overlap of an exported subnetwork")
    an.add_argument("artifact")
    an.add_argument("--dot", metavar="PATH", help="also write a DOT graph here")
    an.add_argument("--max-units", type=int, default=512, help="refuse DOT rendering above this many units")
    an.set_defaults(func=cmd_analyze)

    gc = sub.add_parser("gradcheck", help="run the finite-difference and oracle suites at small scale")
    gc.add_argument("--tolerance", type=float, default=1e-4)
    gc.add_argument("--inject-fault", choices=["s2-sign"], default=None, help=argparse.SUPPRESS)
    gc.set_defaults(func=cmd_gradcheck)

    db = sub.add_parser("data-build", help="materialize the configured environments to .npz files")
    db.add_argument("--config")
    db.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE")
    db.set_defaults(func=cmd_data_build)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (ConfigError, DataError, FormatError, ShapeError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def _load_raw(args):
    return apply_overrides(load_config(args.config), args.overrides)


def cmd_train(args) -> int:
    raw = _load_raw(args)
    cfg = resolve_train_config(raw)
    if cfg.out_dir is None:
        raise ConfigError("output.dir is required for training (set it in the file or via --set output.dir=...)")
    train_envs, eval_envs = build_environments(raw, cfg.seed)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved.cfg").write_text(render_config(raw))
    model, rows = train(cfg, train_envs, eval_envs)
    last = rows[-1]
    print(f"finished {cfg.steps} steps (seed {cfg.seed}, objective {cfg.objective.base})")
    for env_id in sorted(last.accuracies):
        print(f"  acc {env_id}: {last.accuracies[env_id]:.4f}")
    for layer, d in last.densities.items():
        print(f"  density {layer}: {d:.4f}")
    print(f"artifacts in {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = model_from_artifact(load_artifact(args.artifact))
    raw = _load_raw(args)
    cfg = resolve_train_config(raw)
    train_envs, eval_envs = build_environments(raw, cfg.seed)
    envs = sorted([*train_envs, *eval_envs], key=lambda e: e.env_id)
    results = [(env.env_id, evaluate(model, env, cfg.batch_size)) for env in envs]
    if args.csv:
        print("env_id,accuracy")
        for env_id, acc in results:
            print(f"{env_id},{acc:.6f}")
    else:
        for env_id, acc in results:
            print(f"{env_id:>12}  {acc:.4f}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    artifact = load_artifact(args.artifact)
    report = analyze(artifact)
    for layer, density in report.density.items():
        reuse = report.reuse[layer]
        pruned = report.pruned[layer]
        j = report.jaccard[layer]
        off = j[~np.eye(len(j), dtype=bool)]
        print(
            f"{layer}: density {density:.4f}, "
            f"pruned sources {len(pruned)}/{len(reuse)}, "
            f"mean pairwise overlap {off.mean() if off.size else 0.0:.4f}"
        )
    if args.dot:
        text = dot_export(artifact, max_units=args.max_units)
        Path(args.dot).write_text(text)
        print(f"wrote {args.dot}")
    return EXIT_OK


class _EnvBatch:
    def __init__(self, env_id, inputs, labels):
        self.env_id, self.inputs, self.labels = env_id, inputs, labels


def full_objective_gradient_error(model, batches, cfg, step: int = 5, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients of the training objective and
    central finite differences, over every weight, bias, and mask logit.

    Deterministic masks keep every term smooth: logits far from 0 (they start
    at LOGIT_INIT) never flip under an eps-sized nudge, so the hard gate is
    locally constant and the penalties carry the logit gradient.
    """
    mode = MaskMode.deterministic()
    specs = model.collect_group_specs()

    def value() -> float:
        loss, _ = total_objective(model, batches, cfg, specs, mode, None, step)
        return loss.item()

    with Tape() as tape:
        loss, _ = total_objective(model, batches, cfg, specs, mode, None, step)
    grads = tape.backward(loss)
    worst = 0.0
    for _, tensor in model.named_parameters():
        analytic = tape.grad(grads, tensor)
        fa = np.zeros(tensor.size) if analytic is None else analytic.reshape(-1)
        flat = tensor.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = value()
            flat[i] = orig - eps
            down = value()
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            worst = max(worst, abs(fa[i] - numeric) / max(1.0, abs(fa[i])))
    return worst


def _gradcheck_suites(fault: str | None):
    """(name, max_error) pairs for every suite, smallest useful sizes."""
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
    from .regularizers import build_group_spec_dense

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
        _EnvBatch("a", rng.normal(size=(4, 1, 1, 6)), rng.integers(0, 3, size=4)),
        _EnvBatch("b", rng.normal(size=(4, 1, 1, 6)), rng.integers(0, 3, size=4)),
    ]
    ocfg = ObjectiveConfig(base="irm", irm_lambda=10.0, irm_anneal_steps=0,
                           reg=RegWeights(alpha=0.05, beta=0.05), weight_decay=1e-3)
    out.append(("full objective", full_objective_gradient_error(model, batches, ocfg)))
    return out


def cmd_gradcheck(args) -> int:
    results = _gradcheck_suites(args.inject_fault)
    failures = []
    for name, err in results:
        status = "ok" if err < args.tolerance else "FAILED"
        print(f"  {name}: max error {err:.3e} (tolerance {args.tolerance:.1e}) {status}")
        if err >= args.tolerance:
            failures.append(name)
    if failures:
        print(f"FAIL: {', '.join(failures)}")
        return EXIT_CHECK_FAILED
    print("PASS")
    return EXIT_OK


def cmd_data_build(args) -> int:
    raw = _load_raw(args)
    out_dir = raw["output"]["dir"].strip()
    if not out_dir:
        raise ConfigError("output.dir is required for data-build")
    train_envs, eval_envs = build_environments(raw, resolve_train_config(raw).seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for env in [*train_envs, *eval_envs]:
        path = out / f"{env.env_id}.npz"
        np.savez_compressed(
            path, inputs=env.inputs, labels=env.labels,
            role=np.array(env.role), provenance=np.array(repr(env.provenance)),
        )
        print(f"wrote {path} ({len(env)} examples, role {env.role})")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
