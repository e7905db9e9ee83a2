"""Command-line front end.

Exit codes: 0 success, 1 a check or training-run failure, 2 configuration or
data problems, 3 resource-limit refusals.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .artifact import analyze, atomic_open, dot_export, load_artifact, load_subnetwork
from .checks import gradcheck_suites
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
    with atomic_open(out / "resolved.cfg") as fh:
        fh.write(render_config(raw))
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
    model = load_subnetwork(args.artifact)
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
        with atomic_open(args.dot) as fh:
            fh.write(text)
        print(f"wrote {args.dot}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gradcheck_suites(args.inject_fault)
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
