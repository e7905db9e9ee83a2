"""One benchmark session: a user's whole modnet run, in a process of its own.

bench/run.py starts this script; it is not meant to be run by hand. The
session is the one a user of the `modnet` package goes through:

1. resolve the workload's config file (`load_config`, `apply_overrides`,
   `resolve_train_config`) and build its environments from the IDX corpus;
2. `train`;
3. `export_subnetwork` to disk;
4. `load_subnetwork` from disk;
5. `evaluate` the reloaded subnetwork on every environment;
6. `analyze` the exported artifact.

Steps 3-6 form a round. Rounds repeat until `--seconds` have passed since
the process was started, and the per-round figures are the fastest of the
rounds: on a shared host, interference only ever adds time, so the minimum
moves least from run to run. Every round must export the same bytes and
give the same accuracies and the same analysis.
Then the outputs of the first round are checked (see checks.py).

Times are taken against `--t0`, the CLOCK_MONOTONIC reading of the parent
just before it started this process, so `setup_s` and `wall_s` include the
interpreter start and the imports. The result is written to `--result` as
JSON; with `--trace PATH` the spans go to PATH and the result also holds
the per-layer figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from corpus import FILES
from tracer import Tracer
from workloads import WORKLOADS


class Operations:
    """Counts the operations a session attempts and the ones that fail:
    training steps, evaluation batches, exports and loads."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, count: int, fn, *args):
        self.attempted += count
        try:
            return fn(*args)
        except Exception:
            self.failed += count
            raise


def batches(n: int, batch_size: int) -> int:
    return math.ceil(n / batch_size)


def run_round(ops, model, envs, batch_size: int, path: Path, meta: dict) -> dict:
    from modnet import artifact, training

    t = time.monotonic()
    doc = ops.run(1, artifact.export_subnetwork, model, path, meta)
    t_export = time.monotonic()
    loaded = ops.run(1, artifact.load_subnetwork, path)
    t_load = time.monotonic()
    accs = {env.env_id: ops.run(batches(len(env), batch_size), training.evaluate, loaded, env, batch_size)
            for env in envs}
    t_eval = time.monotonic()
    report = artifact.analyze(doc)
    t_analyze = time.monotonic()
    return {
        "export_s": t_export - t, "load_s": t_load - t_export,
        "eval_s": t_eval - t_load, "analyze_s": t_analyze - t_eval, "end": t_analyze,
        "digest": hashlib.sha256(path.read_bytes()).hexdigest(), "bytes": path.stat().st_size,
        "accs": accs, "report": report, "loaded": loaded,
    }


def same_report(a, b) -> bool:
    return a.density == b.density and all(np.array_equal(a.reuse[k], b.reuse[k]) for k in a.reuse)


def session(args, ops: Operations, tracer: Tracer | None, out: dict) -> list[str]:
    from modnet import config, training
    from modnet.models import build_model

    workload = WORKLOADS[args.workload]
    raw = config.load_config(workload.config)
    config.apply_overrides(raw, [f"train.seed={args.seed}"]
                           + [f"data.{key}={args.corpus / name}" for key, name in FILES.items()])
    cfg = config.resolve_train_config(raw)
    train_envs, eval_envs = config.build_environments(raw, cfg.seed)
    envs = [*train_envs, *eval_envs]
    t_setup = time.monotonic()

    model, rows = ops.run(cfg.steps, training.train, cfg, train_envs, eval_envs)
    t_train = time.monotonic()
    eval_batches = sum(batches(len(e), cfg.batch_size) for e in envs)
    ops.attempted += len(rows) * eval_batches  # train()'s periodic evaluations

    path = args.workdir / "model.subnet.json"
    meta = {"workload": workload.name, "seed": args.seed, "steps": cfg.steps}
    first = run_round(ops, model, envs, cfg.batch_size, path, meta)
    rounds = [first]
    # later rounds redo the same work, and the checks are benchmark work
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = os.times()

    problems = []
    while time.monotonic() - args.t0 < args.seconds:
        r = run_round(ops, model, envs, cfg.batch_size, path, meta)
        del r["loaded"]
        if r["digest"] != first["digest"]:
            problems.append(f"round {len(rounds) + 1} exported different bytes")
        if r["accs"] != first["accs"]:
            problems.append(f"round {len(rounds) + 1} evaluated to different accuracies")
        if not same_report(r["report"], first["report"]):
            problems.append(f"round {len(rounds) + 1} analyzed to a different report")
        rounds.append(r)

    # the checks come last, so that every round runs in the same conditions
    if tracer is not None:
        tracer.uninstall()
    doc = json.loads(path.read_text())
    problems += checks.check_finite(model)
    problems += checks.check_artifact(doc, model)
    problems += checks.check_outputs(doc, model, first.pop("loaded"), envs, first["accs"])
    problems += checks.check_analysis(doc, first["report"])
    problems += checks.check_learning(workload, cfg.objective, doc, build_model(cfg.model, cfg.seed),
                                      train_envs, first["accs"], rows)

    def fastest(key):
        return min(r[key] for r in rounds)

    samples = sum(len(e) for e in envs)
    out["metrics"] = {
        "setup_s": (t_setup - args.t0, "s"),
        "train_steps_per_s": (cfg.steps / (t_train - t_setup), "steps/s"),
        "eval_samples_per_s": (samples / fastest("eval_s"), "samples/s"),
        "export_s": (fastest("export_s"), "s"),
        "load_s": (fastest("load_s"), "s"),
        "artifact_mb": (first["bytes"] / 1e6, "MB"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "wall_s": (first["end"] - args.t0, "s"),
    }
    out.update(
        digest=first["digest"], rounds=len(rounds), accuracies=first["accs"],
        round_s={k: [r[k] for r in rounds] for k in ("export_s", "load_s", "eval_s", "analyze_s")},
        cpu_s=times.user + times.system, layers=[layer.param.name for layer in model.layers],
        env_mb=sum(e.inputs.nbytes + e.labels.nbytes for e in envs) / 1e6,
    )
    return problems


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="one benchmark session (started by bench/run.py)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--t0", required=True, type=float)
    p.add_argument("--result", required=True, type=Path)
    p.add_argument("--trace", type=Path, default=None)
    args = p.parse_args(argv)

    tracer = Tracer().install() if args.trace else None
    ops = Operations()
    out: dict = {}
    try:
        problems = session(args, ops, tracer, out)
    except Exception:
        traceback.print_exc()
        problems = ["the session stopped on an exception (traceback above)"]
    if tracer is not None:
        tracer.uninstall()
        if not problems:
            tracer.save(args.trace)
            out["layer_metrics"] = tracer.metrics(out["layers"])
    out.update(correct=not problems, problems=problems, attempted=ops.attempted, failed=ops.failed)
    args.result.write_text(json.dumps(out))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
