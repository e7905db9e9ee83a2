"""modnet benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload colored-irm --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the package is taken
from its `src/` directory, so nothing needs installing. The run

1. makes the workload's synthetic digit corpus from the seed, in a process
   of its own, or reuses the copy cached under bench/.cache/ (keyed by the
   generator's source, the sizes and the seed);
2. runs one user session (session.py) in a fresh process with BLAS pinned to
   BLAS_THREADS threads, and checks its outputs (checks.py);
3. prints the artifact digest, the operation counts and every metric, then,
   as its last line, one JSON object with the keys `correct`, `attempted`,
   `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics of an untraced session. `--trace 1`
runs an untraced session and then a traced one (tracer.py), and reports the
per-layer metrics of the traced one plus the tracing overhead, which is the
traced session's wall time against the untraced one's. The spans and each
printed result are kept under bench/.runs/.

Exit status: 0 when every output check passed, 1 when one failed or a
session broke, 2 when the program or the arguments are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE = BENCH / ".cache"
RUNS = BENCH / ".runs"
KEEP_CORPORA = 12  # the cache holds at most this many corpora (the 60k one is 55 MB)
DEADLINE_S = 175.0  # a run, corpus included, must end within 180 s
# fixed, and never more than the cores this process may use
BLAS_THREADS = min(1, len(os.sched_getaffinity(0)))


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("the run is past its deadline")
    return left


def ensure_corpus(workload, seed: int, deadline: float) -> Path:
    version = hashlib.sha256((BENCH / "corpus.py").read_bytes()).hexdigest()[:12]
    out = CACHE / f"corpus-{version}-{workload.n_train}x{workload.n_test}-s{seed}"
    if not out.is_dir():
        cmd = [sys.executable, str(BENCH / "corpus.py"), "--out", str(out), "--train", str(workload.n_train),
               "--test", str(workload.n_test), "--seed", str(seed)]
        subprocess.run(cmd, env=child_env(), stdout=sys.stderr, check=True, timeout=remaining(deadline))
        cached = sorted(CACHE.glob("corpus-*"), key=lambda p: p.stat().st_mtime)
        for old in cached[:-KEEP_CORPORA]:
            if old != out:
                shutil.rmtree(old, ignore_errors=True)
    return out


def run_session(workload, seed: int, seconds: float, corpus: Path, deadline: float,
                trace: Path | None = None) -> dict:
    RUNS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-s{seed}-", dir=RUNS))
    try:
        result = workdir / "result.json"
        cmd = [sys.executable, str(BENCH / "session.py"), "--workload", workload.name, "--seed", str(seed),
               "--seconds", str(seconds), "--corpus", str(corpus), "--workdir", str(workdir),
               "--result", str(result)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        timeout = remaining(deadline)
        t0 = time.monotonic()
        subprocess.run(cmd + ["--t0", repr(t0)], env=child_env(), stdout=sys.stderr, timeout=timeout)
        return json.loads(result.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Run one modnet benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "modnet" / "__init__.py").is_file():
        print(f"error: no modnet package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    corpus = ensure_corpus(workload, args.seed, deadline)
    if args.trace:
        # the untraced reference needs only its wall time: one round is enough
        plain = run_session(workload, args.seed, 0, corpus, deadline)
        trace_path = RUNS / f"{workload.name}-s{args.seed}.trace.json"
        traced = run_session(workload, args.seed, args.seconds, corpus, deadline, trace_path)
        sessions = [plain, traced]
        metrics = dict(traced.get("layer_metrics", {}))
        if plain["correct"] and traced["correct"]:
            metrics["data.env_mb"] = (traced["env_mb"], "MB")
            metrics["process.cpu_s"] = (plain["cpu_s"], "s")
            overhead = traced["metrics"]["wall_s"][0] / plain["metrics"]["wall_s"][0] - 1.0
            metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    else:
        sessions = [run_session(workload, args.seed, args.seconds, corpus, deadline)]
        metrics = dict(sessions[0].get("metrics", {}))

    problems = [f"session {i + 1}: {msg}" for i, s in enumerate(sessions) for msg in s["problems"]]
    digests = {s.get("digest") for s in sessions}
    if len(digests) != 1:
        problems.append(f"sessions exported different artifacts: {sorted(map(str, digests))}")
    result = {
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in sessions),
        "failed": sum(s["failed"] for s in sessions),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  blas_threads {BLAS_THREADS}")
    print(f"artifact sha256 {sessions[-1].get('digest')}  rounds {sessions[-1].get('rounds')}")
    print("accuracy " + "  ".join(f"{k} {v:.4f}" for k, v in sessions[-1].get("accuracies", {}).items()))
    print(f"operations attempted {result['attempted']}  failed {result['failed']}")
    for key, values in sessions[-1].get("round_s", {}).items():
        print(f"per round {key:9s} " + " ".join(f"{v:.4f}" for v in values))
    for msg in problems:
        print(f"check failed: {msg}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    line = json.dumps(result)
    (RUNS / f"{workload.name}-s{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
