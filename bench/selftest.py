"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Trains a tiny masked MLP for 30 steps on random data (a second or two),
exports it, and runs the artifact, output and analysis checks of checks.py
three times: on the intact artifact, which must pass, and on copies with
one flipped mask bit and with one perturbed weight, which must both fail.
Exits 0 when all three behave so.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402


def main() -> int:
    from modnet import artifact, training
    from modnet.data import Environment
    from modnet.models import ModelConfig
    from modnet.objectives import ObjectiveConfig

    rng = np.random.default_rng(0)
    x = rng.normal(size=(512, 1, 4, 4))
    env = Environment("tr", x, (x[:, 0, 0, 0] + x[:, 0, 1, 1] > 0).astype(np.int64), "train")
    cfg = training.TrainConfig(
        model=ModelConfig(arch="mlp", input_shape=(1, 4, 4), classes=2, hidden=(8,)),
        objective=ObjectiveConfig(), steps=30, batch_size=64, eval_interval=30, seed=0,
    )
    model, _ = training.train(cfg, [env])

    (BENCH / ".runs").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".runs") as tmp:
        path = Path(tmp) / "model.subnet.json"
        artifact.export_subnetwork(model, path)
        intact = json.loads(path.read_text())

        def problems(doc: dict) -> list[str]:
            path.write_text(json.dumps(doc))
            loaded = artifact.load_subnetwork(path)
            accs = {env.env_id: training.evaluate(loaded, env, cfg.batch_size)}
            report = artifact.analyze(artifact.load_artifact(path))
            return (checks.check_artifact(doc, model) + checks.check_outputs(doc, model, loaded, [env], accs)
                    + checks.check_analysis(doc, report))

        last = intact["layers"][-1]
        kept = last["mask"].index(1)
        flipped = copy.deepcopy(intact)
        flipped["layers"][-1]["mask"][kept] = 0
        perturbed = copy.deepcopy(intact)
        perturbed["layers"][-1]["weights"][kept] += 0.5

        ok = True
        for label, doc, should_pass in (("intact artifact", intact, True),
                                        ("one flipped mask bit", flipped, False),
                                        ("one perturbed weight", perturbed, False)):
            found = problems(doc)
            behaved = not found if should_pass else bool(found)
            ok &= behaved
            verdict = "pass" if not found else f"{len(found)} problem(s), first: {found[0]}"
            print(f"{label:22s} {'ok  ' if behaved else 'FAIL'} checks: {verdict}")
    print("self-test PASS" if ok else "self-test FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
