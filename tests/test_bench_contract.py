"""The package names that the benchmark's tracer and output checks bind.

`bench/tracer.py` wraps modnet's functions by attribute and `bench/checks.py`
calls into the package, so renaming or deleting one of those names breaks
every traced benchmark run. This runs both on a tiny model.
"""

from pathlib import Path

import numpy as np

from modnet import tensor as T
from modnet import training
from modnet.data import Environment
from modnet.models import ModelConfig
from modnet.objectives import ObjectiveConfig
from modnet.regularizers import RegWeights

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_and_output_checks_run_on_a_tiny_model(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks as bench_checks
    from tracer import Tracer

    rng = np.random.default_rng(5)
    envs = []
    for env_id in ("e0", "e1"):
        inputs = rng.random((40, 1, 2, 2))
        labels = (inputs.sum(axis=(1, 2, 3)) > 2.0).astype(np.int64)
        envs.append(Environment(env_id=env_id, inputs=inputs, labels=labels, role="train"))
    cfg = training.TrainConfig(
        model=ModelConfig(arch="mlp", input_shape=(1, 2, 2), classes=2, hidden=(3,)),
        objective=ObjectiveConfig(base="irm", irm_lambda=10.0, irm_anneal_steps=2,
                                  reg=RegWeights(alpha=1e-3, beta=1e-3)),
        steps=3, batch_size=16, eval_interval=3, seed=1,
    )
    sigmoid = T.sigmoid
    tracer = Tracer()
    try:
        tracer.install()
        model, _ = training.train(cfg, envs)  # by attribute, as the tracer wraps it
        x = envs[0].inputs
        got = bench_checks.program_logits(model, x)
    finally:
        tracer.uninstall()
    assert T.sigmoid is sigmoid
    want = bench_checks.reference_logits(bench_checks.model_layers(model), x)
    np.testing.assert_allclose(got, want, rtol=bench_checks.LOGIT_RTOL)
    metrics = tracer.metrics([layer.param.name for layer in model.layers])
    assert metrics["tensor.tape_nodes"][0] > 0
    assert metrics["masking.gate_entries"][0] == sum(layer.param.weights.size for layer in model.layers)
