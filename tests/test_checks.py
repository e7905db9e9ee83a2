"""`modnet.checks` against the central-difference loop it replaced."""

import numpy as np
import pytest

import _reference as ref
from modnet import checks
from modnet.data import EnvironmentBatch
from modnet.models import ModelConfig, build_model
from modnet.objectives import ObjectiveConfig
from modnet.regularizers import RegWeights

MODELS = {
    "mlp": (ModelConfig(arch="mlp", input_shape=(1, 1, 6), classes=3, hidden=(8,)), (4, 1, 1, 6)),
    "cnn": (ModelConfig(arch="cnn", input_shape=(1, 4, 4), classes=3, conv_channels=(2,), dense_hidden=4),
            (3, 1, 4, 4)),
}


@pytest.mark.parametrize("arch", sorted(MODELS))
@pytest.mark.parametrize("base", ["erm", "irm"])
def test_full_objective_error_matches_its_own_loop(arch, base):
    mcfg, shape = MODELS[arch]
    cfg = ObjectiveConfig(base=base, irm_lambda=10.0, irm_anneal_steps=0,
                          reg=RegWeights(alpha=0.05, beta=0.05), weight_decay=1e-3)

    def run(check):
        rng = np.random.default_rng(42)
        model = build_model(mcfg, 7)
        batches = [EnvironmentBatch(env_id, rng.normal(size=shape), rng.integers(0, 3, size=shape[0]))
                   for env_id in ("a", "b")]
        err = check(model, batches, cfg)
        return err, [t.data.tobytes() for _, t in model.named_parameters()]

    new_err, new_params = run(checks.full_objective_gradient_error)
    old_err, old_params = run(ref.full_objective_gradient_error)
    assert 0 < new_err < 1e-4
    assert repr(new_err) == repr(old_err)
    assert new_params == old_params  # every nudge is undone

