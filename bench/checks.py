"""Output checks that do not take modnet's word for its own results.

The reference is the benchmark's own numpy forward pass, computed from the
weights, mask bits and biases in the artifact file as the benchmark itself
parsed it. Against it the checks compare the trained model, the reloaded
subnetwork, `evaluate`'s accuracies and `analyze`'s report. The rest are
properties the method must have: finite parameters, accuracy above chance,
and a risk below the risk before training.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np

CHUNK = 4096
# logits agree "to within rounding": float64 work of a few thousand terms
LOGIT_RTOL = 1e-9


def artifact_layers(doc: dict) -> list[tuple[str, np.ndarray, np.ndarray, np.ndarray, bool]]:
    """(name, weights, mask bits, bias, relu?) per layer of an artifact document."""
    layers = []
    for rec in doc["layers"]:
        if rec["kind"] != "dense":
            raise ValueError(f"{rec['name']}: the reference forward pass covers dense layers only")
        shape = tuple(rec["shape"])
        layers.append((
            rec["name"],
            np.asarray(rec["weights"], dtype=np.float64).reshape(shape),
            np.asarray(rec["mask"], dtype=np.float64).reshape(shape),
            np.asarray(rec["bias"], dtype=np.float64),
            rec.get("activation") == "relu",
        ))
    return layers


def model_layers(model) -> list[tuple[str, np.ndarray, np.ndarray, np.ndarray, bool]]:
    """The same tuples for a live model, with the mask taken as logit > 0."""
    return [
        (layer.param.name, layer.param.weights.data, (layer.param.mask_logits.data > 0).astype(np.float64),
         layer.bias.data, layer.activation == "relu")
        for layer in model.layers
    ]


def reference_logits(layers, x: np.ndarray) -> np.ndarray:
    h = x.reshape(len(x), -1)
    for _, w, m, b, relu in layers:
        h = h @ (w * m).T + b
        if relu:
            h = np.where(h > 0, h, 0.0)
    return h


def program_logits(model, x: np.ndarray) -> np.ndarray:
    from modnet.masking import MaskMode
    from modnet.tensor import Tensor

    return model.apply_with(model.effective_parameters(MaskMode.deterministic()), Tensor(x)).data


def cross_entropy_sum(logits: np.ndarray, labels: np.ndarray) -> float:
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(labels)), labels].sum())


def check_finite(model) -> list[str]:
    return [f"{name}: non-finite values after training"
            for name, t in model.named_parameters() if not np.all(np.isfinite(t.data))]


def check_artifact(doc: dict, model) -> list[str]:
    """The file holds the trained model's parameters, exactly, and its masks."""
    problems = []
    trained = {name: (w, m, b) for name, w, m, b, _ in model_layers(model)}
    layers = artifact_layers(doc)
    if [name for name, *_ in layers] != list(trained):
        return [f"artifact layers {[name for name, *_ in layers]} != model layers {list(trained)}"]
    for name, w, m, b, _ in layers:
        tw, tm, tb = trained[name]
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            problems.append(f"{name}: non-finite parameters in the artifact")
        if not np.array_equal(w, tw):
            problems.append(f"{name}: {int(np.sum(w != tw))} artifact weights differ from the trained model")
        if not np.array_equal(b, tb):
            problems.append(f"{name}: artifact bias differs from the trained model")
        if not np.array_equal(m, tm):
            problems.append(f"{name}: {int(np.sum(m != tm))} mask bits differ from logit > 0")
    return problems


def check_outputs(doc: dict, trained, loaded, envs, accs: dict[str, float]) -> list[str]:
    """Reference logits against the trained and the reloaded model on every
    sample; reference predictions and accuracy against `evaluate`'s."""
    problems = []
    layers = artifact_layers(doc)
    for env in envs:
        correct = 0
        worst = {"trained model": 0.0, "reloaded subnetwork": 0.0}
        mismatched = 0
        for start in range(0, len(env), CHUNK):
            x = env.inputs[start : start + CHUNK]
            ref = reference_logits(layers, x)
            scale = 1.0 + np.abs(ref)
            got = program_logits(trained, x)
            worst["trained model"] = max(worst["trained model"], float(np.max(np.abs(got - ref) / scale)))
            got = program_logits(loaded, x)
            worst["reloaded subnetwork"] = max(worst["reloaded subnetwork"], float(np.max(np.abs(got - ref) / scale)))
            pred = np.argmax(ref, axis=1)
            mismatched += int(np.sum(pred != np.argmax(got, axis=1)))
            correct += int(np.sum(pred == env.labels[start : start + CHUNK]))
        for label, err in worst.items():
            if not err <= LOGIT_RTOL:
                problems.append(f"{env.env_id}: {label} logits differ from the reference by {err:.3g} (relative)")
        if mismatched:
            problems.append(f"{env.env_id}: {mismatched} reloaded predictions differ from the reference")
        if accs.get(env.env_id) != correct / len(env):
            problems.append(f"{env.env_id}: evaluate() gave {accs.get(env.env_id)}, "
                            f"the reference gives {correct}/{len(env)}")
    return problems


def check_analysis(doc: dict, report) -> list[str]:
    """analyze()'s density and per-feature reuse against the mask bits."""
    problems = []
    for name, _, m, _, _ in artifact_layers(doc):
        density = float(m.mean())
        if report.density.get(name) != density:
            problems.append(f"{name}: analyze density {report.density.get(name)} != mask mean {density}")
        reuse = m.sum(axis=0).astype(np.int64)
        if name not in report.reuse or not np.array_equal(np.asarray(report.reuse[name]), reuse):
            problems.append(f"{name}: analyze reuse differs from the mask's column sums")
    return problems


def mean_risk(layers, envs) -> float:
    """Mean cross entropy over every sample of `envs`, from the reference pass."""
    total = 0.0
    for env in envs:
        for s in range(0, len(env), CHUNK):
            total += cross_entropy_sum(reference_logits(layers, env.inputs[s : s + CHUNK]), env.labels[s : s + CHUNK])
    return total / sum(len(e) for e in envs)


def check_learning(workload, objective, doc: dict, initial, train_envs, accs: dict[str, float], rows) -> list[str]:
    """Properties of a trained model: accuracy above chance on the training
    environments (and on the held-out one, where the workload names one),
    and a risk below that of the initial model (`initial`, the model before
    step 1) over every training sample.

    erm: the exported subnetwork's risk over every training sample. irm: the
    ramped penalty trades pooled risk for invariance, so the risk may end
    above where it began; there the risk `train()` logged at its last
    evaluation before the ramp stands in for it."""
    problems = []
    n = sum(len(e) for e in train_envs)
    train_acc = sum(accs[e.env_id] * len(e) for e in train_envs) / n
    if not train_acc > workload.chance:
        problems.append(f"training accuracy {train_acc:.4f} is not above chance {workload.chance}")
    if workload.held_out is not None and not accs[workload.held_out] > workload.chance:
        problems.append(f"held-out accuracy {accs[workload.held_out]:.4f} is not above chance {workload.chance}")
    start = mean_risk(model_layers(initial), train_envs)
    if objective.base == "irm":
        before = [r for r in rows if r.step <= objective.irm_anneal_steps]
        if not before:
            return problems + ["no evaluation before the penalty ramp"]
        risk, what = before[-1].risk, f"risk at step {before[-1].step}, the last evaluation before the ramp,"
    else:
        risk, what = mean_risk(artifact_layers(doc), train_envs), "final risk"
    if not risk < start:
        problems.append(f"{what} {risk:.4f} is not below the initial risk {start:.4f}")
    return problems
