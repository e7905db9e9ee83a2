"""The optimization loop: Adam over weights, biases, and mask logits jointly,
with a geometric mask-temperature schedule and periodic evaluation.

Reproducibility contract: every source of randomness is derived from the
config seed. Step k's mask noise comes from default_rng([seed, k]); batch
order from (seed, epoch, env digest). Two runs with one config are
bit-identical.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifact import atomic_open, export_subnetwork
from .data import Environment, batch_iter
from .errors import ConfigError, DataError, TrainingError
from .masking import MaskMode
from .models import Model, ModelConfig, build_model
from .objectives import Breakdown, ObjectiveConfig, total_objective
from .regularizers import GroupSpec
from .tensor import Tape, Tensor


class Adam:
    """Standard Adam over named tensors. Updates are written back into each
    tensor's data as a fresh array (old arrays stay valid on live tapes); the
    moments are updated in place."""

    def __init__(self, named_params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        self.params = list(named_params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in self.params}
        self.v = {name: np.zeros_like(t.data) for name, t in self.params}
        # one buffer for every parameter's temporaries, viewed at its shape
        self._scratch = np.empty(max((t.data.size for _, t in self.params), default=0))

    def step(self, tape: Tape, grads: dict) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for name, tensor in self.params:
            g = tape.grad(grads, tensor)
            if g is None:
                g = np.zeros_like(tensor.data)
            elif not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient for parameter {name!r} at step {self.t}")
            # the arithmetic, operation for operation, of
            # m = beta1 * m + (1 - beta1) * g
            # v = beta2 * v + (1 - beta2) * g * g
            # data = data - lr * (m / b1c) / (sqrt(v / b2c) + eps)
            m, v = self.m[name], self.v[name]
            buf = self._scratch[: m.size].reshape(m.shape)
            np.multiply(m, self.beta1, out=m)
            np.multiply(g, 1.0 - self.beta1, out=buf)
            m += buf
            np.multiply(v, self.beta2, out=v)
            np.multiply(g, 1.0 - self.beta2, out=buf)
            buf *= g
            v += buf
            np.divide(v, b2c, out=buf)
            np.sqrt(buf, out=buf)
            buf += self.eps
            update = np.divide(m, b1c, out=np.empty_like(m))
            update *= self.lr
            update /= buf
            tensor.data = np.subtract(tensor.data, update, out=update)


def temperature(step: int, tau0: float, tau_min: float, anneal_steps: int) -> float:
    """Geometric interpolation tau0 -> tau_min over anneal_steps, then flat."""
    if not tau_min > 0 or tau0 < tau_min:
        raise ConfigError(f"need tau0 >= tau_min > 0, got tau0={tau0}, tau_min={tau_min}")
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")
    if anneal_steps <= 0 or step >= anneal_steps:
        frac = 1.0
    else:
        frac = step / anneal_steps
    return float(tau0 * (tau_min / tau0) ** frac)


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    objective: ObjectiveConfig
    steps: int = 500
    batch_size: int = 128
    lr: float = 1e-3
    tau0: float = 5.0
    tau_min: float = 0.5
    tau_anneal_steps: int | None = None  # None: first half of training
    seed: int = 0
    eval_interval: int = 100
    out_dir: str | None = None

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1 or self.eval_interval < 1:
            raise ConfigError("steps, batch_size, and eval_interval must be >= 1")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not self.tau_min > 0 or self.tau0 < self.tau_min:
            raise ConfigError(f"need tau0 >= tau_min > 0, got tau0={self.tau0}, tau_min={self.tau_min}")
        if self.tau_anneal_steps is not None and self.tau_anneal_steps < 0:
            raise ConfigError(f"tau_anneal_steps must be >= 0, got {self.tau_anneal_steps}")

    @property
    def anneal_steps(self) -> int:
        return self.tau_anneal_steps if self.tau_anneal_steps is not None else self.steps // 2


@dataclass
class MetricsRow:
    """One log row, taken after every `eval_interval`-th step and the last.

    `risk`, `irm`, `l2`, `s1`, `s2` and `train_accuracy` are the logging
    step's own `Breakdown`: values on that step's training batches (one per
    training environment) under that step's sampled masks, before the
    stability rescale. `irm` is unweighted; `s1` and `s2` are the penalties
    times alpha and beta. They are single-batch figures, and an epoch's tail
    batch can be small (8 samples for 5000 samples at batch 128). Only
    `accuracies` (deterministic masks) cover whole environments.
    """

    step: int
    risk: float
    irm: float
    l2: float
    s1: float
    s2: float
    temperature: float
    train_accuracy: float
    accuracies: dict[str, float]  # eval accuracy per env_id
    densities: dict[str, float]  # alive-mask fraction per layer


def evaluate(model: Model, env: Environment, batch_size: int = 256) -> float:
    """Deterministic-mask accuracy. Argmax ties resolve to the lowest class."""
    effs = model.effective_parameters(MaskMode.deterministic())
    correct = 0
    for start in range(0, len(env), batch_size):
        x = Tensor(env.inputs[start : start + batch_size])
        logits = model.apply_with(effs, x)
        pred = np.argmax(logits.data, axis=1)
        correct += int((pred == env.labels[start : start + batch_size]).sum())
    return correct / len(env)


class _BatchStream:
    """Endless round-robin batches for one environment, one epoch at a time."""

    def __init__(self, env: Environment, batch_size: int, seed: int):
        self.env = env
        self.batch_size = batch_size
        self.seed = seed
        self.epoch = 0
        self._it = batch_iter(env, batch_size, seed, 0)

    def next(self):
        try:
            return next(self._it)
        except StopIteration:
            self.epoch += 1
            self._it = batch_iter(self.env, self.batch_size, self.seed, self.epoch)
            return next(self._it)


def _train_step(cfg: TrainConfig, model: Model, specs: dict[str, GroupSpec], opt: Adam,
                streams: list[_BatchStream], step: int, tau: float) -> Breakdown:
    """One optimizer step. Its batches, tape and gradients are locals, so
    they are freed on return instead of living through the next step."""
    rng = np.random.default_rng([cfg.seed, step])
    batches = [s.next() for s in streams]
    with Tape() as tape:
        loss, bd = total_objective(
            model, batches, cfg.objective, specs, MaskMode.stochastic(tau), rng, step
        )
        grads = tape.backward(loss)
    opt.step(tape, grads)
    return bd


def train(
    cfg: TrainConfig,
    train_envs: list[Environment],
    eval_envs: list[Environment] = (),
) -> tuple[Model, list[MetricsRow]]:
    """Run the step loop and return the trained model plus the metrics log.

    Writes metrics.csv and model.subnet.json into cfg.out_dir when set.
    """
    if not train_envs:
        raise DataError("train() needs at least one training environment")
    all_envs = [*train_envs, *eval_envs]
    ids = [e.env_id for e in all_envs]
    if len(set(ids)) != len(ids):
        raise DataError(f"duplicate env_id among {ids}")

    model = build_model(cfg.model, cfg.seed)
    specs = model.collect_group_specs()
    opt = Adam(model.named_parameters(), lr=cfg.lr)
    streams = [_BatchStream(env, cfg.batch_size, cfg.seed) for env in train_envs]

    rows: list[MetricsRow] = []
    for step in range(cfg.steps):
        tau = temperature(step, cfg.tau0, cfg.tau_min, cfg.anneal_steps)
        bd = _train_step(cfg, model, specs, opt, streams, step, tau)
        if (step + 1) % cfg.eval_interval == 0 or step == cfg.steps - 1:
            accs = {env.env_id: evaluate(model, env, cfg.batch_size) for env in all_envs}
            rows.append(
                MetricsRow(
                    step=step + 1,
                    risk=bd.risk, irm=bd.irm, l2=bd.l2, s1=bd.s1, s2=bd.s2,
                    temperature=tau,
                    train_accuracy=bd.train_accuracy,
                    accuracies=accs,
                    densities=model.mask_density(),
                )
            )

    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(rows, out / "metrics.csv")
        export_subnetwork(
            model,
            out / "model.subnet.json",
            meta={
                "seed": cfg.seed,
                "steps": cfg.steps,
                "objective": cfg.objective.base,
                "final_metrics": _row_values(rows[-1]) if rows else {},
            },
        )
    return model, rows


def _row_values(row: MetricsRow) -> dict:
    out = {
        "step": row.step, "risk": row.risk, "irm": row.irm, "l2": row.l2,
        "s1": row.s1, "s2": row.s2, "temperature": row.temperature,
    }
    for env_id in sorted(row.accuracies):
        out[f"acc_{env_id}"] = row.accuracies[env_id]
    for layer in row.densities:
        out[f"density_{layer}"] = row.densities[layer]
    return out


def write_metrics_csv(rows: list[MetricsRow], path) -> None:
    if not rows:
        raise DataError("no metric rows to write")
    header = list(_row_values(rows[0]).keys())
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            vals = _row_values(row)
            writer.writerow([vals[k] for k in header])
