"""End-to-end acceptance gates.

Eight criteria, one test each, each printing a single PASS/FAIL line:

1. full-objective gradients match central finite differences (< 1e-4, < 30 s)
2. mask penalties equal brute-force double-loop references (1e-12, 100 cases)
3. sampled binary masks hit sigmoid(logit) frequencies (within 0.01, 1e5 draws)
4. an exported subnetwork reproduces deterministic-mode predictions bit-exactly
5. the reuse penalty can zero out noise features without hurting accuracy
6. color-shortcut task: invariance training beats pooled training out of
   distribution, and the mask penalties improve both (3 seeds, 20 min budget)
7. rotation task: held-out-angle accuracy at least 0.90, penalties cost at
   most 0.5 pp (3 seeds, 15 min budget)
8. pruning is driven by the penalties: penalty-free controls stay dense
   (mean 0.85 or more) while the regularized criterion-6 runs end sparser

Criteria 6 and 8 share one set of training runs through a module-scoped
fixture so the compute budget is paid once.
"""

import math
import time

import numpy as np
import pytest

from modnet.artifact import analyze, export_subnetwork, load_artifact, model_from_artifact
from modnet.checks import full_objective_gradient_error
from modnet.data import (
    Environment,
    EnvironmentBatch,
    MnistSet,
    build_colored_mnist,
    build_rotated_envs,
    load_mnist_set,
)
from modnet.masking import MaskMode, binarize_straight_through, sample_relaxed_mask
from modnet.models import ModelConfig, build_model
from modnet.objectives import ObjectiveConfig
from modnet.regularizers import (
    RegWeights,
    build_group_spec_conv,
    build_group_spec_dense,
    reuse_penalty,
    specialization_penalty,
)
from modnet.tensor import Tensor
from modnet.training import TrainConfig, evaluate, train


@pytest.fixture()
def report(capsys):
    """Print one live pass/fail line per criterion, then enforce it."""

    def _report(name: str, ok: bool, detail: str):
        with capsys.disabled():
            print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, f"{name}: {detail}"

    return _report


def test_criterion_1_objective_gradients(report):
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    model = build_model(ModelConfig(arch="mlp", input_shape=(1, 1, 6), classes=3, hidden=(8,)), 7)
    batches = [
        EnvironmentBatch("a", rng.normal(size=(4, 1, 1, 6)), rng.integers(0, 3, size=4)),
        EnvironmentBatch("b", rng.normal(size=(4, 1, 1, 6)), rng.integers(0, 3, size=4)),
    ]
    cfg = ObjectiveConfig(base="irm", irm_lambda=10.0, irm_anneal_steps=0,
                          reg=RegWeights(alpha=0.05, beta=0.05), weight_decay=1e-3)
    err = full_objective_gradient_error(model, batches, cfg)
    dt = time.monotonic() - t0
    report("criterion 1", err < 1e-4 and dt < 30.0,
           f"max relative gradient error {err:.2e} vs 1e-4, {dt:.1f}s vs 30s")


def _dense_groups(out_dim: int, in_dim: int) -> list[list[int]]:
    return [[r * in_dim + c for r in range(out_dim)] for c in range(in_dim)]


def _conv_groups(out_ch: int, in_ch: int, kh: int, kw: int) -> list[list[int]]:
    groups = []
    for c in range(in_ch):
        g = []
        for o in range(out_ch):
            for y in range(kh):
                for x in range(kw):
                    g.append(((o * in_ch + c) * kh + y) * kw + x)
        groups.append(g)
    return groups


def _brute_s1(flat: np.ndarray, groups: list[list[int]]) -> float:
    total = 0.0
    for g in groups:
        s = 0.0
        for idx in g:
            s += float(flat[idx])
        total += s * s
    return total


def _brute_s2(flat: np.ndarray, groups: list[list[int]]) -> float:
    total = 0.0
    for g in groups:
        s = 0.0
        for idx in g:
            s += float(flat[idx]) ** 2
        total += math.sqrt(1e-12 + s)
    return total


def test_criterion_2_penalty_oracles(report):
    rng = np.random.default_rng(777)
    worst = 0.0
    for case in range(100):
        if case % 2:
            o, i = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            spec, groups = build_group_spec_dense(o, i, "l"), _dense_groups(o, i)
            probs = rng.uniform(size=(o, i))
        else:
            o, c, kh, kw = (int(rng.integers(1, 4)) for _ in range(4))
            spec, groups = build_group_spec_conv(o, c, kh, kw, "l"), _conv_groups(o, c, kh, kw)
            probs = rng.uniform(size=(o, c, kh, kw))
        s1 = specialization_penalty({"l": Tensor(probs)}, {"l": spec}).item()
        s2 = reuse_penalty({"l": Tensor(probs)}, {"l": spec}).item()
        flat = probs.reshape(-1)
        worst = max(worst, abs(s1 - _brute_s1(flat, groups)), abs(s2 - _brute_s2(flat, groups)))
    report("criterion 2", worst <= 1e-12,
           f"max |penalty - brute force| = {worst:.2e} over 100 cases vs 1e-12")


def test_criterion_3_mask_distribution(report):
    rng = np.random.default_rng(2024)
    n = 100_000
    worst = 0.0
    for logit in (-2.0, 0.0, 0.5, 3.0):
        relaxed = sample_relaxed_mask(Tensor(np.full(n, logit)), 5.0, rng)
        emp = float(binarize_straight_through(relaxed).data.mean())
        worst = max(worst, abs(emp - 1.0 / (1.0 + math.exp(-logit))))
    report("criterion 3", worst <= 0.01,
           f"max |empirical p - sigmoid(l)| = {worst:.4f} over 1e5 draws vs 0.01")


def test_criterion_4_extraction_equivalence(report, tmp_path):
    rng = np.random.default_rng(5)
    model = build_model(ModelConfig(arch="mlp", input_shape=(1, 1, 12), classes=4, hidden=(9, 7)), 21)
    for p in model.masked_params():  # flip some logits so the mask actually prunes
        flip = rng.uniform(size=p.mask_logits.shape) < 0.3
        p.mask_logits.data[flip] *= -1.0
    x = Tensor(rng.normal(size=(1000, 1, 1, 12)))
    mode = MaskMode.deterministic()
    ref = model.forward(x, mode).data
    path = tmp_path / "m.subnet.json"
    export_subnetwork(model, path)
    got = model_from_artifact(load_artifact(path)).forward(x, mode).data
    ok = np.array_equal(ref, got)
    report("criterion 4", ok, f"predictions bit-exact on {x.shape[0]} samples: {ok}")


def _gauss_env(n: int, seed: int, env_id: str, role: str) -> Environment:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 10))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    return Environment(env_id=env_id, inputs=x.reshape(n, 1, 1, 10), labels=y, role=role)


def test_criterion_5_group_zeroing(report):
    t0 = time.monotonic()
    tr = _gauss_env(4096, 11, "tr", "train")
    te = _gauss_env(2048, 12, "te", "test")
    mcfg = ModelConfig(arch="mlp", input_shape=(1, 1, 10), classes=2, hidden=(16,))
    base_acc = None
    witness = None
    for beta in (0.0, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1):
        ocfg = ObjectiveConfig(base="erm", reg=RegWeights(alpha=0.0, beta=beta))
        cfg = TrainConfig(model=mcfg, objective=ocfg, steps=1200, batch_size=128,
                          lr=2.5e-3, eval_interval=1200, seed=3)
        model, _ = train(cfg, [tr], [te])
        acc = evaluate(model, te, 512)
        reuse = analyze(export_subnetwork(model, None)).reuse["dense0"]
        zeroed = int(np.sum(reuse[2:] == 0))  # features 2..9 carry no signal
        if beta == 0.0:
            base_acc = acc
        elif witness is None and zeroed >= 6 and acc >= base_acc - 0.02:
            witness = (beta, zeroed, acc)
    dt = time.monotonic() - t0
    ok = witness is not None and dt < 300.0
    detail = (f"beta {witness[0]:g} zeroes {witness[1]}/8 noise features, "
              f"test {witness[2]:.4f} vs baseline {base_acc:.4f}, {dt:.0f}s vs 300s"
              if witness else f"no beta in the sweep qualified (baseline {base_acc:.4f}), {dt:.0f}s")
    report("criterion 5", ok, detail)


# Frozen schedules for the color-shortcut runs. The pooled-training pair
# needs the higher lr so penalty gradients can walk logits across zero
# within the run; the invariance pair keeps the default lr (the penalty
# ramp rescales the whole loss at activation, freezing later travel) and
# ramps at step 150, after features form but early enough to rotate.
#             base    steps  ramp  alpha  lr
C6_ARMS = {
    "erm":     ("erm", 1000, 0,   0.0,   2.5e-3),
    "erm+reg": ("erm", 1000, 0,   5e-7,  2.5e-3),
    "irm":     ("irm", 600,  150, 0.0,   1e-3),
    "irm+reg": ("irm", 600,  150, 1e-5,  1e-3),
}


def _run_arm(base, steps, ramp, alpha, lr, seed, train_envs, eval_envs, mcfg, key):
    ocfg = ObjectiveConfig(base=base, irm_lambda=1e4, irm_anneal_steps=ramp,
                           reg=RegWeights(alpha=alpha, beta=alpha))
    cfg = TrainConfig(model=mcfg, objective=ocfg, steps=steps, batch_size=128,
                      lr=lr, eval_interval=steps, seed=seed)
    model, rows = train(cfg, train_envs, eval_envs)
    last = rows[-1]
    return last.accuracies[key], float(np.mean(list(last.densities.values())))


@pytest.fixture(scope="module")
def cmnist_runs(synth_corpus):
    """All 12 color-shortcut runs (4 arms x 3 seeds), shared by criteria 6 and 8."""
    base_train = load_mnist_set(synth_corpus["train_images"], synth_corpus["train_labels"])
    base_test = load_mnist_set(synth_corpus["test_images"], synth_corpus["test_labels"])
    tr_base = MnistSet(images=base_train.images[:10000], labels=base_train.labels[:10000])
    te_base = MnistSet(images=base_test.images[:5000], labels=base_test.labels[:5000])
    trs = build_colored_mnist(tr_base, [("e0", 0.1), ("e1", 0.2)], label_noise=0.25, seed=0, role="train")
    tes = build_colored_mnist(te_base, [("test", 0.9)], label_noise=0.25, seed=1, role="test")
    mcfg = ModelConfig(arch="mlp", input_shape=(2, 28, 28), classes=2, hidden=(256, 256))
    t0 = time.monotonic()
    out = {}
    for tag, arm in C6_ARMS.items():
        pairs = [_run_arm(*arm, s, trs, tes, mcfg, "test") for s in (0, 1, 2)]
        out[tag] = {"accs": [p[0] for p in pairs], "dens": [p[1] for p in pairs]}
    out["wall"] = time.monotonic() - t0
    return out


def test_criterion_6_color_shortcut(report, cmnist_runs):
    mean = {tag: float(np.mean(cmnist_runs[tag]["accs"])) for tag in C6_ARMS}
    ok = (
        0.10 <= mean["erm"] <= 0.40
        and mean["irm"] >= 0.60
        and mean["erm+reg"] > mean["erm"]
        and mean["irm+reg"] > mean["irm"]
        and cmnist_runs["wall"] <= 1200.0
    )
    report("criterion 6", ok,
           f"erm {mean['erm']:.3f} in [0.10, 0.40], irm {mean['irm']:.3f} >= 0.60, "
           f"erm+reg {mean['erm+reg']:.3f} > erm, irm+reg {mean['irm+reg']:.3f} > irm, "
           f"{cmnist_runs['wall']:.0f}s vs 1200s")


@pytest.fixture(scope="module")
def rmnist_runs(synth_corpus):
    """Six rotation runs (2 arms x 3 seeds) for criterion 7."""
    base = load_mnist_set(synth_corpus["train_images"], synth_corpus["train_labels"])
    envs = build_rotated_envs(base, angles=(0, 15, 30, 45, 60, 75), test_angle=0,
                              per_env_count=1000, seed=0)
    rtr = [e for e in envs if e.role == "train"]
    rte = [e for e in envs if e.role == "test"]
    mcfg = ModelConfig(arch="mlp", input_shape=(1, 28, 28), classes=10, hidden=(256, 256))
    t0 = time.monotonic()
    out = {}
    for alpha, tag in ((0.0, "plain"), (1e-5, "modreg")):
        arm = ("erm", 1000, 0, alpha, 1e-3)
        out[tag] = [_run_arm(*arm, s, rtr, rte, mcfg, "rot0")[0] for s in (0, 1, 2)]
    out["wall"] = time.monotonic() - t0
    return out


def test_criterion_7_rotation_holdout(report, rmnist_runs):
    plain = float(np.mean(rmnist_runs["plain"]))
    modreg = float(np.mean(rmnist_runs["modreg"]))
    ok = plain >= 0.90 and modreg >= plain - 0.005 and rmnist_runs["wall"] <= 900.0
    report("criterion 7", ok,
           f"plain {plain:.3f} >= 0.90, modreg {modreg:.3f} within 0.5 pp "
           f"({modreg - plain:+.3f}), {rmnist_runs['wall']:.0f}s vs 900s")


def test_criterion_8_penalties_drive_pruning(report, cmnist_runs):
    ctrl = float(np.mean(cmnist_runs["erm"]["dens"] + cmnist_runs["irm"]["dens"]))
    modreg = float(np.mean(cmnist_runs["erm+reg"]["dens"] + cmnist_runs["irm+reg"]["dens"]))
    ok = ctrl >= 0.85 and modreg < ctrl
    report("criterion 8", ok,
           f"control density {ctrl:.4f} >= 0.85, regularized {modreg:.4f} < control")
