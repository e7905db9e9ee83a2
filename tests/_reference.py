"""The straightforward forms of code that modnet replaced.

Most functions here are the whole-array, branch-by-mask form that a fast
elementwise pass in the package replaced; the rest are the earlier forms of
the group specs (one index array per group) and of the full-objective
gradient check (its own central-difference loop). The package's forms must
give the same bytes; the tests compare the two on edge values, on edge
shapes and on sizes that span several blocks.
"""

import numpy as np

from modnet import tensor as T
from modnet.errors import ContractError
from modnet.masking import MaskMode
from modnet.objectives import total_objective


def sigmoid_values(xd):
    """1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 + exp(z)) elsewhere."""
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x):
    out = sigmoid_values(x.data)
    return T.apply_primitive(out, (x,), (lambda g: g * out * (1.0 - out),))


def relu(x):
    mask = x.data > 0
    return T.apply_primitive(np.where(mask, x.data, 0.0), (x,), (lambda g: g * mask,))


def square(x):
    xd = x.data
    return T.apply_primitive(xd * xd, (x,), (lambda g: g * (2.0 * xd),))


def segment_sum(x, segment_ids, num_segments):
    """bincount over flat ids, gradient gathered back by id."""
    ids = np.asarray(segment_ids)
    out = np.bincount(ids, weights=x.data, minlength=num_segments)
    return T.apply_primitive(out, (x,), (lambda g: g[ids],))


def grouped(p, spec):
    """Every spec's probabilities as flat entries with their group ids, so
    the penalties sum them by bincount."""
    return T.reshape(p, (spec.num_entries,)), spec.group_ids


def relaxed_gate(logits, temperature, rng):
    """The gate's sample: clipped uniform noise, then the sigmoid above."""
    u = np.clip(rng.uniform(size=logits.shape), 1e-12, 1.0 - 1e-12)
    z = np.log(u)
    z -= np.log1p(-u)
    z += logits
    z *= 1.0 / temperature
    return sigmoid_values(z)


def adam_step(opt, tape, grads):
    """`Adam.step` over whole arrays, operation for operation."""
    opt.t += 1
    b1c = 1.0 - opt.beta1**opt.t
    b2c = 1.0 - opt.beta2**opt.t
    for name, tensor in opt.params:
        g = tape.grad(grads, tensor)
        if g is None:
            g = np.zeros_like(tensor.data)
        m, v = opt.m[name], opt.v[name]
        np.multiply(m, opt.beta1, out=m)
        m += g * (1.0 - opt.beta1)
        np.multiply(v, opt.beta2, out=v)
        v += g * (1.0 - opt.beta2) * g
        buf = np.sqrt(v / b2c)
        buf += opt.eps
        update = m / b1c
        update *= opt.lr
        update /= buf
        tensor.data = tensor.data - update


class ListGroupSpec:
    """A group spec built from one flat index array per group: the arrays are
    concatenated, checked to partition the entries, and scattered into ids."""

    def __init__(self, layer_id, groups):
        groups = [np.asarray(g, dtype=np.intp).reshape(-1) for g in groups]
        if not groups:
            raise ContractError(f"{layer_id}: group spec needs at least one group")
        flat = np.concatenate(groups)
        n = flat.size
        if not np.array_equal(np.sort(flat), np.arange(n)):
            raise ContractError(f"{layer_id}: groups must partition indices 0..{n - 1} exactly once")
        ids = np.empty(n, dtype=np.intp)
        for gi, g in enumerate(groups):
            ids[g] = gi
        k = len(groups)
        columns = n % k == 0 and np.array_equal(ids, np.arange(n) % k)
        self.layer_id = layer_id
        self.dense_shape = (n // k, k) if columns else None
        self.groups = groups
        self.group_ids = ids
        self.num_entries = n
        self.num_groups = len(groups)


def list_spec_dense(out_dim, in_dim, layer_id=""):
    idx = np.arange(out_dim * in_dim).reshape(out_dim, in_dim)
    return ListGroupSpec(layer_id, [idx[:, i] for i in range(in_dim)])


def list_spec_dense_blocks(out_dim, in_dim, num_blocks, layer_id=""):
    width = in_dim // num_blocks
    idx = np.arange(out_dim * in_dim).reshape(out_dim, in_dim)
    return ListGroupSpec(layer_id, [idx[:, b * width : (b + 1) * width].reshape(-1) for b in range(num_blocks)])


def list_spec_conv(out_ch, in_ch, kh, kw, layer_id=""):
    idx = np.arange(out_ch * in_ch * kh * kw).reshape(out_ch, in_ch, kh, kw)
    return ListGroupSpec(layer_id, [idx[:, c].reshape(-1) for c in range(in_ch)])


def groups_of(spec):
    """The flat indices of each group of a spec, in group order."""
    return [np.flatnonzero(spec.group_ids == g) for g in range(spec.num_groups)]


def full_objective_gradient_error(model, batches, cfg, step=5, eps=1e-5):
    """One tape for every parameter, then its own central-difference loop."""
    mode = MaskMode.deterministic()
    specs = model.collect_group_specs()

    def value():
        loss, _ = total_objective(model, batches, cfg, specs, mode, None, step)
        return loss.item()

    with T.Tape() as tape:
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
