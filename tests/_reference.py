"""The straightforward forms of modnet's fast elementwise passes.

Each function here is the whole-array, branch-by-mask form that a fast pass
in the package replaced. The fast forms must give the same bytes; the tests
compare the two on edge values and on sizes that span several blocks.
"""

import numpy as np

from modnet import tensor as T


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
