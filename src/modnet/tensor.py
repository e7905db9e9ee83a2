"""Minimal dense-tensor reverse-mode autodiff engine (float64, CPU only).

Operations execute eagerly on numpy arrays. While a :class:`Tape` is active,
every op touching a grad-requiring tensor appends its backward rule to the
tape, so the record order is topological by construction. A tape lives for
one training step and is discarded after :meth:`Tape.backward`.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DataError, ShapeError

Array = np.ndarray

_TAPE_STACK: list["Tape"] = []

# Entries per pass of the elementwise loops over parameter-sized arrays: the
# sigmoid, the gate, the penalties' vjps and Adam. A block's temporaries
# (128 KiB each) stay in a core's L2 cache and are reused by the allocator,
# where whole-array temporaries stream through memory and take fresh pages
# on every pass. On a 2-core Xeon (numpy 2.4, fastest of 40 calls) the
# gate's noise and sigmoid over a 401k-entry layer took 6.7 ms in blocks of
# 16384 against 12.5 ms whole, and an Adam step over the 935k parameters of
# a 1568-256-256-2 MLP 8.7-10.0 ms against 10.3-11.5 ms whole. In one sweep
# of block sizes that step took 16.0-17.0 ms at 2048, 10.5-10.9 ms at 16384
# and 11.6-11.7 ms at 65536.
_BLOCK = 16384


def _flat_blocks(*arrays: Array):
    """Yield matching `_BLOCK`-sized slices of the C-order flattenings of
    same-size arrays. A C-contiguous array's slices are views, so writing
    them writes the array."""
    flats = [a.reshape(-1) for a in arrays]
    for i in range(0, flats[0].size, _BLOCK):
        yield [f[i : i + _BLOCK] for f in flats]


def _active_tape() -> "Tape | None":
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """A dense float64 array, optionally tracked on the active gradient tape."""

    __slots__ = ("data", "requires_grad", "node_id", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.node_id: int | None = None
        self._tape: weakref.ref[Tape] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; the module-level functions do the real work.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return subtract(self, _as_tensor(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scalar_multiply(self, float(other))
        return multiply(self, other)

    __radd__ = __add__
    __rmul__ = __mul__


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class Tape:
    """Append-ordered record of executed differentiable operations.

    Entering the context makes this the active tape. Node ids are handles
    assigned per tape; a tensor carries the id given by the most recent tape
    that registered it, and a weak reference to that tape, so a tensor that
    outlives a step (a parameter) does not keep the step's tape alive.
    """

    def __init__(self):
        self._records: list[tuple[int, tuple[tuple[int, Callable[[Array], Array]], ...]]] = []
        self._num_nodes = 0
        self._ref = weakref.ref(self)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tape context exited out of order"
        return False

    def _owns(self, t: Tensor) -> bool:
        """Whether `t` was last registered on this tape."""
        return t._tape is self._ref

    def _node(self, t: Tensor) -> int:
        if t._tape is not self._ref:
            t._tape = self._ref
            t.node_id = self._num_nodes
            self._num_nodes += 1
        return t.node_id  # type: ignore[return-value]

    def _record(self, out: Tensor, inputs: Sequence[Tensor], vjps: Sequence[Callable | None]) -> None:
        pulls = tuple(
            (self._node(inp), vjp)
            for inp, vjp in zip(inputs, vjps)
            if inp.requires_grad and vjp is not None
        )
        out.requires_grad = True
        self._records.append((self._node(out), pulls))

    def backward(self, loss: Tensor) -> dict[int, Array]:
        """Return {node_id: gradient} for every leaf reachable from `loss`.

        A leaf is a grad-requiring tensor that no op on this tape produced:
        a parameter or an input. An op output's cotangent is dropped as soon
        as its vjps have run, so the pass holds only the cotangents still
        waiting for a consumer. Leaves the tape unchanged, so repeat calls
        give bit-identical maps.
        """
        if loss.data.shape != ():
            raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
        if not self._owns(loss):
            raise ContractError("loss was not recorded on this tape")
        acc: dict[int, Array] = {loss.node_id: np.ones((), dtype=np.float64)}
        for out_id, pulls in reversed(self._records):
            g = acc.pop(out_id, None)
            if g is None:
                continue
            # not `+=`: a vjp may hand back its incoming array itself
            for in_id, vjp in pulls:
                acc[in_id] = acc[in_id] + vjp(g) if in_id in acc else vjp(g)
        return acc

    def grad(self, grads: dict[int, Array], t: Tensor) -> Array | None:
        """Look up the gradient array for `t` in a map from :meth:`backward`."""
        return grads.get(t.node_id) if self._owns(t) else None


def apply_primitive(
    out_data: Array,
    inputs: Sequence[Tensor],
    vjps: Sequence[Callable[[Array], Array] | None],
) -> Tensor:
    """Wrap an already-computed forward value as an op output.

    `vjps[i]` maps the output cotangent to input i's cotangent; pass None for
    non-differentiable inputs. This is the extension point for fused ops
    defined outside this module.
    """
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None and any(i.requires_grad for i in inputs):
        tape._record(out, inputs, vjps)
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    axes = tuple(ax for ax, s in enumerate(shape) if s == 1 and grad.shape[ax] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    ash, bsh = a.shape, b.shape
    return apply_primitive(
        a.data + b.data,
        (a, b),
        (lambda g: _unbroadcast(g, ash), lambda g: _unbroadcast(g, bsh)),
    )


def subtract(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "subtract")
    ash, bsh = a.shape, b.shape
    return apply_primitive(
        a.data - b.data,
        (a, b),
        (lambda g: _unbroadcast(g, ash), lambda g: _unbroadcast(-g, bsh)),
    )


def multiply(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "multiply")
    ad, bd = a.data, b.data
    return apply_primitive(
        ad * bd,
        (a, b),
        (lambda g: _unbroadcast(g * bd, ad.shape), lambda g: _unbroadcast(g * ad, bd.shape)),
    )


def scalar_multiply(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return apply_primitive(a.data * c, (a,), (lambda g: g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    return apply_primitive(ad @ bd, (a, b), (lambda g: g @ bd.T, lambda g: ad.T @ g))


def linear(x: Tensor, w: Tensor) -> Tensor:
    """x @ w.T for x (batch, in) and w (out, in): a dense layer's product.

    Equal to matmul(x, w.T) in value and input gradient; the weight
    gradient g.T @ x comes back C-contiguous, in w's own layout, so the
    elementwise passes over it downstream do not mix memory orders.
    """
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"linear expects 2-D operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear: input width {x.shape[1]} does not match weights {w.shape}")
    xd, wd = x.data, w.data
    return apply_primitive(xd @ wd.T, (x, w), (lambda g: g @ wd, lambda g: g.T @ xd))


def relu(x: Tensor) -> Tensor:
    # fmax maps NaN to 0 as the comparison x > 0 does, and adding +0.0 turns
    # the -0.0 it may return into +0.0. Subgradient at exactly 0 is 0.
    out = np.fmax(x.data, 0.0)
    out += 0.0
    return apply_primitive(out, (x,), (lambda g: g * (out > 0),))


def _sigmoid_block(z: Array, out: Array) -> None:
    """Write sigmoid(z) into `out` with one exp per entry.

    1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z)) elsewhere, so
    neither branch overflows: min(z, -z) is -z or z exactly, and keeps the
    sign of a NaN as exp(z) does.
    """
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    np.maximum(e, z >= 0, out=out)  # the numerator: 1 where z >= 0, else exp(z)
    e += 1.0
    out /= e


def sigmoid(x: Tensor) -> Tensor:
    out = np.empty(x.data.shape)
    for zb, ob in _flat_blocks(x.data, out):
        _sigmoid_block(zb, ob)

    def vjp(g: Array) -> Array:
        d = np.empty(out.shape)
        for db, gb, ob in _flat_blocks(d, g, out):
            np.multiply(gb, ob, out=db)
            db *= 1.0 - ob
        return d

    return apply_primitive(out, (x,), (vjp,))


def square(x: Tensor) -> Tensor:
    xd = x.data

    def vjp(g: Array) -> Array:
        d = np.empty(xd.shape)
        for db, gb, xb in _flat_blocks(d, g, xd):
            np.multiply(xb, 2.0, out=db)
            np.multiply(gb, db, out=db)
        return d

    return apply_primitive(xd * xd, (x,), (vjp,))


def sqrt(x: Tensor) -> Tensor:
    # Callers keep inputs strictly positive; the derivative blows up at 0.
    out = np.sqrt(x.data)
    return apply_primitive(out, (x,), (lambda g: g * (0.5 / out),))


def reduce_sum(x: Tensor, axis: int | tuple[int, ...] | None = None) -> Tensor:
    xd = x.data
    out = xd.sum(axis=axis)
    if axis is None:
        vjp = lambda g: np.full(xd.shape, g)
    else:
        vjp = lambda g: np.broadcast_to(np.expand_dims(g, axis), xd.shape).copy()
    return apply_primitive(out, (x,), (vjp,))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    old = x.data.shape
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {old} as {shape}") from None
    return apply_primitive(out, (x,), (lambda g: g.reshape(old),))


def max_pool2x2(x: Tensor) -> Tensor:
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"max-pool expects (N, C, H, W), got {x.shape}")
    n, c, h, w = xd.shape
    if h % 2 or w % 2:
        raise ShapeError(f"max-pool 2x2 needs even spatial dims, got {h}x{w}")
    hh, ww = h // 2, w // 2
    blocks = xd.reshape(n, c, hh, 2, ww, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, hh, ww, 4)
    idx = blocks.argmax(axis=-1)  # first max wins ties, deterministically
    out = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]

    def vjp(g: Array) -> Array:
        db = np.zeros((n, c, hh, ww, 4))
        np.put_along_axis(db, idx[..., None], g[..., None], axis=-1)
        return db.reshape(n, c, hh, ww, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)

    return apply_primitive(out, (x,), (vjp,))


def conv2d(x: Tensor, w: Tensor, padding: str = "valid") -> Tensor:
    """2-D convolution, stride 1, zero padding 'valid' or 'same'.

    x: (N, C, H, W), w: (O, C, kh, kw). Implemented by explicit patch
    expansion; correctness over speed.
    """
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and kernel, got {x.shape} and {w.shape}")
    n, c, h, wdt = xd.shape
    o, cw, kh, kw = wd.shape
    if c != cw:
        raise ShapeError(f"conv2d: input has {c} channels but kernel expects {cw}")
    if padding == "valid":
        pt = pb = pl = pr = 0
    elif padding == "same":
        pt, pl = (kh - 1) // 2, (kw - 1) // 2
        pb, pr = kh - 1 - pt, kw - 1 - pl
    else:
        raise ConfigError(f"conv2d padding must be 'valid' or 'same', got {padding!r}")
    xp = np.pad(xd, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    hp, wp = xp.shape[2], xp.shape[3]
    oh, ow = hp - kh + 1, wp - kw + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than padded input {hp}x{wp}")

    cols = np.empty((n, c, kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + oh, j : j + ow]
    out = np.einsum("ocij,ncijhw->nohw", wd, cols, optimize=True)

    def vjp_x(g: Array) -> Array:
        dcols = np.einsum("nohw,ocij->ncijhw", g, wd, optimize=True)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i : i + oh, j : j + ow] += dcols[:, :, i, j]
        return dxp[:, :, pt : pt + h, pl : pl + wdt]

    def vjp_w(g: Array) -> Array:
        return np.einsum("nohw,ncijhw->ocij", g, cols, optimize=True)

    return apply_primitive(out, (x, w), (vjp_x, vjp_w))


def _check_logits_labels(logits: Tensor, labels) -> Array:
    """Validate (batch, classes) logits against integer class labels; return
    the labels as an array."""
    zd = logits.data
    if zd.ndim != 2:
        raise ShapeError(f"expected (batch, classes) logits, got {logits.shape}")
    lab = np.asarray(labels)
    if lab.ndim != 1 or lab.shape[0] != zd.shape[0]:
        raise ShapeError(f"labels shape {lab.shape} does not match batch size {zd.shape[0]}")
    if lab.size == 0:
        raise DataError("empty batch")
    if not np.issubdtype(lab.dtype, np.integer):
        raise DataError(f"labels must be integers, got dtype {lab.dtype}")
    k = zd.shape[1]
    if lab.min() < 0 or lab.max() >= k:
        raise DataError(f"label out of range [0, {k}): saw {int(lab.min())}..{int(lab.max())}")
    return lab


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Fused softmax + cross entropy, averaged over the batch.

    labels: integer array of shape (batch,); not differentiated.
    """
    lab = _check_logits_labels(logits, labels)
    zd = logits.data
    n = zd.shape[0]
    m = zd.max(axis=1, keepdims=True)
    ex = np.exp(zd - m)
    denom = ex.sum(axis=1, keepdims=True)
    softmax = ex / denom
    log_probs = (zd - m) - np.log(denom)
    out = -log_probs[np.arange(n), lab].mean()

    def vjp(g: Array) -> Array:
        d = softmax.copy()
        d[np.arange(n), lab] -= 1.0
        return d * (g / n)

    return apply_primitive(np.asarray(out), (logits,), (vjp,))


def segment_sum(x: Tensor, segment_ids: Array | None, num_segments: int) -> Tensor:
    """Sum the entries of a 1-D tensor into `num_segments` buckets.

    With `segment_ids` None, `x` is (rows, num_segments) and bucket j is
    column j. The rows are then added in order, starting from +0.0, as
    bincount adds them for the ids of that layout, in one pass and without
    a scatter or a gather.
    """
    xd = x.data
    if segment_ids is None:
        if xd.ndim != 2 or xd.shape[1] != num_segments:
            raise ShapeError(f"segment-sum by columns expects (rows, {num_segments}), got {x.shape}")
        if num_segments > 1:
            shape = xd.shape
            out = np.add.reduce(xd, axis=0, initial=0.0)
            return apply_primitive(out, (x,), (lambda g: np.broadcast_to(g, shape).copy(),))
        # numpy sums a lone column pairwise, not in order
        segment_ids = np.zeros(xd.shape, dtype=np.intp)
    elif xd.ndim != 1:
        raise ShapeError(f"segment-sum expects a 1-D tensor, got {x.shape}")
    ids = np.asarray(segment_ids)
    if ids.shape != xd.shape:
        raise ContractError(f"segment ids shape {ids.shape} does not match tensor shape {xd.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise ContractError(f"segment id out of range [0, {num_segments})")
    out = np.bincount(ids.reshape(-1), weights=xd.reshape(-1), minlength=num_segments)
    return apply_primitive(out, (x,), (lambda g: g[ids],))


def finite_difference_check(
    f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5
) -> float:
    """Max relative error between the analytic gradient of f at x and central
    finite differences: max_i |analytic_i - fd_i| / max(1, |analytic_i|).

    Returns a large value rather than raising when f is not differentiable at
    x; the caller interprets the magnitude.
    """
    if eps <= 0:
        raise ConfigError("finite_difference_check: eps must be positive")
    x.requires_grad = True
    with Tape() as tape:
        loss = f(x)
        if loss.data.shape != ():
            raise ContractError(f"f must return a scalar, got shape {loss.shape}")
    if tape._owns(loss):
        grads = tape.backward(loss)
        analytic = tape.grad(grads, x)
        if analytic is None:
            analytic = np.zeros_like(x.data)
    else:
        # f never touched the tape (e.g. a hard threshold done in raw numpy)
        analytic = np.zeros_like(x.data)

    flat = x.data.reshape(-1)
    fa = np.asarray(analytic).reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = float(f(x).data)
        flat[i] = orig - eps
        down = float(f(x).data)
        flat[i] = orig
        numeric = (up - down) / (2.0 * eps)
        err = abs(fa[i] - numeric) / max(1.0, abs(fa[i]))
        worst = max(worst, err)
    return worst
