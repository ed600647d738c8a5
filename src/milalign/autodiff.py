"""Reverse-mode differentiation over dense float64 numpy values.

Every operation computes its forward value eagerly and records a rule
mapping the output cotangent back to input cotangents; `Var.backward`
replays the rules in reverse topological order. A tape is swept once:
the sweep drops each rule and its parent links as soon as the rule has
run, so the forward values it read are freed during the sweep rather
than when the caller lets go of the root. Only what a gradient
needs is recorded: a `Var` built directly is a leaf that takes gradients,
`as_var` of a plain value is a constant, and an operation whose inputs
are all constants returns a constant with no parents and no rule, so an
inference pass on plain arrays keeps no intermediate alive. The
operation set is exactly what the scoring and training pipeline needs;
`matmul` and `transpose` also take (B, ., .) stacks, so a batch of
per-image matrix products is one tape node rather than a loop of them.
Values are plain numpy arrays (scalars are 0-d), reductions keep numpy's
fixed evaluation order, and nothing here mutates a node's `.value`, so
repeated runs on the same inputs are bit-identical. A swept tape runs
each rule once, so a rule may consume the arrays it saved for itself
(`logsumexp` scales its weights into the cotangent in place), but never
an array that is some node's `.value`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ContractError(ValueError):
    """An operation was called outside its documented contract."""


def _value(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Var:
    """Node in the reverse-mode tape: a value plus the rule that produced it.

    `requires_grad` is False only for constants (see `as_var`)."""

    __slots__ = ("value", "_parents", "_vjp", "grad", "requires_grad",
                 "__weakref__")

    def __init__(self, value, parents=(), vjp=None):
        self.value = _value(value)
        self._parents = tuple(parents)
        self._vjp = vjp
        self.grad = None
        self.requires_grad = True

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into `.grad` for every leaf feeding self.

        The sweep consumes the tape: each node leaves the topological order
        as its turn comes, and its rule and parent links are dropped once
        the rule has passed its cotangent on, so a forward value is freed
        when the last rule that reads it has run. After the sweep self
        keeps its `.value` and `.grad`, the leaves keep their `.grad`,
        interior nodes keep their `.value` only, and constants hold no
        `.grad`. A tape is swept once: a second `backward` through any
        swept node is a ContractError."""
        if self.value.ndim != 0:
            raise ContractError("backward requires a scalar output")
        order = _toposort(self)
        for node in order:
            if node._vjp is _swept:
                raise ContractError("backward through a tape that was "
                                    "already swept; a tape is swept once")
            node.grad = None
        self.grad = np.ones(())
        while order:
            node = order.pop()
            vjp, parents = node._vjp, node._parents
            if vjp is None:
                continue
            node._vjp, node._parents = _swept, ()
            if node.grad is not None:
                for parent, g in zip(parents, vjp(node.grad)):
                    if g is None:
                        continue
                    parent.grad = g if parent.grad is None else parent.grad + g
            if node is not self:
                node.grad = None

    def __getitem__(self, key):
        return getitem(self, key)

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def _swept(g):
    """The rule a node holds once `backward` has swept it."""
    raise ContractError("this node's tape was already swept")


def as_var(x) -> Var:
    """x itself if it is a Var, else x as a constant."""
    if isinstance(x, Var):
        return x
    const = Var(x)
    const.requires_grad = False
    return const


def _node(out, inputs, vjp) -> Var:
    """An operation's result: on the tape if any input takes gradients,
    else a constant that keeps neither its inputs nor its rule."""
    if any(v.requires_grad for v in inputs):
        return Var(out, inputs, vjp)
    return as_var(out)


def _toposort(root: Var) -> list:
    # iterative DFS; parents land before children so the reverse sweep is safe
    order: list = []
    seen = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, it = stack[-1]
        pushed = False
        for p in it:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                pushed = True
                break
        if not pushed:
            order.append(node)
            stack.pop()
    return order


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast cotangent back down to the operand's shape."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(a, b, fwd, da, db) -> Var:
    av, bv = as_var(a), as_var(b)
    x, y = av.value, bv.value
    out = fwd(x, y)

    def vjp(g):
        return (_unbroadcast(da(g, x, y), x.shape) if av.requires_grad else None,
                _unbroadcast(db(g, x, y), y.shape) if bv.requires_grad else None)

    return _node(out, (av, bv), vjp)


def add(a, b):
    return _binary(a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary(a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary(a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b):
    return _binary(a, b, np.divide, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def _unary(x, fwd, dfdx) -> Var:
    xv = as_var(x)
    val = xv.value
    out = fwd(val)

    def vjp(g):
        return (dfdx(g, val, out),)

    return _node(out, (xv,), vjp)


def tanh(x):
    return _unary(x, np.tanh, lambda g, v, out: g * (1.0 - out * out))


def exp(x):
    return _unary(x, np.exp, lambda g, v, out: g * out)


def _logistic(t: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-t))
    except OverflowError:  # exp(-t) is +inf, so the logistic is 0
        return 0.0


_logistic_each = np.frompyfunc(_logistic, 1, 1)


def expit(x) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-x)) with the C library's `exp` (through
    `math.exp`), so the values do not depend on numpy's vectorized `exp`;
    0.0 where exp(-x) overflows. The exponentials come from one `map` of
    `math.exp` and the rest is one numpy expression with the same IEEE
    operations; an array where some exp(-x) overflows takes the
    per-element path. The overflow flag that `exp` raises there is not a
    warning."""
    val = _value(x)
    try:
        e = np.fromiter(map(math.exp, (-val).ravel().tolist()),
                        dtype=np.float64, count=val.size)
    except OverflowError:
        with np.errstate(over="ignore"):
            return np.asarray(_logistic_each(val), dtype=np.float64)
    e += 1.0
    return np.divide(1.0, e, out=e).reshape(val.shape)


def sigmoid(x):
    return _unary(x, expit, lambda g, v, out: g * out * (1.0 - out))


def matmul(a, b) -> Var:
    """Matrix product of 1-D/2-D operands, or of two (B, ., .) stacks
    multiplied slice by slice."""
    av, bv = as_var(a), as_var(b)
    x, y = av.value, bv.value
    if x.ndim == 3 or y.ndim == 3:
        if x.ndim != 3 or y.ndim != 3 or x.shape[0] != y.shape[0]:
            raise ContractError("batched matmul needs two 3-D operands with "
                                "equal leading axes")
        out = np.matmul(x, y)

        def vjp3(g):
            g = np.asarray(g, dtype=np.float64)
            return (g @ np.swapaxes(y, 1, 2) if av.requires_grad else None,
                    np.swapaxes(x, 1, 2) @ g if bv.requires_grad else None)

        return _node(out, (av, bv), vjp3)
    if x.ndim == 0 or y.ndim == 0 or x.ndim > 2 or y.ndim > 2:
        raise ContractError("matmul supports 1-D, 2-D and paired 3-D operands")
    out = x @ y

    def vjp(g):
        g = np.asarray(g, dtype=np.float64)
        gx = gy = None
        if av.requires_grad:
            if x.ndim == 2:
                gx = g @ y.T if y.ndim == 2 else np.outer(g, y)
            else:
                gx = y @ g if y.ndim == 2 else g * y
        if bv.requires_grad:
            if x.ndim == 2:
                gy = x.T @ g
            else:
                gy = np.outer(x, g) if y.ndim == 2 else g * x
        return gx, gy

    return _node(out, (av, bv), vjp)


def _expand_reduced(g, shape, axis, keepdims=False) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def vsum(x, axis=None) -> Var:
    xv = as_var(x)
    val = xv.value
    out = np.sum(val, axis=axis)

    def vjp(g):
        return (_expand_reduced(g, val.shape, axis),)

    return _node(out, (xv,), vjp)


def vmean(x, axis=None) -> Var:
    xv = as_var(x)
    val = xv.value
    if val.size == 0:
        raise ContractError("mean of an empty array")
    out = np.mean(val, axis=axis)
    n = val.size if axis is None else val.shape[axis]

    def vjp(g):
        return (_expand_reduced(g, val.shape, axis) / n,)

    return _node(out, (xv,), vjp)


def vmax(x, axis=None) -> Var:
    """Maximum with subgradient routed to the first maximal index."""
    xv = as_var(x)
    val = xv.value
    if val.size == 0:
        raise ContractError("max of an empty array")
    out = np.max(val, axis=axis)

    def vjp(g):
        z = np.zeros_like(val)
        if axis is None:
            z.flat[int(np.argmax(val))] = float(np.asarray(g))
        else:
            idx = np.expand_dims(np.argmax(val, axis=axis), axis)
            gg = np.expand_dims(np.asarray(g, dtype=np.float64), axis)
            np.put_along_axis(z, idx, gg, axis)
        return (z,)

    return _node(out, (xv,), vjp)


def vprod(x, axis: int) -> Var:
    """Product along one axis; backward uses exclusive prefix/suffix products
    so it stays exact when factors are zero. The backward fills two
    buffers laid out like x: the prefix products, and the suffix products
    accumulated from the far end; it multiplies the first in place by the
    second and then by the cotangent."""
    xv = as_var(x)
    val = xv.value
    if val.size == 0:
        raise ContractError("product of an empty array")
    out = np.prod(val, axis=axis)

    def vjp(g):
        v = np.moveaxis(val, axis, -1)
        prefix = np.empty_like(v)
        prefix[..., 0] = 1.0
        np.cumprod(v[..., :-1], axis=-1, out=prefix[..., 1:])
        suffix = np.empty_like(v)
        suffix[..., -1] = 1.0
        np.cumprod(v[..., :0:-1], axis=-1, out=suffix[..., -2::-1])
        prefix *= suffix
        prefix *= np.moveaxis(_expand_reduced(g, val.shape, axis), axis, -1)
        return (np.moveaxis(prefix, -1, axis),)

    return _node(out, (xv,), vjp)


def logsumexp(x, scale: float = 1.0, axis=None) -> Var:
    """(1/scale) * log(sum(exp(scale * x))) with the max shifted out first."""
    gamma = float(scale)
    if not gamma > 0.0:
        raise ContractError("logsumexp scale must be positive")
    xv = as_var(x)
    val = xv.value
    if val.size == 0:
        raise ContractError("logsumexp of an empty array")
    m = np.max(val, axis=axis, keepdims=True)
    # the weights exp(gamma * (x - m)) / s, built in one buffer that only
    # the rule holds; the rule runs once, so it scales them in place
    w = np.subtract(val, m, out=np.empty_like(val))
    w *= gamma
    np.exp(w, out=w)
    s = np.sum(w, axis=axis, keepdims=True)
    out = np.squeeze(m + np.log(s) / gamma, axis=axis)
    w /= s

    def vjp(g):
        return (np.multiply(w, _expand_reduced(g, val.shape, axis), out=w),)

    return _node(out, (xv,), vjp)


def softmax(x, scale: float = 1.0, axis: int = 0) -> Var:
    """exp(scale*x) normalized along `axis`; scale 0 gives uniform weights."""
    gamma = float(scale)
    if not np.isfinite(gamma):
        raise ContractError("softmax scale must be finite")
    xv = as_var(x)
    val = xv.value
    if val.size == 0:
        raise ContractError("softmax of an empty array")
    z = gamma * val
    m = np.max(z, axis=axis, keepdims=True)
    e = np.exp(z - m)
    w = e / np.sum(e, axis=axis, keepdims=True)

    def vjp(g):
        g = np.asarray(g, dtype=np.float64)
        inner = np.sum(g * w, axis=axis, keepdims=True)
        return (gamma * w * (g - inner),)

    return _node(w, (xv,), vjp)


def softmax_columns(x, columns, scale: float = 1.0) -> Var:
    """Softmax over axis 1 of a (B, N, K) stack, then the columns named by
    the (B, Q) integer array `columns`, gathered slice by slice: out[b, :, c]
    is the softmax of x[b, :, columns[b, c]]. The softmax runs once per
    column of x, however many of the Q columns repeat it.

    Wherever scale * x is finite, values and cotangent equal those of
    softmax(matmul(x, onehot), scale, axis=1) bit for bit, where
    onehot[b, k, c] = (k == columns[b, c]): each column's softmax adds its
    N terms in the same order, and the gather is a matmul of the weights
    with that one-hot, which adds one weight to zeros. A lone column
    (Q = 1) is gathered before its softmax instead: numpy sums the N
    contiguous terms of a (B, N, 1) stack pairwise, not in row order. The
    backward is that pair's too: the softmax rule on each of the Q
    gathered columns, then `@ onehot^T`, which sums the repeats of a
    column in the matmul's order."""
    gamma = float(scale)
    if not np.isfinite(gamma):
        raise ContractError("softmax scale must be finite")
    xv = as_var(x)
    val = xv.value
    cols = np.asarray(columns)
    if val.ndim != 3 or cols.ndim != 2 or cols.shape[0] != val.shape[0]:
        raise ContractError("softmax_columns expects a (B, N, K) stack and "
                            "(B, Q) column indices")
    if val.size == 0 or cols.size == 0:
        raise ContractError("softmax of an empty array")
    onehot = np.zeros((val.shape[0], val.shape[2], cols.shape[1]))
    np.put_along_axis(onehot, cols[:, None, :], 1.0, axis=1)
    lone = cols.shape[1] == 1
    z = gamma * (np.matmul(val, onehot) if lone else val)
    m = np.max(z, axis=1, keepdims=True)
    e = np.exp(z - m)
    w = e / np.sum(e, axis=1, keepdims=True)
    if not lone:
        w = np.matmul(w, onehot)  # (B, N, Q)

    def vjp(g):
        g = np.asarray(g, dtype=np.float64)
        inner = np.sum(g * w, axis=1, keepdims=True)
        return ((gamma * w * (g - inner)) @ np.swapaxes(onehot, 1, 2),)

    return _node(w, (xv,), vjp)


def slice_reshape(x, start: int, stop: int, shape) -> Var:
    """x[start:stop] of a 1-D operand, reshaped to `shape`: one node in
    place of a getitem and a reshape, with their cotangent, zero-padded
    to the length of x."""
    xv = as_var(x)
    val = xv.value
    if val.ndim != 1:
        raise ContractError("slice_reshape expects a 1-D operand")
    out = val[start:stop].reshape(shape)

    def vjp(g):
        z = np.zeros_like(val)
        z[start:stop] = np.ravel(g)
        return (z,)

    return _node(out, (xv,), vjp)


def reshape(x, shape) -> Var:
    xv = as_var(x)
    val = xv.value
    out = val.reshape(shape)

    def vjp(g):
        return (np.asarray(g, dtype=np.float64).reshape(val.shape),)

    return _node(out, (xv,), vjp)


def transpose(x) -> Var:
    """Swap the last two axes of a 2-D matrix or a (B, ., .) stack."""
    xv = as_var(x)
    if xv.value.ndim not in (2, 3):
        raise ContractError("transpose expects a 2-D or 3-D operand")
    val = xv.value

    def vjp(g):
        return (np.swapaxes(np.asarray(g, dtype=np.float64), -1, -2),)

    return _node(np.swapaxes(val, -1, -2), (xv,), vjp)


def _basic_key(key) -> bool:
    parts = key if isinstance(key, tuple) else (key,)
    return all(isinstance(p, (int, np.integer, slice)) for p in parts)


def getitem(x, key) -> Var:
    xv = as_var(x)
    if not _basic_key(key):
        raise ContractError("getitem supports int and slice keys only")
    val = xv.value
    out = val[key]

    def vjp(g):
        z = np.zeros_like(val)
        z[key] = np.asarray(g, dtype=np.float64)
        return (z,)

    return _node(out, (xv,), vjp)


def diag_part(x) -> Var:
    xv = as_var(x)
    val = xv.value
    if val.ndim != 2 or val.shape[0] != val.shape[1]:
        raise ContractError("diag_part expects a square matrix")
    n = val.shape[0]
    ar = np.arange(n)

    def vjp(g):
        z = np.zeros_like(val)
        z[ar, ar] = np.asarray(g, dtype=np.float64)
        return (z,)

    return _node(val.diagonal().copy(), (xv,), vjp)


def clip_min(x, lo: float) -> Var:
    """Elementwise max(x, lo); the floor is treated as inactive only when x > lo."""
    xv = as_var(x)
    val = xv.value
    lo = float(lo)

    def vjp(g):
        return (np.asarray(g, dtype=np.float64) * (val > lo),)

    return _node(np.maximum(val, lo), (xv,), vjp)


def clamp(x, lo: float, hi: float) -> Var:
    """Clip into [lo, hi] with a straight-through backward.

    Used only to absorb rounding drift past exact bounds, so the gradient
    passes through unchanged rather than dying at the boundary.
    """
    xv = as_var(x)

    def vjp(g):
        return (np.asarray(g, dtype=np.float64),)

    return _node(np.clip(xv.value, lo, hi), (xv,), vjp)


def l2norm(x, axis=None, keepdims=False) -> Var:
    xv = as_var(x)
    val = xv.value
    nk = np.sqrt(np.sum(val * val, axis=axis, keepdims=True))
    if keepdims:
        out = nk
    elif axis is None:
        out = np.squeeze(nk)
    else:
        out = np.squeeze(nk, axis=axis)
    safe = np.where(nk > 0.0, nk, 1.0)

    def vjp(g):
        return (_expand_reduced(g, val.shape, axis, keepdims) * val / safe,)

    return _node(out, (xv,), vjp)


@dataclass(frozen=True)
class FiniteDifferenceReport:
    max_relative_error: float
    passed: bool
    worst_coordinate: int
    size: int


def _probe(f, point: np.ndarray, i: int, h: float) -> float:
    q = point.copy()
    q[i] += h
    val = float(f(as_var(q)).value)
    if not np.isfinite(val):
        raise ContractError(f"objective is non-finite probing coordinate {i}")
    return val


def finite_difference_check(f, point, step: float = 1e-5,
                            tolerance: float = 1e-4) -> FiniteDifferenceReport:
    """Compare the recorded backward pass of f against central differences.

    f takes a 1-D Var and must return a scalar Var. The relative error at
    each coordinate is |analytic - numeric| / max(|analytic|, |numeric|,
    floor) where floor is 1e-6 of the objective's magnitude: a central
    difference at step h carries about eps*|f|/h of round-off, so ratios
    against coordinates much smaller than that floor would measure probe
    noise rather than gradient error. Coordinates under the floor are
    effectively held to the same absolute precision instead.
    """
    p = np.asarray(point, dtype=np.float64)
    if p.ndim != 1:
        raise ContractError("finite_difference_check expects a 1-D parameter vector")
    if not step > 0.0:
        raise ContractError("finite difference step must be positive")
    leaf = Var(p.copy())
    out = f(leaf)
    if not isinstance(out, Var) or out.value.ndim != 0:
        raise ContractError("objective must return a scalar Var")
    if not np.isfinite(out.value):
        raise ContractError("objective is non-finite at the evaluation point")
    out.backward()
    analytic = np.zeros_like(p) if leaf.grad is None else np.asarray(leaf.grad, dtype=np.float64)
    numeric = np.empty_like(p)
    for i in range(p.size):
        numeric[i] = (_probe(f, p, i, step) - _probe(f, p, i, -step)) / (2.0 * step)
    if p.size == 0:
        return FiniteDifferenceReport(0.0, True, 0, 0)
    floor = 1e-6 * max(1.0, float(np.abs(out.value)))
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel))
    err = float(rel[worst])
    return FiniteDifferenceReport(err, err < tolerance, worst, int(p.size))
