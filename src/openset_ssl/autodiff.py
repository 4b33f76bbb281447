"""Dense-array computation graph with reverse-mode differentiation.

The graph is an eager tape: every `apply` computes its forward value
immediately and appends a node, so the node list is always in topological
order.  `backward` walks the tape once in reverse and accumulates
gradients with plain numpy, which makes it bit-deterministic.

`OPS` holds one entry per operation kind: its arity (None for any
nonzero number of inputs), its forward `(*inputs, **params) -> value`
and its VJP `(g, value, *inputs, **params) -> one gradient per input`.
The kinds (64-bit reals throughout):

    matmul               2-D product; params: transpose_b
    add                  elementwise; second operand may be a (1, n) row
                         broadcast against an (m, n) first operand
    scale                multiply by a Python scalar; params: factor
    relu                 max(x, 0); subgradient at 0 is 0
    mean, sum            full reduction to a 0-d scalar
    exp, log             elementwise
    softmax-rows         row softmax with max-subtraction
    l2-normalize-rows    rows scaled to unit norm; zero rows pass through
                         with zero gradient
    elementwise-mul      same broadcast rule as add
    concat-rows          stack 2-D blocks with equal column counts
    slice-rows           rows [start, stop); params: start, stop
"""

from typing import Callable, NamedTuple

import numpy as np

_ZERO_ROW_EPS = 1e-12


class Node:
    __slots__ = ("op", "inputs", "value", "params")

    def __init__(self, op, inputs, value, params=None):
        self.op = op
        self.inputs = tuple(inputs)
        self.value = value
        self.params = params or {}

    def __repr__(self):
        return f"Node({self.op}, inputs={self.inputs}, shape={self.value.shape})"


def _as_value(x):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim > 0:  # ascontiguousarray would promote 0-d to (1,)
        arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _shapes(vals):
    return ", ".join(str(v.shape) for v in vals)


def _check_broadcast(op, a, b):
    """Equal shapes, or b a single row (1, n) against a 2-D (m, n)."""
    if a.shape != b.shape and not (
        a.ndim == 2 and b.ndim == 2 and b.shape[0] == 1 and a.shape[1] == b.shape[1]
    ):
        raise ValueError(f"{op}: shapes {a.shape} and {b.shape} do not conform")


def _reduce_broadcast(grad, shape):
    """Sum a gradient back down to `shape` after row broadcasting."""
    if grad.shape == shape:
        return grad
    return grad.sum(axis=0, keepdims=True)


def _matmul(a, b, transpose_b=False):
    tb = bool(transpose_b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul: expects 2-D operands, got {_shapes((a, b))}")
    inner = b.shape[1] if tb else b.shape[0]
    if a.shape[1] != inner:
        raise ValueError(
            f"matmul: inner dimensions disagree for shapes "
            f"{a.shape} and {b.shape} (transpose_b={tb})"
        )
    return a @ (b.T if tb else b)


def _matmul_vjp(g, y, a, b, transpose_b=False):
    if transpose_b:
        return g @ b, g.T @ a
    return g @ b.T, a.T @ g


def _add(a, b):
    _check_broadcast("add", a, b)
    return a + b


def _elementwise_mul(a, b):
    _check_broadcast("elementwise-mul", a, b)
    return a * b


def _softmax_rows(x):
    if x.ndim != 2:
        raise ValueError(f"softmax-rows: expects 2-D, got {x.shape}")
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_rows_vjp(g, s, x):
    inner = (g * s).sum(axis=1, keepdims=True)
    return (s * (g - inner),)


def _l2_normalize_rows(x):
    if x.ndim != 2:
        raise ValueError(f"l2-normalize-rows: expects 2-D, got {x.shape}")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    safe = np.where(norms < _ZERO_ROW_EPS, 1.0, norms)
    return x / safe


def _l2_normalize_rows_vjp(g, y, x):
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    zero = norms < _ZERO_ROW_EPS
    safe = np.where(zero, 1.0, norms)
    grad = (g - y * (g * y).sum(axis=1, keepdims=True)) / safe
    return (np.where(zero, 0.0, grad),)


def _concat_rows(*vals):
    if len(vals) < 1:
        raise ValueError("concat-rows: needs at least one input")
    cols = {v.shape[1] for v in vals if v.ndim == 2}
    if any(v.ndim != 2 for v in vals) or len(cols) != 1:
        raise ValueError(f"concat-rows: column counts disagree: {_shapes(vals)}")
    return np.concatenate(vals, axis=0)


def _concat_rows_vjp(g, y, *vals):
    return tuple(np.split(g, np.cumsum([v.shape[0] for v in vals[:-1]])))


def _slice_rows(x, start, stop):
    start, stop = int(start), int(stop)
    if x.ndim != 2 or not (0 <= start <= stop <= x.shape[0]):
        raise ValueError(f"slice-rows: range [{start}, {stop}) invalid for shape {x.shape}")
    return x[start:stop]


def _slice_rows_vjp(g, y, x, start, stop):
    full = np.zeros_like(x)
    full[start:stop] = g
    return (full,)


class _Op(NamedTuple):
    arity: int | None  # None: one input or more
    forward: Callable
    vjp: Callable


OPS = {
    "matmul": _Op(2, _matmul, _matmul_vjp),
    "add": _Op(2, _add, lambda g, y, a, b: (g, _reduce_broadcast(g, b.shape))),
    "scale": _Op(1, lambda x, factor: x * float(factor), lambda g, y, x, factor: (g * factor,)),
    "relu": _Op(1, lambda x: np.maximum(x, 0.0), lambda g, y, x: (g * (x > 0.0),)),
    "mean": _Op(
        1,
        lambda x: np.asarray(x.mean()),
        lambda g, y, x: (np.full_like(x, g.item() / x.size),),
    ),
    "sum": _Op(1, lambda x: np.asarray(x.sum()), lambda g, y, x: (np.full_like(x, g.item()),)),
    "exp": _Op(1, np.exp, lambda g, y, x: (g * y,)),
    "log": _Op(1, np.log, lambda g, y, x: (g / x,)),
    "softmax-rows": _Op(1, _softmax_rows, _softmax_rows_vjp),
    "l2-normalize-rows": _Op(1, _l2_normalize_rows, _l2_normalize_rows_vjp),
    "elementwise-mul": _Op(
        2,
        _elementwise_mul,
        lambda g, y, a, b: (g * b, _reduce_broadcast(g * a, b.shape)),
    ),
    "concat-rows": _Op(None, _concat_rows, _concat_rows_vjp),
    "slice-rows": _Op(1, _slice_rows, _slice_rows_vjp),
}

OP_KINDS = tuple(OPS)


class DiffGraph:
    """Append-only computation tape.

    Confined to one thread during construction and backward; node values
    are immutable once created and safe to share between graphs.
    """

    def __init__(self):
        self.nodes = []

    def __len__(self):
        return len(self.nodes)

    def value(self, node_id):
        return self.nodes[node_id].value

    def input(self, value):
        """Append a leaf node holding a copy of `value` (constant or parameter)."""
        self.nodes.append(Node("input", (), _as_value(np.array(value))))
        return len(self.nodes) - 1

    def apply(self, op, inputs, **params):
        """Append a node computing `op` over existing node ids."""
        if op not in OPS:
            raise ValueError(f"unknown operation kind: {op!r}")
        arity, forward, _ = OPS[op]
        inputs = tuple(int(i) for i in inputs)
        for i in inputs:
            if not 0 <= i < len(self.nodes):
                raise ValueError(f"{op}: input node {i} does not exist")
        vals = [self.nodes[i].value for i in inputs]
        if arity is not None and len(vals) != arity:
            raise ValueError(
                f"{op}: expects {arity} input(s), got {len(vals)} "
                f"with shapes {_shapes(vals)}"
            )
        value = forward(*vals, **params)
        self.nodes.append(Node(op, inputs, _as_value(value), params))
        return len(self.nodes) - 1

    def backward(self, root):
        """Return gradients of `root` w.r.t. every node.

        Nodes not reachable from the root map to zero arrays of their
        value's shape.
        """
        root = int(root)
        root_val = self.nodes[root].value
        if root_val.size != 1:
            raise ValueError(
                f"backward: root must be scalar-valued, got shape {root_val.shape}"
            )
        grads = {
            i: np.zeros_like(node.value) for i, node in enumerate(self.nodes)
        }
        grads[root] = np.ones_like(root_val)
        for i in range(root, -1, -1):
            node = self.nodes[i]
            g = grads[i]
            if not node.inputs or not g.any():
                continue
            vals = [self.nodes[j].value for j in node.inputs]
            vjp = OPS[node.op].vjp(g, node.value, *vals, **node.params)
            for j, contrib in zip(node.inputs, vjp):
                grads[j] = grads[j] + contrib
        return grads


def grad_check(fn, point, eps=1e-5, analytic=None):
    """Max relative error between analytic and central-difference gradients.

    `fn` maps an array to a scalar.  `analytic` is the analytic gradient at
    `point`, either as an array or as a callable point -> gradient; when
    omitted, `fn.gradient(point)` is used.  The error per coordinate is
    |analytic - central| / max(1e-12, |analytic| + |central|).
    """
    if eps <= 0:
        raise ValueError("grad_check: eps must be positive")
    point = np.asarray(point, dtype=np.float64)
    if analytic is None:
        analytic = getattr(fn, "gradient")
    if callable(analytic):
        analytic = analytic(point)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != point.shape:
        raise ValueError(
            f"grad_check: gradient shape {analytic.shape} != point shape {point.shape}"
        )

    worst = 0.0
    flat = point.ravel()
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + eps
        hi = float(fn(bumped.reshape(point.shape)))
        bumped[i] = flat[i] - eps
        lo = float(fn(bumped.reshape(point.shape)))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError(f"grad_check: non-finite function value at coordinate {i}")
        central = (hi - lo) / (2.0 * eps)
        a = float(analytic.ravel()[i])
        err = abs(a - central) / max(1e-12, abs(a) + abs(central))
        worst = max(worst, err)
    return worst
