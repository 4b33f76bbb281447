"""Dense-array computation graph with reverse-mode differentiation.

The graph is an eager tape: every `apply` computes its forward value
immediately and appends a node, so the node list is always in topological
order.  `backward` walks the tape once in reverse and accumulates
gradients with plain numpy, which makes it bit-deterministic.  It computes
gradients only for the nodes the root reaches: a node's gradient is stored
when its first contribution arrives (later ones are added into a fresh
array, never in place), and a node without one is skipped.  Looking up any
other node in the returned mapping gives zeros of its value's shape.

`OPS` holds one entry per operation kind: its arity, its forward
`(*inputs, **params) -> (value, residuals)` and its VJP
`(g, value, residuals, *inputs, **params) -> one gradient per input`.
The residuals are intermediates of the forward that the VJP would
otherwise recompute; `apply` keeps them on the node (`DiffGraph.residuals`)
and `backward` hands them back, bit for bit the arrays a recomputation
would give.  A kind that keeps nothing returns None.  What each kind
keeps:

    batch-norm             `batch_moments(h, eps)`: mu, h - mu, the biased
                           variance and 1/sqrt(var + eps); with running
                           statistics, 1/sqrt(var + eps) of those
    softmax-cross-entropy  exp(x - rowmax(x)), its row sums, and the row
                           sums of the targets
    l2-normalize-rows      which rows count as zero, and the row norms
                           with 1 in their place
    ntxent                 the normalized rows and what l2-normalize-rows
                           keeps, exp of the shifted logits and its row sums

The kinds (64-bit reals throughout):

    matmul               2-D product; params: transpose_b
    add                  elementwise; second operand may be a (1, n) row
                         broadcast against an (m, n) first operand
    scale                multiply by a Python scalar; params: factor
    relu                 max(x, 0); subgradient at 0 is 0
    exp, log             elementwise
    l2-normalize-rows    rows scaled to unit norm; zero rows pass through
                         with zero gradient
    elementwise-mul      same broadcast rule as add
    batch-norm           batch normalization of an (n, w) batch; params:
                         eps, running.  Train mode (running None): n >= 2,
                         by the batch's own mean mu and biased variance,
                         (h - mu) / sqrt(var + eps).  Eval mode: running is
                         a (mean, var) pair of (1, w) rows, node constants
                         that get no gradient, and the value is
                         (h + -mean) * (1 / sqrt(var + eps))
    affine-relu          max(x * scale + shift, 0) for an (n, w) x and
                         (1, w) rows scale and shift; subgradient at 0 is 0
    softmax-cross-entropy
                         mean over the rows of an (n, C) logit matrix x of
                         sum_c t_c * logsumexp(x) - sum_c t_c * x_c, a 0-d
                         scalar; params: targets, an (n, C) array that gets
                         no gradient.  With targets summing to one per row
                         this is -sum_c t_c * log softmax(x)_c; a zero row
                         adds exactly 0 and the mean stays over all n rows
    ntxent               SimCLR's NT-Xent over a (2N, d) batch, a 0-d scalar;
                         params: tau > 0.  With logits y @ y.T / tau of its
                         l2-normalized rows y, diagonal masked, the mean over
                         q of logsumexp(logits_q) - logits_q,(q+N) mod 2N
"""

from typing import Callable, NamedTuple

import numpy as np

_ZERO_ROW_EPS = 1e-12
_DIAG_MASK = -np.inf  # exp of a masked logit is exactly 0.0 at any tau


class Node:
    __slots__ = ("op", "inputs", "value", "params", "residuals")

    def __init__(self, op, inputs, value, params=None, residuals=None):
        self.op = op
        self.inputs = tuple(inputs)
        self.value = value
        self.params = params or {}
        self.residuals = residuals

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


def _keeps_nothing(forward):
    """A forward whose VJP needs no residuals."""
    return lambda *inputs, **params: (forward(*inputs, **params), None)


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


def _matmul_vjp(g, y, res, a, b, transpose_b=False):
    if transpose_b:
        return g @ b, g.T @ a
    return g @ b.T, a.T @ g


def _add(a, b):
    _check_broadcast("add", a, b)
    return a + b


def _elementwise_mul(a, b):
    _check_broadcast("elementwise-mul", a, b)
    return a * b


def _shifted_exp(x):
    """The row max m of a 2-D array, exp(x - m) and its row sums."""
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    return m, e, e.sum(axis=1, keepdims=True)


def softmax_rows(x):
    """Row softmax of a 2-D array, with max-subtraction."""
    _, e, total = _shifted_exp(x)
    return e / total


def logsumexp_rows(x):
    """log sum_c exp(x_c) of each row of a 2-D array, as an (n, 1) column;
    finite for any finite row."""
    m, _, total = _shifted_exp(x)
    return m + np.log(total)


def _softmax_cross_entropy(x, targets):
    if x.ndim != 2 or np.shape(targets) != x.shape:
        raise ValueError(
            f"softmax-cross-entropy: expects 2-D logits and targets of the same "
            f"shape, got {x.shape} and {np.shape(targets)}"
        )
    m, e, total = _shifted_exp(x)
    mass = targets.sum(axis=1, keepdims=True)
    value = (mass * (m + np.log(total)) - (targets * x).sum(axis=1, keepdims=True)).mean()
    return value, (e, total, mass)


def _softmax_cross_entropy_vjp(g, y, res, x, targets):
    # g / n * (mass * softmax_rows(x) - targets), in place in one array
    e, total, mass = res
    grad = e / total
    grad *= mass
    grad -= targets
    grad *= g.item() / x.shape[0]
    return (grad,)


def _l2_normalize_rows(x):
    if x.ndim != 2:
        raise ValueError(f"l2-normalize-rows: expects 2-D, got {x.shape}")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    zero = norms < _ZERO_ROW_EPS
    safe = np.where(zero, 1.0, norms)
    return x / safe, (zero, safe)


def _l2_normalize_rows_vjp(g, y, res, x):
    zero, safe = res
    grad = (g - y * (g * y).sum(axis=1, keepdims=True)) / safe
    return (np.where(zero, 0.0, grad),)


def _ntxent(p, tau):
    if p.ndim != 2 or p.shape[0] % 2:
        raise ValueError(f"ntxent: expects a 2-D batch of an even row count, got {p.shape}")
    if not tau > 0:
        raise ValueError(f"ntxent: tau must be positive, got {tau}")
    y, (zero, safe) = _l2_normalize_rows(p)
    # matmul, scale and a mask add in this order keep their composition's bits
    logits = (y @ y.T) * (1.0 / tau)
    rows = np.arange(p.shape[0])
    logits[rows, rows] += _DIAG_MASK
    m, e, total = _shifted_exp(logits)
    positives = logits[rows, (rows + p.shape[0] // 2) % p.shape[0], None]
    return (m + np.log(total) - positives).mean(), (y, zero, safe, e, total)


def _ntxent_vjp(g, value, res, p, tau):
    # the softmax-cross-entropy, scale, matmul and l2-normalize-rows VJPs in turn
    y, zero, safe, e, total = res
    two_n = p.shape[0]
    rows = np.arange(two_n)
    grad = e / total
    grad[rows, (rows + two_n // 2) % two_n] -= 1.0
    grad *= g.item() / two_n
    grad *= 1.0 / tau
    return _l2_normalize_rows_vjp(grad @ y + grad.T @ y, y, (zero, safe), p)


def batch_moments(h, eps):
    """The train-mode batch-norm intermediates of an (n, w) batch: mu,
    h - mu, the biased variance and 1/sqrt(var + eps)."""
    if h.ndim != 2 or h.shape[0] < 2:
        raise ValueError(f"batch-norm: expects a 2-D batch of at least 2 rows, got {h.shape}")
    # sum / n is the division np.mean does after its sum, bit for bit
    n = h.shape[0]
    mu = h.sum(axis=0, keepdims=True) / n
    centered = h - mu
    var = (centered * centered).sum(axis=0, keepdims=True) / n
    return mu, centered, var, 1.0 / np.sqrt(var + eps)


def _check_row(op, what, row, x):
    """`row` must be one (1, w) row for the 2-D (n, w) batch `x`."""
    if x.ndim != 2 or np.shape(row) != (1, x.shape[1]):
        raise ValueError(f"{op}: {what} of shape {np.shape(row)} is not a row for {x.shape}")


def _batch_norm(h, eps, running=None):
    if running is None:
        moments = batch_moments(h, eps)
        _, centered, _, inv_std = moments
        return centered * inv_std, moments
    mean, var = running
    _check_row("batch-norm", "running mean", mean, h)
    _check_row("batch-norm", "running variance", var, h)
    inv = 1.0 / np.sqrt(var + eps)
    return (h + -mean) * inv, inv


def _batch_norm_vjp(g, y, res, h, eps, running=None):
    if running is not None:
        return (g * res,)
    # Ioffe & Szegedy's closed form (arXiv 1502.03167), per column
    n = g.shape[0]
    inv_std = res[-1]
    g_mean = g.sum(axis=0, keepdims=True) / n
    gy_mean = (g * y).sum(axis=0, keepdims=True) / n
    return (inv_std * (g - g_mean - y * gy_mean),)


def _affine_relu(x, scale, shift):
    _check_row("affine-relu", "scale", scale, x)
    _check_row("affine-relu", "shift", shift, x)
    return np.maximum(x * scale + shift, 0.0)


def _affine_relu_vjp(g, y, res, x, scale, shift):
    gr = g * (y > 0.0)
    return gr * scale, (gr * x).sum(axis=0, keepdims=True), gr.sum(axis=0, keepdims=True)


class _Op(NamedTuple):
    arity: int
    forward: Callable
    vjp: Callable


OPS = {
    "matmul": _Op(2, _keeps_nothing(_matmul), _matmul_vjp),
    "add": _Op(2, _keeps_nothing(_add), lambda g, y, res, a, b: (g, _reduce_broadcast(g, b.shape))),
    "scale": _Op(
        1,
        _keeps_nothing(lambda x, factor: x * float(factor)),
        lambda g, y, res, x, factor: (g * factor,),
    ),
    "relu": _Op(
        1, _keeps_nothing(lambda x: np.maximum(x, 0.0)), lambda g, y, res, x: (g * (x > 0.0),)
    ),
    "exp": _Op(1, _keeps_nothing(np.exp), lambda g, y, res, x: (g * y,)),
    "log": _Op(1, _keeps_nothing(np.log), lambda g, y, res, x: (g / x,)),
    "l2-normalize-rows": _Op(1, _l2_normalize_rows, _l2_normalize_rows_vjp),
    "elementwise-mul": _Op(
        2,
        _keeps_nothing(_elementwise_mul),
        lambda g, y, res, a, b: (g * b, _reduce_broadcast(g * a, b.shape)),
    ),
    "batch-norm": _Op(1, _batch_norm, _batch_norm_vjp),
    "affine-relu": _Op(3, _keeps_nothing(_affine_relu), _affine_relu_vjp),
    "softmax-cross-entropy": _Op(1, _softmax_cross_entropy, _softmax_cross_entropy_vjp),
    "ntxent": _Op(1, _ntxent, _ntxent_vjp),
}

OP_KINDS = tuple(OPS)


class _Gradients(dict):
    """Gradients by node id; an absent node reads as zeros."""

    def __init__(self, nodes):
        super().__init__()
        self._nodes = nodes

    def __missing__(self, node_id):
        return np.zeros_like(self._nodes[node_id].value)


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

    def residuals(self, node_id):
        """What the node's forward kept for its VJP (see `OPS`); None for
        leaves and for kinds that keep nothing."""
        return self.nodes[node_id].residuals

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
        if len(vals) != arity:
            raise ValueError(
                f"{op}: expects {arity} input(s), got {len(vals)} "
                f"with shapes {_shapes(vals)}"
            )
        value, residuals = forward(*vals, **params)
        self.nodes.append(Node(op, inputs, _as_value(value), params, residuals))
        return len(self.nodes) - 1

    def backward(self, root):
        """Return gradients of `root` w.r.t. every node it reaches; any
        other node reads as a zero array of its value's shape.  Entries
        may share one array, so none may be modified in place."""
        root = int(root)
        root_val = self.nodes[root].value
        if root_val.size != 1:
            raise ValueError(
                f"backward: root must be scalar-valued, got shape {root_val.shape}"
            )
        grads = _Gradients(self.nodes)
        grads[root] = np.ones_like(root_val)
        for i in range(root, -1, -1):
            g = grads.get(i)
            node = self.nodes[i]
            if g is None or not node.inputs or not g.any():
                continue
            vals = [self.nodes[j].value for j in node.inputs]
            vjp = OPS[node.op].vjp(g, node.value, node.residuals, *vals, **node.params)
            for j, contrib in zip(node.inputs, vjp):
                # the add VJP hands one array to both inputs: never add in place
                grads[j] = grads[j] + contrib if j in grads else contrib
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
