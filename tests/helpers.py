"""Shared test utilities."""

import numpy as np

from openset_ssl import rng
from openset_ssl.autodiff import DiffGraph, grad_check
from openset_ssl.train import build_step_loss


def scalar_fn(build, reduce_weights=None):
    """Wrap a graph construction into a scalar function of one array.

    `build(graph, x_id)` returns the node to reduce; the reduction is a
    weighted sum so that transposition mistakes cannot cancel out.
    """

    def assemble(x):
        g = DiffGraph()
        xid = g.input(x)
        out = build(g, xid)
        if reduce_weights is not None:
            out = g.apply("elementwise-mul", [out, g.input(reduce_weights)])
        return g, xid, g.apply("sum", [out])

    def fn(x):
        g, _, root = assemble(x)
        return float(g.value(root))

    def gradient(x):
        g, xid, root = assemble(x)
        return g.backward(root)[xid]

    fn.gradient = gradient
    return fn


def nudge_into_generic_position(model, seed=0, scale=0.05):
    """Jitter every parameter so no relu input sits exactly on a kink.

    A fresh model has zero shifts and zero running means, which places
    fully-clipped rows exactly at relu(0); finite differences straddle
    that kink and disagree with the fixed subgradient convention.
    """
    rng = np.random.default_rng(seed)
    for name, p in model.params.items():
        model.params[name] = p + scale * rng.standard_normal(p.shape)
    return model


def relu_kink_margin(loss):
    """Smallest |pre-activation| over relu nodes that carry gradient."""
    g = loss.builder.graph
    grads = g.backward(loss.node)
    margin = np.inf
    for node in g.nodes:
        if node.op != "relu":
            continue
        upstream = node.inputs[0]
        if np.abs(grads[upstream]).max() == 0.0:
            continue
        margin = min(margin, float(np.abs(g.value(upstream)).min()))
    return margin


def combined_param_gradcheck(model, plan, config, eps=1e-6):
    """Max relative gradient error of the combined loss over every
    trainable parameter, against central finite differences."""
    loss = build_step_loss(model, plan, config)
    grads = loss.parameter_gradients()
    worst = 0.0
    for name in model.params:
        base = model.params[name]
        analytic = grads.get(name, np.zeros_like(base))

        def fn(p, _name=name):
            trial = model.copy()
            trial.params[_name] = np.asarray(p, dtype=np.float64)
            return build_step_loss(trial, plan, config).value

        worst = max(worst, grad_check(fn, base, eps=eps, analytic=analytic))
    return worst


def reference_augment_batch(batch, ids, config, seed, step, view):
    """Views drawn row by row, each from a freshly seeded `rng.stream`.

    The definition `augment.augment_batch` must reproduce bit for bit:
    per row one jitter factor, the noise, then the masked coordinates.
    """
    batch = np.asarray(batch, dtype=np.float64)
    out = np.empty_like(batch)
    lo, hi = config.jitter_range
    for row, sid in enumerate(ids):
        gen = rng.stream(seed, config.stream, step, int(sid), view)
        x = batch[row]
        factor = gen.uniform(lo, hi)
        noise = gen.standard_normal(x.shape)
        out[row] = x * factor + config.noise_sigma * noise
        n_mask = int(config.mask_fraction * x.size)
        out[row, gen.choice(x.size, size=n_mask, replace=False)] = 0.0
    return out
