#!/usr/bin/env python3
"""A tour of the reverse-mode tape.

Builds a tiny computation, reads gradients off one backward pass, and
cross-checks them against central finite differences.
"""

import numpy as np

from openset_ssl.autodiff import DiffGraph, grad_check

rng = np.random.default_rng(0)

# forward: loss = mean over rows of -sum(targets * log softmax(relu(x @ w)))
x_val = rng.standard_normal((4, 3))
w_val = rng.standard_normal((3, 2))
targets = rng.uniform(0.0, 1.0, size=(4, 2))
targets /= targets.sum(axis=1, keepdims=True)

g = DiffGraph()
x = g.input(x_val)
w = g.input(w_val)
h = g.apply("relu", [g.apply("matmul", [x, w])])
loss = g.apply("softmax-cross-entropy", [h], targets=targets)

print("node count:", len(g))
print("loss value:", float(g.value(loss)))

grads = g.backward(loss)
print("dL/dw:\n", grads[w])

# same computation as a scalar function of w, checked numerically


def f(w_point):
    g2 = DiffGraph()
    h2 = g2.apply("relu", [g2.apply("matmul", [g2.input(x_val), g2.input(w_point)])])
    out = g2.apply("softmax-cross-entropy", [h2], targets=targets)
    return float(g2.value(out))


f.gradient = lambda w_point: grads[w]
err = grad_check(f, w_val, eps=1e-6)
print(f"max relative error vs central differences: {err:.2e}")
assert err < 1e-4
print("gradients agree.")
