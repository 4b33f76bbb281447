"""SGD with Nesterov momentum over a named parameter registry."""

import math

import numpy as np


class NesterovSGD:
    """Classic momentum buffer update: v <- mu*v + g, p <- p - lr*(g + mu*v).

    Parameters, velocity and gradients each fill one contiguous buffer; the
    `params` entries become views of the first, updated in place, so an
    array taken from `params` moves on the next step.  An entry replaced
    from outside is copied in first; an absent gradient is zero.
    """

    def __init__(self, params, lr, momentum=0.9):
        self.params = params
        self.lr = float(lr)
        self.momentum = float(momentum)
        ends = np.cumsum([0] + [p.size for p in params.values()]).tolist()
        self.flat, self.velocity, self.grad = (np.zeros(ends[-1]) for _ in range(3))
        self.views = {}  # name -> (parameter view, gradient view)
        for (name, p), lo, hi in zip(params.items(), ends, ends[1:]):
            self.views[name] = self.flat[lo:hi].reshape(p.shape), self.grad[lo:hi].reshape(p.shape)
            self.views[name][0][...] = p
            params[name] = self.views[name][0]

    def step(self, grads, lr=None):
        lr = self.lr if lr is None else float(lr)
        for name, (p, g) in self.views.items():
            if self.params[name] is not p:  # replaced since the last step: take its values
                p[...], self.params[name] = self.params[name], p
            grad = grads.get(name)
            g[...] = 0.0 if grad is None else grad
        self.velocity *= self.momentum
        self.velocity += self.grad
        self.grad += self.momentum * self.velocity
        self.grad *= lr
        self.flat -= self.grad


def cosine_lr(base_lr, step, total_steps):
    """Half-period cosine decay from base_lr to 0 over total_steps."""
    if total_steps <= 0:
        return base_lr
    frac = min(max(step / total_steps, 0.0), 1.0)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))
