"""SGD with Nesterov momentum over a named parameter registry."""

import math

import numpy as np


class NesterovSGD:
    """Classic momentum buffer update: v <- mu*v + g, p <- p - lr*(g + mu*v).

    Parameters are updated in place; a parameter absent from the gradient
    map is treated as having zero gradient (its momentum still decays).
    """

    def __init__(self, params, lr, momentum=0.9):
        self.params = params
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.velocity = {name: np.zeros_like(p) for name, p in params.items()}

    def step(self, grads, lr=None):
        lr = self.lr if lr is None else float(lr)
        mu = self.momentum
        for name, p in self.params.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(p)
            v = self.velocity[name]
            v = mu * v + g
            self.velocity[name] = v
            self.params[name] = p - lr * (g + mu * v)


def cosine_lr(base_lr, step, total_steps):
    """Half-period cosine decay from base_lr to 0 over total_steps."""
    if total_steps <= 0:
        return base_lr
    frac = min(max(step / total_steps, 0.0), 1.0)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))
