"""Label assignment for the two halves of the unlabeled split.

Detected out-of-class samples get soft-labels: a temperature softmax over
their class-wise prototype similarities, one (n, C) row each.  Detected
in-class samples are ranked by the confidence of a linear head trained on
frozen embeddings, and the top fraction receive one-hot pseudo-labels, as
the equal-length columns of a `PseudoLabels`.  Oversampling then equalizes
per-class counts of the enlarged labeled set, as row indices into it.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from .artifacts import INT, REAL, read_table, real_columns, write_table
from .autodiff import softmax_rows
from .model import forward
from .train import one_hot


@dataclass(frozen=True)
class LabelingConfig:
    tau_sl: float = 0.1
    k_fraction: float = 0.1
    linear_eval_steps: int = 200
    linear_eval_lr: float = 0.5

    def __post_init__(self):
        if self.tau_sl <= 0:
            raise ValueError("tau_sl must be positive")
        if not 0.0 < self.k_fraction <= 1.0:
            raise ValueError("k_fraction must lie in (0, 1]")


def soft_label(sims, tau_sl):
    """Temperature softmax over class similarities, max-subtracted: per row
    of a (n, C) matrix, or of one vector."""
    if tau_sl <= 0:
        raise ValueError("tau_sl must be positive")
    sims = np.asarray(sims, dtype=np.float64)
    return softmax_rows(np.atleast_2d(sims) / tau_sl).reshape(sims.shape)


@dataclass
class LinearHead:
    weights: np.ndarray  # (embed_dim, C)
    bias: np.ndarray  # (C,)

    def logits(self, embeddings):
        return np.asarray(embeddings) @ self.weights + self.bias

    def probabilities(self, embeddings):
        return softmax_rows(self.logits(embeddings))


def train_linear_eval(model, labeled_x, labeled_y, config, seed):
    """Full-batch gradient descent of a fresh linear head on frozen
    eval-mode embeddings; the encoder itself is never touched.
    """
    if len(labeled_x) == 0:
        raise ValueError("labeled set is empty")
    emb = forward(model, labeled_x, "embedding")
    n, d = emb.shape
    c = model.config.num_classes
    onehot = one_hot(labeled_y, c)

    gen = rng_mod.stream(seed, "linear_eval.init")
    bound = 1.0 / np.sqrt(d)
    w = gen.uniform(-bound, bound, size=(d, c))
    b = np.zeros(c)
    for _ in range(config.linear_eval_steps):
        p = softmax_rows(emb @ w + b)
        g = (p - onehot) / n
        w = w - config.linear_eval_lr * (emb.T @ g)
        b = b - config.linear_eval_lr * g.sum(axis=0)
    return LinearHead(weights=w, bias=b)


# equal-length columns, most confident first: sample ids, classes in 1..C
# and the head's confidence in them
PseudoLabels = namedtuple("PseudoLabels", "ids classes confidence")


def topk_count(k_fraction, n):
    """How many of n detected-in samples `select_topk` labels."""
    return math.ceil(k_fraction * n)


def select_topk(in_ids, in_x, head, model, k_fraction):
    """Top `topk_count(k_fraction, n)` samples by head confidence, one-hot labeled.

    Confidence is the max softmax probability; ties break toward the
    smaller sample id, and argmax ties toward the lower class index.
    Returns `PseudoLabels` columns, empty for an empty in-class set.
    """
    if not 0.0 < k_fraction <= 1.0:
        raise ValueError("k_fraction must lie in (0, 1]")
    in_ids = np.asarray(in_ids, dtype=np.int64)
    emb = forward(model, in_x, "embedding")
    probs = head.probabilities(emb)
    conf = probs.max(axis=1)
    order = np.lexsort((in_ids, -conf))[: topk_count(k_fraction, len(in_ids))]
    return PseudoLabels(in_ids[order], probs.argmax(axis=1)[order] + 1, conf[order])


def oversample(ids, labels):
    """Row indices of the class-balanced set: every row once, then, class
    by class in ascending order, that class's rows in ascending-id order,
    replayed round-robin until its count equals the largest class's."""
    ids, labels = np.asarray(ids), np.asarray(labels)
    classes, counts = np.unique(labels, return_counts=True)
    rows = [np.arange(len(ids))]
    for c, n in zip(classes, counts):
        members = np.flatnonzero(labels == c)
        rows.append(np.resize(members[np.argsort(ids[members], kind="stable")], counts.max() - n))
    return np.concatenate(rows)


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------


def write_soft_label_manifest(path, ids, labels):
    """One row per sample: its id and its row of the (n, C) soft-label
    matrix, under the header q_1..q_C even when n is 0."""
    labels = np.asarray(labels, dtype=np.float64)
    width = labels.shape[1]
    header = ["sample_id", *(f"q_{c}" for c in range(1, width + 1))]
    rows = ((int(sid), *q) for sid, q in zip(ids, labels.tolist()))
    write_table(path, header, [INT] + [REAL] * width, rows)


def read_soft_label_manifest(path, classes):
    """(ids, q) columns of a soft-label manifest of `classes` classes: the
    sample ids and the (n, C) soft-label matrix."""
    names = [f"q_{c}" for c in range(1, classes + 1)]
    cols = read_table(path, {"sample_id": int, **dict.fromkeys(names, float)})
    return cols["sample_id"], real_columns(path, cols, names)


def write_pseudo_label_manifest(path, pseudo):
    rows = zip(*(np.asarray(col).tolist() for col in pseudo))
    write_table(path, ["sample_id", "assigned_class", "confidence"], [INT, INT, REAL], rows)


def read_pseudo_label_manifest(path):
    """The `PseudoLabels` columns of a pseudo-label manifest."""
    cols = read_table(path, {"sample_id": int, "assigned_class": int, "confidence": float})
    confidence = real_columns(path, cols, ["confidence"])[:, 0]
    return PseudoLabels(cols["sample_id"], cols["assigned_class"], confidence)
