"""Label assignment for the two halves of the unlabeled split.

Detected out-of-class samples get soft-labels: a temperature softmax over
their class-wise prototype similarities.  Detected in-class samples are
ranked by the confidence of a linear head trained on frozen embeddings,
and the top fraction receive one-hot pseudo-labels.  Oversampling then
equalizes per-class counts of the enlarged labeled set.
"""

import math
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
    emb = forward(model, np.asarray(labeled_x, dtype=np.float64), heads=()).embedding
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


@dataclass
class PseudoLabel:
    sample_id: int
    assigned_class: int  # 1..C
    confidence: float


def select_topk(in_ids, in_x, head, model, k_fraction):
    """Top ceil(k_fraction * n) samples by head confidence, one-hot labeled.

    Confidence is the max softmax probability; ties break toward the
    smaller sample id, and argmax ties toward the lower class index.
    Returns an empty list for an empty in-class set.
    """
    if not 0.0 < k_fraction <= 1.0:
        raise ValueError("k_fraction must lie in (0, 1]")
    in_ids = list(in_ids)
    if not in_ids:
        return []
    emb = forward(model, np.asarray(in_x, dtype=np.float64), heads=()).embedding
    probs = head.probabilities(emb)
    conf = probs.max(axis=1)
    classes = probs.argmax(axis=1) + 1
    order = sorted(range(len(in_ids)), key=lambda i: (-conf[i], in_ids[i]))
    keep = math.ceil(k_fraction * len(in_ids))
    return [
        PseudoLabel(
            sample_id=int(in_ids[i]),
            assigned_class=int(classes[i]),
            confidence=float(conf[i]),
        )
        for i in order[:keep]
    ]


def oversample(ids, labels):
    """Duplicate each class round-robin until all class counts equal the max.

    Returns the id list of the balanced set; distinct ids per class are
    preserved and replayed in ascending-id order.
    """
    ids = [int(i) for i in ids]
    labels = [int(l) for l in labels]
    if not ids:
        return []
    by_class = {}
    for sid, lab in zip(ids, labels):
        by_class.setdefault(lab, []).append(sid)
    for members in by_class.values():
        members.sort()
    target = max(len(m) for m in by_class.values())
    out = list(ids)
    for lab in sorted(by_class):
        members = by_class[lab]
        need = target - len(members)
        for i in range(need):
            out.append(members[i % len(members)])
    return out


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------


def write_soft_label_manifest(path, ids, labels):
    labels = np.asarray(labels, dtype=np.float64).tolist()
    width = len(labels[0]) if labels else 0
    header = ["sample_id", *(f"q_{c}" for c in range(1, width + 1))]
    rows = ((int(sid), *q) for sid, q in zip(ids, labels))
    write_table(path, header, [INT] + [REAL] * width, rows)


def read_soft_label_manifest(path):
    """(ids, q): the list of sample ids and the (n, C) soft-label matrix."""
    cols = read_table(path, {"sample_id": int}, default=float)
    names = [name for name in cols if name != "sample_id"]
    return cols["sample_id"], real_columns(path, cols, names)


def write_pseudo_label_manifest(path, pseudo):
    rows = ((p.sample_id, p.assigned_class, p.confidence) for p in pseudo)
    write_table(path, ["sample_id", "assigned_class", "confidence"], [INT, INT, REAL], rows)


def read_pseudo_label_manifest(path):
    cols = read_table(path, {"sample_id": int, "assigned_class": int, "confidence": float})
    confidence = real_columns(path, cols, ["confidence"])[:, 0].tolist()
    return list(map(PseudoLabel, cols["sample_id"], cols["assigned_class"], confidence))
