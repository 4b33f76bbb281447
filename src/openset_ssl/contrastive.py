"""NT-Xent contrastive loss and self-supervised pretraining of the
encoder and projection header on the pooled labeled + unlabeled features,
labels stripped.
"""

from dataclasses import dataclass, field

import numpy as np

from . import rng as rng_mod
from .artifacts import INT, REAL, write_table
from .augment import AugmentConfig, augment_batch
from .model import GraphBuilder, commit_batch_stats, forward
from .optim import NesterovSGD, cosine_lr

_DIAG_MASK = -1e9  # exp of a masked logit underflows to exactly 0.0
_CALIBRATION_PASSES = 2  # over the clean pool after pretraining


@dataclass(frozen=True)
class ContrastiveConfig:
    tau_con: float = 0.5
    batch_size: int = 64
    steps: int = 1000
    lr: float = 0.1
    momentum: float = 0.9
    cosine_decay: bool = False
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        if self.tau_con <= 0:
            raise ValueError("tau_con must be positive")
        if self.batch_size < 2:  # train-mode batch norm needs two rows
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")


@dataclass
class GraphLoss:
    """A scalar loss node plus everything needed to step an optimizer."""

    builder: GraphBuilder
    node: int
    batch_stats: list = field(default_factory=list)
    terms: dict = field(default_factory=dict)

    @property
    def value(self):
        return float(self.builder.graph.value(self.node))

    def parameter_gradients(self):
        grads = self.builder.graph.backward(self.node)
        return self.builder.gradients_by_name(grads)

    def update(self, optimizer, config, loop, step, lr_step=None):
        """The step of every fitting loop: abort on a non-finite loss, naming
        `loop` and `step`; fold in the batch statistics; step at `config.lr`,
        cosine-decayed at `lr_step` (default `step`) if `config` says so."""
        if not np.isfinite(self.value):
            raise RuntimeError(f"{loop} loss became non-finite at step {step}")
        commit_batch_stats(self.builder.model, self.batch_stats)
        lr_step = step if lr_step is None else lr_step
        lr = cosine_lr(config.lr, lr_step, config.steps) if config.cosine_decay else None
        optimizer.step(self.parameter_gradients(), lr=lr)


def ntxent_query_loss(query, positive, candidates, tau_con):
    """-log( exp(h(q, +)/tau) / sum_i exp(h(q, c_i)/tau) ) with cosine h.

    The candidate set must be nonempty and contain the positive; the query
    itself must not be among the candidates (the caller's contract).
    """
    from .model import cosine_similarity

    if tau_con <= 0:
        raise ValueError("tau_con must be positive")
    candidates = [np.asarray(c, dtype=np.float64) for c in candidates]
    if not candidates:
        raise ValueError("ntxent_query_loss: empty candidate set")
    positive = np.asarray(positive, dtype=np.float64)
    hits = [i for i, c in enumerate(candidates) if np.array_equal(positive, c)]
    if not hits:
        raise ValueError("ntxent_query_loss: positive is not among the candidates")
    sims = cosine_similarity(query, np.stack(candidates))[0] / tau_con
    pos = sims[hits[0]]
    m = sims.max()
    return float(np.log(np.exp(sims - m).sum()) + m - pos)


def ntxent_matrix_loss(builder, proj_node, tau_con):
    """Mean NT-Xent loss node over all 2N queries of a paired view batch.

    Rows of `proj_node` are projections of views ordered so that row q's
    positive sits at row (q + N) mod 2N; every other row except q itself
    is a negative.  One softmax-cross-entropy node over the masked cosine
    logits, so the loss stays finite at any temperature.
    """
    g = builder.graph
    two_n = g.value(proj_node).shape[0]
    if two_n % 2 != 0:
        raise ValueError("paired view batch must have an even row count")
    n = two_n // 2

    normed = g.apply("l2-normalize-rows", [proj_node])
    sims = g.apply("matmul", [normed, normed], transpose_b=True)
    logits = g.apply("scale", [sims], factor=1.0 / tau_con)
    rows = np.arange(two_n)
    mask = np.zeros((two_n, two_n))
    mask[rows, rows] = _DIAG_MASK
    masked = g.apply("add", [logits, builder.const(mask)])
    positives = np.zeros((two_n, two_n))
    positives[rows, (rows + n) % two_n] = 1.0
    return g.apply("softmax-cross-entropy", [masked], targets=positives)


def simclr_batch_loss(model, batch, config, *, seed=0, step=0, ids=None):
    """Differentiable SimCLR loss over one batch of N samples.

    Two views per sample are drawn from the augmentation family keyed by
    (step, sample id, view), in one call that returns them view-major;
    the 2N views run through the model as a single train-mode batch on
    the main branch.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if ids is None:
        ids = list(range(batch.shape[0]))
    views = augment_batch(batch, ids, config.augment, seed, step, (0, 1))

    builder = GraphBuilder(model)
    x = builder.const(views)
    nodes = builder.forward(x, branch="main", mode="train", heads=("projection",))
    loss = ntxent_matrix_loss(builder, nodes.projection, config.tau_con)
    return GraphLoss(builder=builder, node=loss, batch_stats=nodes.batch_stats)


def pretrain(model, pool, pool_ids, config, seed, trace_path=None):
    """Seeded SGD on the SimCLR loss; returns the model and a loss trace.

    The pool is iterated in shuffled epochs of whole batches (a remainder
    shorter than a batch is dropped, and the next epoch's shuffle starts
    afresh).  Aborts if the loss goes non-finite.
    """
    pool = np.asarray(pool, dtype=np.float64)
    if pool.shape[0] < config.batch_size:
        raise ValueError(
            f"pool of {pool.shape[0]} samples is smaller than one batch "
            f"({config.batch_size})"
        )
    pool_ids = np.asarray(pool_ids, dtype=np.int64)
    opt = NesterovSGD(model.params, lr=config.lr, momentum=config.momentum)
    shuffled = rng_mod.stream(seed, "pretrain.shuffle")
    order = []
    trace = []
    for step in range(config.steps):
        if len(order) < config.batch_size:
            order = list(shuffled.permutation(pool.shape[0]))
        take, order = order[: config.batch_size], order[config.batch_size :]
        batch = pool[take]
        ids = pool_ids[take]
        loss = simclr_batch_loss(
            model, batch, config, seed=seed, step=step, ids=ids
        )
        loss.update(opt, config, "pretraining", step)
        trace.append((step, loss.value))
    if config.steps > 0:
        calibrate_running_stats(model, pool, config.batch_size, seed)
    if trace_path is not None:
        write_loss_trace(trace_path, trace)
    return model, trace


def calibrate_running_stats(model, pool, batch_size, seed):
    """Re-estimate main-branch running statistics on clean features.

    Pretraining observes augmented views only, so its running statistics
    carry the augmentation noise; downstream scoring and fine-tuning
    evaluate clean inputs.  Two seeded train-mode passes over the clean
    pool realign them (no parameters move).
    """
    gen = rng_mod.stream(seed, "pretrain.calibrate")
    n = pool.shape[0]
    for _ in range(_CALIBRATION_PASSES):
        order = gen.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            batch = pool[order[start : start + batch_size]]
            forward(model, batch, branch="main", mode="train", heads=())


def write_loss_trace(path, trace):
    write_table(path, ["step", "loss"], [INT, REAL], trace)
