"""Self-supervised pretraining of the encoder and projection header with
the NT-Xent loss (one `ntxent` tape node per batch) on the pooled labeled
+ unlabeled features, labels stripped.
"""

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import rng as rng_mod
from .artifacts import INT, REAL, write_table
from .augment import AugmentConfig, augment_batch
from .model import GraphBuilder, commit_batch_stats
from .optim import NesterovSGD, cosine_lr

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
    """A scalar loss node of a builder's graph plus everything needed to
    step an optimizer; the builder holds the batch moments to commit."""

    builder: GraphBuilder
    node: int
    terms: dict = field(default_factory=dict)

    @property
    def value(self):
        return float(self.builder.graph.value(self.node))

    def parameter_gradients(self):
        grads = self.builder.graph.backward(self.node)
        return {name: grads[node] for name, node in self.builder.param_nodes.items()}

    def update(self, optimizer, config, loop, step, lr_step=None):
        """The step of every fitting loop: abort on a non-finite loss, naming
        `loop` and `step`; fold in the builder's batch moments; step at
        `config.lr`, cosine-decayed at `lr_step` (default `step`) if
        `config` says so."""
        if not np.isfinite(self.value):
            raise RuntimeError(f"{loop} loss became non-finite at step {step}")
        commit_batch_stats(self.builder.model, self.builder.batch_stats)
        lr_step = step if lr_step is None else lr_step
        lr = cosine_lr(config.lr, lr_step, config.steps) if config.cosine_decay else None
        optimizer.step(self.parameter_gradients(), lr=lr)


def ntxent_matrix_loss(builder, proj_node, tau_con):
    """Mean NT-Xent loss node over all 2N queries of a paired view batch.

    Rows of `proj_node` are projections of views ordered so that row q's
    positive sits at row (q + N) mod 2N; every other row except q itself
    is a negative.  One `ntxent` node: cosine logits with the diagonal
    masked out, so the loss stays finite at any temperature.
    """
    return builder.graph.apply("ntxent", [proj_node], tau=tau_con)


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
    proj = builder.forward(x, train="main", heads=("projection",))["projection"]
    return GraphLoss(builder=builder, node=ntxent_matrix_loss(builder, proj, config.tau_con))


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
    batches = _epochs(rng_mod.stream(seed, "pretrain.shuffle"), len(pool), config.batch_size)
    trace = []
    for step, idx in zip(range(config.steps), batches):
        loss = simclr_batch_loss(model, pool[idx], config, seed=seed, step=step, ids=pool_ids[idx])
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
    evaluate clean inputs.  Two seeded passes of train-mode graphs over the
    clean pool realign them, folded in as a fitting step's (no parameters move).
    """
    batches = _epochs(rng_mod.stream(seed, "pretrain.calibrate"), len(pool), batch_size)
    for idx in islice(batches, _CALIBRATION_PASSES * (len(pool) // batch_size)):
        builder = GraphBuilder(model)
        builder.forward(builder.const(pool[idx]), train="main", heads=())
        commit_batch_stats(model, builder.batch_stats)


def _epochs(gen, n, batch_size):
    """Batches of `batch_size` (at most n) indices from successive
    permutations of range(n) drawn from `gen`, each epoch's remainder
    dropped; endless, and it draws a permutation only when a batch is
    asked for."""
    while True:
        order = gen.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            yield order[start : start + batch_size]


def write_loss_trace(path, trace):
    write_table(path, ["step", "loss"], [INT, REAL], trace)
