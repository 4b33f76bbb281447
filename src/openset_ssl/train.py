"""Consistency-SSL backend, the combined open-set objective, and the
fine-tuning loop.

The combined loss is

    L = H(y, f(x_l)) + beta * H(f(t1(x_u)), f(t2(x_u))) + lambda * H(q, f(x_out))

with the consistency target f(t1(x_u)) detached.  Each H is one
`softmax-cross-entropy` tape node whose targets (labels, consistency
targets, soft-labels) are constants of the step.  During fine-tuning the
labeled, in-class, and consistency forwards run the main branch in eval
mode (frozen pretrained statistics), so the supervised path never moves
the main running statistics.  Detected out-of-class batches run in train
mode: through the auxiliary branch when aux_bn is enabled (their batch
statistics land in the auxiliary running statistics and the main ones
stay bit-identical to an aux-free run), and through the main branch when
it is disabled, which drags the shared statistics toward the out-of-class
distribution, the mismatch the auxiliary BNs exist to absorb.

A `hard-pseudo` backend is also provided: confident argmax labels from a
weak view are fit on a strong view (noise doubled), with sub-threshold
samples masked out (their target rows zeroed, so they add nothing while
the mean stays over the whole batch).
"""

from dataclasses import dataclass, field

import numpy as np

from . import rng as rng_mod
from .artifacts import INT, REAL, TEXT, optional_real, write_table
from .augment import AugmentConfig, augment_batch
from .autodiff import logsumexp_rows, softmax_rows
from .contrastive import GraphLoss
from .model import GraphBuilder, forward, save_checkpoint
from .optim import NesterovSGD

BACKENDS = ("consistency", "hard-pseudo")
LOGITS = ("logits",)  # fine-tuning never reads the projection header


@dataclass(frozen=True)
class SSLConfig:
    backend: str = "consistency"
    beta: float = 1.0
    lam: float = 0.5
    batch_size: int = 64
    steps: int = None  # None: derived from checkpoint interval and count
    lr: float = 0.02
    momentum: float = 0.9
    cosine_decay: bool = False
    confidence_threshold: float = 0.95
    detect: bool = True
    aux_loss: bool = True
    aux_bn: bool = True
    topk_pl: bool = True
    augment: AugmentConfig = None  # required for unlabeled terms

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.beta < 0 or self.lam < 0:
            raise ValueError("beta and lambda must be nonnegative")
        if self.batch_size < 1 or (self.steps is not None and self.steps < 0):
            raise ValueError("batch_size must be >= 1 and steps >= 0")
        if self.aux_loss and self.lam != 0:
            _check_batch_norm_rows(self.batch_size)


def _check_batch_norm_rows(batch_size):
    """The out-of-class term runs train-mode batch norm, which needs two rows."""
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")


@dataclass
class TrainState:
    model: object
    optimizer: NesterovSGD
    step: int = 0
    samples_seen: int = 0
    checkpoint_accuracies: list = field(default_factory=list)


def init_train_state(model, config):
    return TrainState(
        model=model,
        optimizer=NesterovSGD(model.params, lr=config.lr, momentum=config.momentum),
    )


# ----------------------------------------------------------------------
# loss construction
# ----------------------------------------------------------------------


def cross_entropy_node(builder, targets, logits_node, mask=None):
    """Mean over rows of -sum_c targets * log softmax(logits).

    `targets` is a constant matrix whose rows sum to one.  An optional
    (n, 1) mask zeroes individual rows while keeping the mean over the
    full batch.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if mask is not None:
        targets = targets * mask
    return builder.graph.apply("softmax-cross-entropy", [logits_node], targets=targets)


@dataclass
class StepPlan:
    """Everything stochastic about one optimizer step, frozen.

    Rebuilding the loss from a plan is a deterministic function of the
    parameters, which is what gradient checking needs: the consistency /
    pseudo targets below were computed from the model once and do not
    move with the perturbed parameters.
    """

    labeled_x: np.ndarray
    labeled_q: np.ndarray
    cons_x: np.ndarray = None
    cons_targets: np.ndarray = None
    cons_mask: np.ndarray = None
    out_x: np.ndarray = None
    out_q: np.ndarray = None


def prepare_consistency(model, u_x, u_ids, config, seed, step):
    """Frozen targets and second views for the unlabeled term."""
    u_x = np.asarray(u_x, dtype=np.float64)
    if u_x.shape[0] == 0 or config.beta == 0:
        return None, None, None
    aug = config.augment
    if config.backend == "hard-pseudo":  # a weak view and a strong one
        v1 = augment_batch(u_x, u_ids, aug, seed, step, 0)
        v2 = augment_batch(u_x, u_ids, aug.scaled_noise(2.0), seed, step, 1)
    else:  # both views from one family: one call, view-major
        v1, v2 = np.split(augment_batch(u_x, u_ids, aug, seed, step, (0, 1)), 2)
    logits = forward(model, v1, branch="main", mode="eval", heads=LOGITS).logits
    target_probs = softmax_rows(logits)
    if config.backend == "hard-pseudo":
        conf = target_probs.max(axis=1)
        mask = (conf > config.confidence_threshold).astype(np.float64)[:, None]
        return v2, one_hot(target_probs.argmax(axis=1) + 1, target_probs.shape[1]), mask
    return v2, target_probs, None


def build_step_loss(model, plan, config):
    """Differentiable combined loss from a frozen step plan."""
    builder = GraphBuilder(model)
    g = builder.graph

    labeled_q = np.asarray(plan.labeled_q, dtype=np.float64)
    _check_rows_normalized(labeled_q, "labeled targets")
    x_l = builder.const(np.asarray(plan.labeled_x, dtype=np.float64))
    sup_nodes = builder.forward(x_l, branch="main", mode="eval", heads=LOGITS)
    loss = cross_entropy_node(builder, labeled_q, sup_nodes.logits)
    terms = {"supervised": float(g.value(loss))}
    batch_stats = []

    if plan.cons_x is not None:
        x_u = builder.const(plan.cons_x)
        cons_nodes = builder.forward(x_u, branch="main", mode="eval", heads=LOGITS)
        cons = cross_entropy_node(
            builder, plan.cons_targets, cons_nodes.logits, mask=plan.cons_mask
        )
        terms["consistency"] = float(g.value(cons))
        loss = g.apply("add", [loss, g.apply("scale", [cons], factor=config.beta)])

    if plan.out_x is not None:
        out_q = np.asarray(plan.out_q, dtype=np.float64)
        _check_rows_normalized(out_q, "soft-labels")
        # train-mode batch norm either way: without the auxiliary branch
        # the out-of-class batch statistics land in the main running
        # statistics, the distribution mismatch the auxiliary BNs absorb
        branch = "aux" if config.aux_bn else "main"
        x_o = builder.const(plan.out_x)
        out_nodes = builder.forward(x_o, branch=branch, mode="train", heads=LOGITS)
        batch_stats.extend(out_nodes.batch_stats)
        aux = cross_entropy_node(builder, out_q, out_nodes.logits)
        terms["aux"] = float(g.value(aux))
        loss = g.apply("add", [loss, g.apply("scale", [aux], factor=config.lam)])

    return GraphLoss(builder=builder, node=loss, batch_stats=batch_stats, terms=terms)


def _check_rows_normalized(q, what):
    if q.ndim != 2:
        raise ValueError(f"{what} must be a matrix of per-sample distributions")
    if np.abs(q.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError(f"{what} rows must sum to 1 within 1e-9")


# ----------------------------------------------------------------------
# training loops
# ----------------------------------------------------------------------


class _Cycler:
    """Seeded per-epoch shuffles of range(n); shorter streams wrap."""

    def __init__(self, n, seed, label):
        self.n = n
        self.seed = seed
        self.label = label
        self.epoch = 0
        self.pending = []

    def take(self, k):
        out = []
        while len(out) < k:
            if not self.pending:
                gen = rng_mod.stream(self.seed, self.label, self.epoch)
                self.pending = list(gen.permutation(self.n))
                self.epoch += 1
            out.append(self.pending.pop(0))
        return out


def one_hot(labels, num_classes):
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels - 1] = 1.0
    return out


def evaluate_accuracy(model, x, y):
    """Eval-mode main-branch argmax accuracy against 1-based labels."""
    logits = forward(model, np.asarray(x, dtype=np.float64), heads=LOGITS).logits
    pred = logits.argmax(axis=1) + 1
    return float((pred == np.asarray(y, dtype=np.int64)).mean())


def train(
    state,
    labeled_x,
    labeled_q,
    in_ids,
    in_x,
    out_x,
    out_q,
    config,
    seed,
    test_x=None,
    test_y=None,
    checkpoint_interval=None,
    checkpoint_dir=None,
    trace_path=None,
):
    """Run `config.steps` optimizer updates of the combined loss.

    Batches of equal size are drawn per step from the labeled,
    detected-in, and detected-out streams (1:1:1 composition, shorter
    streams cycling).  Test accuracy is evaluated and a checkpoint
    written every `checkpoint_interval` labeled samples.
    """
    labeled_x = np.asarray(labeled_x, dtype=np.float64)
    labeled_q = np.asarray(labeled_q, dtype=np.float64)
    if labeled_x.shape[0] == 0:
        raise ValueError("labeled set is empty")
    in_x = np.asarray(in_x, dtype=np.float64)
    out_x = np.asarray(out_x, dtype=np.float64)
    out_q = np.asarray(out_q, dtype=np.float64)
    in_ids = np.asarray(in_ids, dtype=np.int64)

    model = state.model
    bsz = config.batch_size
    lab_cycle = _Cycler(labeled_x.shape[0], seed, "train.labeled")
    in_cycle = _Cycler(in_x.shape[0], seed, "train.in") if in_x.shape[0] else None
    out_cycle = _Cycler(out_x.shape[0], seed, "train.out") if out_x.shape[0] else None
    use_out = config.aux_loss and config.lam != 0 and out_x.shape[0] > 0

    trace = []
    next_checkpoint = checkpoint_interval
    for local in range(config.steps):
        step = state.step
        li = lab_cycle.take(bsz)
        plan_kwargs = {}
        if in_cycle is not None and config.beta != 0:
            ui = in_cycle.take(bsz)
            cons_x, cons_t, cons_m = prepare_consistency(
                model, in_x[ui], in_ids[ui], config, seed, step
            )
            plan_kwargs.update(cons_x=cons_x, cons_targets=cons_t, cons_mask=cons_m)
        if use_out:
            oi = out_cycle.take(bsz)
            plan_kwargs.update(out_x=out_x[oi], out_q=out_q[oi])
        plan = StepPlan(labeled_x=labeled_x[li], labeled_q=labeled_q[li], **plan_kwargs)
        loss = build_step_loss(model, plan, config)
        loss.update(state.optimizer, config, "training", step, lr_step=local)
        state.step += 1
        state.samples_seen += bsz

        acc = None
        if (
            checkpoint_interval
            and test_x is not None
            and state.samples_seen >= next_checkpoint
        ):
            acc = evaluate_accuracy(model, test_x, test_y)
            state.checkpoint_accuracies.append(acc)
            if checkpoint_dir is not None:
                save_checkpoint(
                    f"{checkpoint_dir}/step_{state.step:06d}.ckpt", model
                )
            next_checkpoint += checkpoint_interval
        ssl_term = loss.terms.get("supervised", 0.0) + config.beta * loss.terms.get(
            "consistency", 0.0
        )
        trace.append(
            (step, loss.value, ssl_term, loss.terms.get("aux", 0.0), acc)
        )

    if trace_path is not None:
        write_train_trace(trace_path, trace)
    return state


def write_train_trace(path, trace):
    """One row per step: (step, total, ssl term, aux term, test accuracy
    or None between checkpoints)."""
    write_table(
        path,
        ["step", "total_loss", "ssl_term", "aux_term", "test_accuracy"],
        [INT, REAL, REAL, REAL, TEXT],
        ((*row[:4], optional_real(row[4])) for row in trace),
    )


def aux_only_train(model, out_x, out_q, config, seed, record_entropy=False):
    """Fit the soft-labeled out-of-class term alone, from the given model.

    A plain main-branch train-mode loop (this is the from-scratch
    informativeness study, not the auxiliary-routing path).  Returns the
    model and, optionally, the mean prediction-entropy trace.
    """
    _check_batch_norm_rows(config.batch_size)
    out_x = np.asarray(out_x, dtype=np.float64)
    out_q = np.asarray(out_q, dtype=np.float64)
    if out_x.shape[0] == 0 or out_q.shape[0] == 0:
        raise ValueError("soft-labeled out-of-class set is empty")
    _check_rows_normalized(out_q, "soft-labels")
    opt = NesterovSGD(model.params, lr=config.lr, momentum=config.momentum)
    cycler = _Cycler(out_x.shape[0], seed, "aux_only")
    entropy_trace = []
    for step in range(config.steps):
        idx = cycler.take(config.batch_size)
        builder = GraphBuilder(model)
        x = builder.const(out_x[idx])
        nodes = builder.forward(x, branch="main", mode="train", heads=LOGITS)
        loss_node = cross_entropy_node(builder, out_q[idx], nodes.logits)
        loss = GraphLoss(builder=builder, node=loss_node, batch_stats=nodes.batch_stats)
        loss.update(opt, config, "aux-only", step)
        if record_entropy:
            logits = builder.graph.value(nodes.logits)
            log_probs = logits - logsumexp_rows(logits)
            entropy_trace.append(float(-(np.exp(log_probs) * log_probs).sum(axis=1).mean()))
    if record_entropy:
        return model, entropy_trace
    return model
