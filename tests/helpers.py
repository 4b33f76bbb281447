"""Shared test utilities."""

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from openset_ssl import rng
from openset_ssl.autodiff import DiffGraph, grad_check
from openset_ssl.contrastive import GraphLoss
from openset_ssl.model import GraphBuilder, commit_batch_stats
from openset_ssl.train import build_step_loss


def reduce_sum(g, node):
    """The sum of a 2-D node's entries as a (1, 1) node, through
    ones-vector matmuls; a 0-d node is already a scalar and is returned.

    A full sum, not a mean: a mean would scale the absolute error of a
    gradient check down by the entry count.
    """
    value = g.value(node)
    if value.ndim == 0:
        return node
    rows, cols = value.shape
    row_sums = g.apply("matmul", [g.input(np.ones((1, rows))), node])
    return g.apply("matmul", [row_sums, g.input(np.ones((cols, 1)))])


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
        return g, xid, reduce_sum(g, out)

    def fn(x):
        g, _, root = assemble(x)
        return g.value(root).item()

    def gradient(x):
        g, xid, root = assemble(x)
        return g.backward(root)[xid]

    fn.gradient = gradient
    return fn


def train_forward(model, x, branch="main", head="embedding"):
    """`head`'s values of one train-mode graph over the whole batch `x`
    on `branch`, whose batch moments fold into that branch's running
    statistics, as a fitting step's do."""
    builder = GraphBuilder(model)
    node = builder.forward(builder.const(np.asarray(x, dtype=np.float64)), head, train=branch)
    commit_batch_stats(model, builder.batch_stats)
    return builder.graph.value(node)


def reference_batch_norm(g, h_id, eps):
    """Train-mode batch norm of node `h_id` as the primitive composition
    the model built before the fused `batch-norm` kind, node for node.

    Returns the (normed, mu, var) node ids.  The oracle test in
    test_autodiff.py holds this and the fused kind to one error bound.
    """
    n_rows = g.value(h_id).shape[0]
    width = g.value(h_id).shape[1]
    ones_row = g.input(np.full((1, n_rows), 1.0 / n_rows))
    mu = g.apply("matmul", [ones_row, h_id])
    centered = g.apply("add", [h_id, g.apply("scale", [mu], factor=-1.0)])
    sq = g.apply("elementwise-mul", [centered, centered])
    var = g.apply("matmul", [ones_row, sq])
    eps_row = g.input(np.full((1, width), eps))
    inv_std = g.apply(
        "exp",
        [g.apply("scale", [g.apply("log", [g.apply("add", [var, eps_row])])], factor=-0.5)],
    )
    normed = g.apply("elementwise-mul", [centered, inv_std])
    return normed, mu, var


def reference_ntxent(g, proj_id, tau):
    """NT-Xent of node `proj_id` as the six-node composition the SimCLR
    loss built before the `ntxent` kind, node for node: normalized rows,
    cosine logits, a constant diagonal mask added, and softmax cross
    entropy against the one-hot positives."""
    two_n = g.value(proj_id).shape[0]
    normed = g.apply("l2-normalize-rows", [proj_id])
    sims = g.apply("matmul", [normed, normed], transpose_b=True)
    logits = g.apply("scale", [sims], factor=1.0 / tau)
    rows = np.arange(two_n)
    mask = np.zeros((two_n, two_n))
    mask[rows, rows] = -1e9
    masked = g.apply("add", [logits, g.input(mask)])
    positives = np.zeros((two_n, two_n))
    positives[rows, (rows + two_n // 2) % two_n] = 1.0
    return g.apply("softmax-cross-entropy", [masked], targets=positives)


def reference_step_loss(model, plan, config):
    """The combined loss as `train.build_step_loss` built it before the
    stacked pass, node for node: one eval-mode forward and one
    `softmax-cross-entropy` node per batch, the consistency one over every
    row of the plan, zero target rows included, joined by `scale` and `add`.
    """
    builder = GraphBuilder(model)
    g = builder.graph
    x_l = builder.const(np.asarray(plan.labeled_x, dtype=np.float64))
    sup_logits = builder.forward(x_l, "logits")
    loss = g.apply("softmax-cross-entropy", [sup_logits], targets=plan.labeled_q)
    terms = {"supervised": float(g.value(loss))}
    if plan.cons_x is not None:
        x_u = builder.const(plan.cons_x)
        cons_logits = builder.forward(x_u, "logits")
        cons = g.apply("softmax-cross-entropy", [cons_logits], targets=plan.cons_targets)
        terms["consistency"] = float(g.value(cons))
        loss = g.apply("add", [loss, g.apply("scale", [cons], factor=config.beta)])
    if plan.out_x is not None:
        branch = "aux" if config.aux_bn else "main"
        x_o = builder.const(plan.out_x)
        out_logits = builder.forward(x_o, "logits", train=branch)
        aux = g.apply("softmax-cross-entropy", [out_logits], targets=plan.out_q)
        terms["aux"] = float(g.value(aux))
        loss = g.apply("add", [loss, g.apply("scale", [aux], factor=config.lam)])
    return GraphLoss(builder=builder, node=loss, terms=terms)


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
    """Smallest |pre-activation| over relu and affine-relu nodes that pass
    gradient; an affine-relu's pre-activation is x * scale + shift."""
    g = loss.builder.graph
    grads = g.backward(loss.node)
    margin = np.inf
    for i, node in enumerate(g.nodes):
        if node.op == "relu":
            pre = g.value(node.inputs[0])
            passed = grads[node.inputs[0]]
        elif node.op == "affine-relu":
            x, scale, shift = (g.value(j) for j in node.inputs)
            pre = x * scale + shift
            passed = grads[i] * (pre > 0.0)
        else:
            continue
        if np.abs(passed).max() == 0.0:
            continue
        margin = min(margin, float(np.abs(pre).min()))
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


def reference_cosine(u, v):
    """Cosine similarity of two vectors as it was computed one pair at a
    time: u.v / (|u||v|), 0 when either norm is below 1e-12.  The matrix
    `model.cosine_similarity` must reproduce it entry for entry."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    return float(u @ v / (nu * nv))


def reference_midranks(values):
    """1-based midranks by a scan over the stably sorted values, the loop
    `metrics._midranks` replaced; ties share the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


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


def reference_nesterov_step(params, velocity, grads, lr, mu):
    """One `optim.NesterovSGD` step, parameter by parameter, into fresh
    arrays: v = mu*v + g; p = p - lr*(g + mu*v), an absent gradient zero."""
    for name, p in params.items():
        g = grads.get(name)
        g = np.zeros_like(p) if g is None else g
        velocity[name] = mu * velocity[name] + g
        params[name] = p - lr * (g + mu * velocity[name])


def reference_pretrain_batches(gen, n, batch_size, steps):
    """The index batches `contrastive.pretrain` drew from `gen` by list
    slicing: a fresh permutation whenever fewer than a batch remained."""
    order, out = [], []
    for _ in range(steps):
        if len(order) < batch_size:
            order = list(gen.permutation(n))
        take, order = order[:batch_size], order[batch_size:]
        out.append(take)
    return out


def reference_calibration_batches(gen, n, batch_size, passes):
    """The index batches `contrastive.calibrate_running_stats` drew from
    `gen`: one permutation per pass, cut into whole batches."""
    out = []
    for _ in range(passes):
        order = gen.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            out.append(order[start : start + batch_size])
    return out


# ----------------------------------------------------------------------
# artifact writers as they were written with csv.writer and json.dump,
# kept as the byte-level references for the artifact codec
# ----------------------------------------------------------------------


@dataclass
class PseudoLabel:
    sample_id: int
    assigned_class: int  # 1..C
    confidence: float


def reference_select_topk(in_ids, probs, k):
    """The first `k` pseudo-labels of a pool whose head probabilities are
    `probs`: most confident first, ties toward the smaller sample id."""
    conf = probs.max(axis=1)
    classes = probs.argmax(axis=1) + 1
    order = sorted(range(len(in_ids)), key=lambda i: (-conf[i], in_ids[i]))
    return [PseudoLabel(int(in_ids[i]), int(classes[i]), float(conf[i])) for i in order[:k]]


def reference_oversample(ids, labels):
    """The ids of the class-balanced set: every id once, then each class's
    ids in ascending order, round-robin up to the largest class's count."""
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


def reference_write_dataset(path, data):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{i}" for i in range(data.dim)]
                        + ["label", "truth", "origin"])
        for i in range(len(data)):
            writer.writerow([int(data.ids[i])] + [f"{v:.17g}" for v in data.x[i]]
                            + [int(data.label[i]), int(data.truth[i]), data.origin[i]])


def reference_write_loss_trace(path, trace):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for step, loss in trace:
            writer.writerow([step, f"{loss:.17g}"])


def reference_write_train_trace(path, trace):
    """Rows (step, total, ssl term, aux term, accuracy or None)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "total_loss", "ssl_term", "aux_term", "test_accuracy"])
        for row in trace:
            acc = "" if row[4] is None else f"{row[4]:.17g}"
            writer.writerow([row[0]] + [f"{v:.17g}" for v in row[1:4]] + [acc])


def reference_write_scored_manifest(path, ids, sims, scores, threshold):
    width = np.asarray(sims).shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sample_id"] + [f"sim_{c}" for c in range(1, width + 1)] + ["score", "split"]
        )
        for sid, row, score in zip(ids, sims, scores):
            split = "out" if score < threshold else "in"
            writer.writerow(
                [int(sid)] + [f"{v:.17g}" for v in row] + [f"{score:.17g}", split]
            )


def reference_write_soft_label_manifest(path, ids, labels):
    width = np.asarray(labels).shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id"] + [f"q_{c}" for c in range(1, width + 1)])
        for sid, q in zip(ids, labels):
            writer.writerow([int(sid)] + [f"{v:.17g}" for v in q])


def reference_write_pseudo_label_manifest(path, pseudo):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "assigned_class", "confidence"])
        for sid, cls, conf in zip(*pseudo):
            writer.writerow([int(sid), int(cls), f"{conf:.17g}"])


def _fmt(value):
    return "" if value is None else f"{value:.17g}"


def reference_write_sweep_table(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "median_accuracy", "best_accuracy", "auroc", "tpr",
                         "tnr", "threshold", "in_count", "out_count", "error"])
        for row in rows:
            rep = row["report"]
            if rep is None:
                writer.writerow([row["axis"], f"{row['value']:g}"] + [""] * 8 + [row["error"]])
                continue
            det = rep["detection"]
            writer.writerow(
                [row["axis"], f"{row['value']:g}", _fmt(rep["median_accuracy"]),
                 _fmt(rep["best_accuracy"]), _fmt(det["auroc"]), _fmt(det["tpr"]),
                 _fmt(det["tnr"]), _fmt(det["threshold"]), rep["split_sizes"]["in"],
                 rep["split_sizes"]["out"], ""]
            )


def reference_write_curve_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "median_accuracy", "best_accuracy"])
        for row in rows:
            rep = row["report"]
            if rep is not None:
                writer.writerow([f"{row['value']:g}", _fmt(rep["median_accuracy"]),
                                 _fmt(rep["best_accuracy"])])


def reference_write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def reference_read_table(path, converters, default=None):
    """`artifacts.read_table` as it read a whole file before converting,
    kept as the reference for what a streamed read returns and raises."""
    with open(path, newline="") as fh:
        text = fh.read()
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: line 1: no header")
    header = rows[0]
    width = len(header)

    def fail(record, col, reason):
        records = csv.reader(io.StringIO(text, newline=""))
        line = 1
        for _ in range(record):
            next(records)
            line = records.line_num + 1
        name = repr(header[col]) if col < width else f"#{col + 1}"
        raise ValueError(f"{path}: line {line}, column {name}: {reason}")

    for name in converters:
        if name not in header:
            raise ValueError(f"{path}: line 1: no column {name!r}")
    for col, name in enumerate(header):
        if name not in converters and default is None:
            fail(0, col, "unexpected column")
    if not text.endswith("\n"):
        fail(len(rows) - 1, len(rows[-1]) - 1, "truncated, the line has no terminator")
    if set(map(len, rows)) - {width}:
        record = next(i for i, row in enumerate(rows) if len(row) != width)
        found = len(rows[record])
        fail(record, min(found, width), f"{found} fields where the header has {width}")
    table = {}
    columns = zip(*rows[1:]) if len(rows) > 1 else [()] * width
    for col, (name, fields) in enumerate(zip(header, columns)):
        convert = converters.get(name, default)
        try:
            table[name] = list(map(convert, fields))
        except ValueError:
            for record, field in enumerate(fields, start=1):
                try:
                    convert(field)
                except ValueError as exc:
                    fail(record, col, str(exc))
    return table
