"""Outside-in tracing of the openset_ssl layers.

`Tracer.install` wraps the public functions of the package's modules, and
a few named methods, at run time; `uninstall` puts the originals back.
Nothing under `src/` knows it is being traced.

Per call the wrappers only update an in-memory aggregate (calls, self
time).  Functions called per row, per view or per tape node (`HOT`) stop
there; every other call also appends one span record
`(span_id, parent_id, name, start, end)` to a list that is written out
when the benchmark ends.  Self time is a call's duration minus the time
its wrapped children took, which the wrappers pass up a stack.

Modules are loaded with `importlib.import_module`: the package
`__init__` binds the functions `augment` and `train` over the submodule
attributes of the same names.  A function imported by name into another
module (`from .augment import augment_batch`) is patched there too, so
the call sites inside the package see the wrapper.
"""

import importlib
import inspect
import itertools
import os
import statistics
import sys
import time

PACKAGE = "openset_ssl"

MODULES = (
    "rng", "augment", "autodiff", "model", "optim", "contrastive",
    "train", "detect", "labeling", "data", "harness", "cli",
)

METHODS = (
    "autodiff.DiffGraph.apply",
    "autodiff.DiffGraph.backward",
    "model.GraphBuilder.forward",
    "optim.NesterovSGD.step",
    "contrastive.GraphLoss.parameter_gradients",
)

# called per row, per view or per tape node: aggregate only, no span record
HOT = frozenset({
    "rng.stream",
    "augment.view_rng",
    "augment.augment",
    "autodiff.DiffGraph.apply",
    "model.cosine_similarity",
    "detect.sims_from_projection",
    "detect.detection_score",
    "labeling.soft_label",
})

# functions whose first argument is the file (or directory) they read or write
BYTES = frozenset({
    "data.write_benchmark", "data.read_benchmark",
    "data.write_dataset", "data.read_dataset",
    "model.save_checkpoint", "model.load_checkpoint",
    "detect.write_scored_manifest", "detect.read_scored_manifest",
    "labeling.write_soft_label_manifest", "labeling.read_soft_label_manifest",
    "labeling.write_pseudo_label_manifest", "labeling.read_pseudo_label_manifest",
})

# functions whose second argument is a batch (or id list): count its rows
ROWS = frozenset({"augment.augment_batch", "model.forward"})

OP_KINDS = (
    "matmul", "add", "scale", "relu", "mean", "sum", "exp", "log",
    "softmax-rows", "l2-normalize-rows", "elementwise-mul", "concat-rows",
    "slice-rows",
)

PRETRAIN_PHASES = ("augment", "forward", "backward", "update")
TRAIN_PHASES = ("augment", "targets", "forward", "backward", "update", "checkpoint")


def _per_layer_names():
    units = {"calls": "count", "self_s": "s", "rows": "count", "bytes": "B"}
    names = [
        "rng.stream.calls", "rng.stream.self_s",
        "augment.augment_batch.rows", "augment.augment_batch.self_s",
        "augment.augment.self_s", "augment.view_rng.self_s",
    ]
    for op in OP_KINDS:
        names += [f"autodiff.DiffGraph.apply.{op}.calls", f"autodiff.DiffGraph.apply.{op}.self_s"]
    names += [
        "autodiff.DiffGraph.backward.calls", "autodiff.DiffGraph.backward.self_s",
        "model.GraphBuilder.forward.calls", "model.GraphBuilder.forward.self_s",
        "model.forward.rows", "model.forward.self_s",
        "model.commit_batch_stats.calls",
        "model.cosine_similarity.calls", "model.cosine_similarity.self_s",
        "detect.sims_from_projection.self_s", "detect.score_samples.self_s",
    ]
    for name in sorted(BYTES):
        names += [f"{name}.bytes", f"{name}.self_s"]
    names += [
        "optim.NesterovSGD.step.self_s",
        "contrastive.ntxent_matrix_loss.self_s",
        "contrastive.simclr_batch_loss.self_s",
        "train.prepare_consistency.self_s",
        "train.build_step_loss.self_s",
        "train.cross_entropy_node.self_s",
        "train.evaluate_accuracy.self_s",
        "labeling.train_linear_eval.self_s",
        "labeling.select_topk.self_s",
        "labeling.soft_label.calls",
        "harness.prepare_benchmark.self_s",
        "harness.stage_pretrain.self_s",
        "harness.stage_detect.self_s",
        "harness.stage_label.self_s",
        "harness.stage_train.self_s",
        "harness.recompute_metrics.self_s",
        "cli.main.calls",
    ]
    out = [(n, units[n.rsplit(".", 1)[1]]) for n in names]
    out += [("autodiff.nodes_per_step", "count"), ("autodiff.grad_useful_ratio", "1")]
    for stage, phases in (("pretrain", PRETRAIN_PHASES), ("train", TRAIN_PHASES)):
        for phase in phases:
            out += [(f"{stage}.step.{phase}_ms.p50", "ms"), (f"{stage}.step.{phase}_ms.p90", "ms")]
    out.append(("trace.overhead_ratio", "1"))
    return out


# (name, unit) of every per-layer metric a traced run reports
PER_LAYER = _per_layer_names()


def _path_bytes(path):
    path = os.fspath(path)
    if os.path.isdir(path):
        return sum(
            e.stat().st_size for e in os.scandir(path) if e.is_file(follow_symlinks=False)
        )
    return os.path.getsize(path)


def _needed_nodes(graph, root, param_ids):
    """Nodes on some path from a parameter leaf to the root."""
    nodes = graph.nodes
    depends = [False] * (root + 1)
    for i in range(root + 1):
        depends[i] = i in param_ids or any(depends[j] for j in nodes[i].inputs)
    reached = [False] * (root + 1)
    reached[root] = True
    count = 0
    for i in range(root, -1, -1):
        if reached[i]:
            count += depends[i]
            for j in nodes[i].inputs:
                reached[j] = True
    return count


class Tracer:
    """Wraps the package's layers and aggregates what they do.

    Single-threaded by design: the package runs on one thread.
    """

    def __init__(self):
        self.spans = []
        self._stack = [[0, 0.0]]  # frames of [span id, time spent in wrapped children]
        self._ids = itertools.count(1)
        self._patched = []
        self.stats = {}  # name -> [calls, self_s]
        self.reset()

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    def reset(self):
        """Start a new measurement window (spans are kept)."""
        for stat in self.stats.values():  # zeroed in place: wrappers hold them
            stat[0], stat[1] = 0, 0.0
        self.rows = {}
        self.bytes = {}
        self.nodes_per_backward = []
        self.grad_needed = 0
        self.grad_allocated = 0
        self._window_start = len(self.spans)

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0])

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        if name == "autodiff.DiffGraph.apply":
            op_stats = {op: self._stat(f"{name}.{op}") for op in OP_KINDS}

            def apply_wrapper(graph, op, inputs, **params):
                frame = [0, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(graph, op, inputs, **params)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stat = op_stats.get(op)
                    if stat is not None:
                        stat[0] += 1
                        stat[1] += dt - frame[1]
                    stack[-1][1] += dt
            return apply_wrapper

        stat = self._stat(name)
        if name in HOT:
            def hot_wrapper(*args, **kwargs):
                frame = [0, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stat[0] += 1
                    stat[1] += dt - frame[1]
                    stack[-1][1] += dt
            return hot_wrapper

        after = self._after_hook(name)
        ids = self._ids
        spans = self.spans

        def span_wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt - frame[1]
                parent[1] += dt
                spans.append((frame[0], parent[0], name, t0, t1))
            if after is not None:
                after(args, kwargs, result)
            return result
        return span_wrapper

    def _after_hook(self, name):
        if name in BYTES:
            def count_bytes(args, kwargs, result):
                self.bytes[name] = self.bytes.get(name, 0) + _path_bytes(args[0])
            return count_bytes
        if name in ROWS:
            def count_rows(args, kwargs, result):
                self.rows[name] = self.rows.get(name, 0) + len(args[1])
            return count_rows
        if name == "autodiff.DiffGraph.backward":
            def count_nodes(args, kwargs, result):
                self.nodes_per_backward.append(len(args[0].nodes))
            return count_nodes
        if name == "contrastive.GraphLoss.parameter_gradients":
            def count_useful(args, kwargs, result):
                loss = args[0]
                graph = loss.builder.graph
                params = set(loss.builder.param_nodes.values())
                self.grad_needed += _needed_nodes(graph, loss.node, params)
                self.grad_allocated += len(graph.nodes)
            return count_useful
        return None

    def install(self):
        """Wrap every traced layer; raises if a named method is missing."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        for path in METHODS:
            short, cls_name, meth = path.split(".")
            cls = getattr(importlib.import_module(f"{PACKAGE}.{short}"), cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self._wrap(path, original))
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reading a window
    # ------------------------------------------------------------------

    def calls(self, name):
        """Calls recorded in this window; apply counts over all op kinds."""
        if name == "autodiff.DiffGraph.apply":
            return sum(v[0] for k, v in self.stats.items() if k.startswith(name + "."))
        return self.stats.get(name, [0, 0.0])[0]

    def window_metrics(self):
        """Per-layer values of this window (phases are returned apart)."""
        out = {}
        for name, unit in PER_LAYER:
            base, stat = name.rsplit(".", 1)
            if stat == "calls":
                out[name] = self.calls(base)
            elif stat == "self_s":
                out[name] = self.stats.get(base, [0, 0.0])[1]
            elif stat == "rows":
                out[name] = self.rows.get(base, 0)
            elif stat == "bytes":
                out[name] = self.bytes.get(base, 0)
        out["autodiff.nodes_per_step"] = (
            statistics.median(self.nodes_per_backward) if self.nodes_per_backward else 0
        )
        out["autodiff.grad_useful_ratio"] = (
            self.grad_needed / self.grad_allocated if self.grad_allocated else 0.0
        )
        return out

    def window_phases(self):
        """Per-step phase durations (ms) of the training loops in this window."""
        spans = self.spans[self._window_start:]
        children = {}
        for span in spans:
            children.setdefault(span[1], []).append(span)
        phases = {}

        def add(stage, step):
            for phase, ms in step.items():
                phases.setdefault(f"{stage}.step.{phase}_ms", []).append(ms)

        def augment_ms(span):
            return sum(
                (c[4] - c[3]) * 1e3 for c in children.get(span[0], ())
                if c[2] == "augment.augment_batch"
            )

        for span in spans:
            if span[2] == "contrastive.pretrain":
                step = None
                for c in children.get(span[0], ()):
                    ms = (c[4] - c[3]) * 1e3
                    if c[2] == "contrastive.simclr_batch_loss":
                        if step:
                            add("pretrain", step)
                        aug = augment_ms(c)
                        step = {"augment": aug, "forward": ms - aug}
                    elif step is None:
                        continue
                    elif c[2] == "contrastive.GraphLoss.parameter_gradients":
                        step["backward"] = step.get("backward", 0.0) + ms
                    elif c[2] in ("optim.NesterovSGD.step", "model.commit_batch_stats",
                                  "optim.cosine_lr"):
                        step["update"] = step.get("update", 0.0) + ms
                    else:  # calibration and trace writing close the last step
                        add("pretrain", step)
                        step = None
                if step:
                    add("pretrain", step)
            elif span[2] == "train.train":
                step = {}
                for c in children.get(span[0], ()):
                    ms = (c[4] - c[3]) * 1e3
                    starts = c[2] == "train.prepare_consistency" or (
                        c[2] == "train.build_step_loss" and "forward" in step
                    )
                    if starts and step:
                        add("train", step)
                        step = {}
                    if c[2] == "train.prepare_consistency":
                        aug = augment_ms(c)
                        step["augment"] = aug
                        step["targets"] = ms - aug
                    elif c[2] == "train.build_step_loss":
                        step["forward"] = ms
                    elif c[2] == "contrastive.GraphLoss.parameter_gradients":
                        step["backward"] = step.get("backward", 0.0) + ms
                    elif c[2] in ("optim.NesterovSGD.step", "model.commit_batch_stats",
                                  "optim.cosine_lr"):
                        step["update"] = step.get("update", 0.0) + ms
                    elif c[2] in ("train.evaluate_accuracy", "model.save_checkpoint"):
                        step["checkpoint"] = step.get("checkpoint", 0.0) + ms
                if step:
                    add("train", step)
        return phases

    def write_spans(self, path):
        """All span records as JSON lines: id, parent, name, start, end."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(f'[{sid}, {parent}, "{name}", {t0!r}, {t1!r}]\n')


def percentile(values, q):
    """Linear-interpolated q-th percentile (0..100) of a nonempty list."""
    values = sorted(values)
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def phase_metrics(samples):
    """p50/p90 per phase from pooled per-step samples; absent phases read 0."""
    out = {}
    for stage, phases in (("pretrain", PRETRAIN_PHASES), ("train", TRAIN_PHASES)):
        for phase in phases:
            values = samples.get(f"{stage}.step.{phase}_ms") or [0.0]
            out[f"{stage}.step.{phase}_ms.p50"] = percentile(values, 50)
            out[f"{stage}.step.{phase}_ms.p90"] = percentile(values, 90)
    return out
