"""End-to-end experiment orchestration and sweeps.

A run executes: contrastive pretraining on the pooled features, prototype
construction, scoring/threshold/split of the unlabeled pool, soft- and
pseudo-label assignment, class-balancing oversampling, and open-set
fine-tuning with checkpointed test accuracy.  Every stage persists its
manifest under the run directory, and all randomness derives from the one
master seed, so identical configs reproduce byte-identical reports
(timings aside) and flipping a downstream component cannot move an
upstream artifact.

`stages()` is the one table of the stages (run, loader, main file) and
`run_stages` the one driver: `run_experiment` runs all five, a staged
command one, after loading what came before from the run directory: a
generated dataset whose spec.json is not the config's benchmark fails.  The
detection is rebuilt from the two scored manifests under the config
(`detect.json` is never read back), so a detection config that changed
since `detect` fails; `train` recomputes the soft labels and holds both
label manifests to its labeling config.
"""

import contextlib
import fnmatch
import json
import math
import os
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .artifacts import (
    TEXT, fields_of, from_dict, optional_real, read_json, read_table, write_json, write_table,
)
from .augment import AugmentConfig
from .contrastive import ContrastiveConfig, pretrain
from .data import BenchmarkSpec, generate, read_benchmark, write_benchmark
from .detect import (
    DetectionConfig,
    compute_threshold,
    detection_score,
    out_mask,
    prototypes_from_projections,
    read_scored_manifest,
    score_samples,
    write_scored_manifest,
)
from .labeling import (
    LabelingConfig,
    PseudoLabels,
    oversample,
    read_pseudo_label_manifest,
    read_soft_label_manifest,
    select_topk,
    topk_count,
    train_linear_eval,
    write_pseudo_label_manifest,
    write_soft_label_manifest,
    soft_label,
)
from .metrics import auroc, median_last_n, tpr_tnr
from .model import (ModelConfig, build_model, cosine_similarity, forward, load_checkpoint,
                    save_checkpoint)
from .train import SSLConfig, init_train_state, one_hot, train

# each sweep axis -> the (section, field) of `ExperimentConfig` it sets
SWEEP_AXES = {"proportion": ("benchmark", "out_proportion"), "tau_sl": ("labeling", "tau_sl"),
              "lambda": ("ssl", "lam"), "k_fraction": ("labeling", "k_fraction"),
              "eta": ("detection", "eta")}


@dataclass(frozen=True)
class ModelShape:
    """Model hyperparameters that do not depend on the dataset."""

    hidden_dims: tuple = (64,)
    embed_dim: int = 32
    proj_dim: int = 16
    bn_epsilon: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):  # a bad shape fails where the config is read
        self.resolve(1, 2)

    def resolve(self, input_dim, num_classes):
        return ModelConfig(input_dim=input_dim, num_classes=num_classes, **asdict(self))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run depends on.  As a dict (`to_dict`, config files)
    the keys are the field names, except `ssl.lambda` for `SSLConfig.lam`."""

    seed: int = 0
    out_dir: str = "run"
    benchmark: BenchmarkSpec = field(default_factory=BenchmarkSpec)
    dataset_dir: str = None  # overrides `benchmark` when set
    model: ModelShape = field(default_factory=ModelShape)
    contrastive: ContrastiveConfig = field(
        default_factory=lambda: ContrastiveConfig(
            augment=AugmentConfig(stream="pretrain.augment")
        )
    )
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    labeling: LabelingConfig = field(default_factory=LabelingConfig)
    ssl: SSLConfig = field(
        default_factory=lambda: SSLConfig(augment=AugmentConfig(stream="train.augment"))
    )
    checkpoint_interval: int = 1280  # in labeled training samples
    checkpoint_count: int = 20
    median_last: int = 5
    raw_text: str = field(default=None, metadata={"document": False})  # echoed into the report

    def __post_init__(self):
        for name in ("checkpoint_interval", "checkpoint_count", "median_last"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")

    def resolved_steps(self):
        if self.ssl.steps is not None:
            return self.ssl.steps
        return math.ceil(
            self.checkpoint_interval * self.checkpoint_count / self.ssl.batch_size
        )

    def to_dict(self):
        d = asdict(self)
        del d["raw_text"]
        d["ssl"]["lambda"] = d["ssl"].pop("lam")
        return d

    @classmethod
    def from_dict(cls, d, raw_text=None, base=None):
        """Inverse of `to_dict`: `artifacts.from_dict`, strict unless `base` is given."""
        return replace(from_dict(cls, d, base), raw_text=raw_text)


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------


def prepare_benchmark(config):
    """Generate (and persist) the benchmark, or read an existing one."""
    if config.dataset_dir:
        return read_benchmark(config.dataset_dir)
    bench = generate(replace(config.benchmark, seed=config.seed))
    write_benchmark(os.path.join(config.out_dir, "dataset"), bench)
    return bench


def load_benchmark(config):
    """The benchmark `prepare_benchmark` gave under `config`, read back:
    `dataset_dir`'s, or the run directory's, whose spec.json must be the
    config's benchmark at the run seed."""
    if config.dataset_dir:
        return read_benchmark(config.dataset_dir)
    bench = read_benchmark(os.path.join(config.out_dir, "dataset"))
    spec = os.path.join(config.out_dir, "dataset", "spec.json")
    _hold_to_config(spec, bench.spec, replace(config.benchmark, seed=config.seed))
    return bench


def _hold_to_config(path, found, want):
    """Fail naming `path` and the first field where `found`, read there, is not `want`."""
    differ = [f.name for f in fields(want) if getattr(found, f.name) != getattr(want, f.name)]
    if differ:
        raise ValueError(f"{path}: {differ[0]} is {getattr(found, differ[0])!r} where the "
                         f"config gives {getattr(want, differ[0])!r}")


def load_pretrained(config, bench):
    """pretrained.ckpt, whose model config must be the one `config` gives."""
    path = os.path.join(config.out_dir, "pretrained.ckpt")
    model = load_checkpoint(path)
    _hold_to_config(path, model.config, config.model.resolve(bench.spec.dim, bench.spec.in_classes))
    return model


def stage_pretrain(config, bench):
    model_cfg = config.model.resolve(bench.spec.dim, bench.spec.in_classes)
    model = build_model(model_cfg, config.seed)
    pool_x = np.concatenate([bench.labeled.x, bench.unlabeled.x])
    pool_ids = np.concatenate([bench.labeled.ids, bench.unlabeled.ids])
    model, _ = pretrain(
        model,
        pool_x,
        pool_ids,
        config.contrastive,
        config.seed,
        trace_path=os.path.join(config.out_dir, "pretrain_trace.csv"),
    )
    save_checkpoint(os.path.join(config.out_dir, "pretrained.ckpt"), model)
    return model


@dataclass
class DetectOutcome:
    """Detection of the unlabeled pool, as columns in the row order of
    `bench.unlabeled`."""

    threshold: float
    mu: float
    sigma: float
    ids: np.ndarray  # (n,) sample ids
    sims: np.ndarray  # (n, C) cosine similarity to each class prototype
    scores: np.ndarray  # (n,) detection scores
    metrics: dict  # tpr/tnr/auroc vs hidden truth, or None at p = 0 or 1

    @property
    def out(self):
        """Mask of the rows detected out-of-class."""
        return out_mask(self.scores, self.threshold)

    @property
    def in_set(self):
        return self.ids[~self.out]

    @property
    def out_set(self):
        return self.ids[self.out]

    def summary(self):
        """Threshold, mu, sigma, tpr/tnr/auroc (None unless the pool holds
        both origins) and the split sizes, as report.json and `eval` give them."""
        return {"threshold": self.threshold, "mu": self.mu, "sigma": self.sigma,
                **(self.metrics or dict.fromkeys(("tpr", "tnr", "auroc"))),
                "split_sizes": {"in": len(self.in_set), "out": len(self.out_set)}}


def stage_detect(config, bench, model):
    labeled = forward(model, bench.labeled.x, "projection")  # for prototypes and scores both
    protos = prototypes_from_projections(labeled, bench.labeled.label, model.config.num_classes)
    labeled_sims = cosine_similarity(labeled, protos)
    labeled_scores = detection_score(labeled_sims)
    sims, scores = score_samples(bench.unlabeled.x, protos, model)
    det = detect_outcome(labeled_scores, bench.unlabeled, sims, scores, config.detection)
    write_scored_manifest(
        os.path.join(config.out_dir, "scored.csv"), det.ids, sims, scores, det.threshold
    )
    write_scored_manifest(
        os.path.join(config.out_dir, "scored_labeled.csv"),
        bench.labeled.ids, labeled_sims, labeled_scores, det.threshold,
    )
    write_detect_summary(config.out_dir, det, config)
    return det


def detect_outcome(labeled_scores, pool, sims, scores, detection):
    """The detection of `pool` (a benchmark's unlabeled split) from its
    similarities and scores, at the threshold that `detection` sets over
    the labeled scores.  Metrics are tpr/tnr/auroc against the pool's
    hidden origins, None unless it holds both in- and out-of-class rows."""
    threshold, mu, sigma = compute_threshold(labeled_scores, detection)
    is_out = pool.origin == "out"
    metrics = None
    if is_out.any() and (~is_out).any():
        metrics = tpr_tnr(scores, is_out, threshold)
        metrics["auroc"] = auroc(scores, is_out)
    return DetectOutcome(threshold, mu, sigma, pool.ids, sims, scores, metrics)


def stage_label(config, bench, model, det):
    out = det.out
    write_soft_label_manifest(os.path.join(config.out_dir, "softlabels.csv"),
                              det.ids[out], soft_label(det.sims[out], config.labeling.tau_sl))
    pseudo = PseudoLabels(det.ids[:0], det.ids[:0], np.zeros(0))
    if config.ssl.topk_pl and not out.all():
        head = train_linear_eval(
            model,
            bench.labeled.x,
            bench.labeled.label,
            config.labeling,
            config.seed,
        )
        pseudo = select_topk(
            det.ids[~out], bench.unlabeled.x[~out], head, model, config.labeling.k_fraction
        )
    write_pseudo_label_manifest(os.path.join(config.out_dir, "pseudolabels.csv"), pseudo)
    return pseudo


def stage_train(config, bench, model, det, pseudo):
    """Fine-tune, then write final.ckpt and the run's report.json; an
    earlier run's step checkpoints are removed first."""
    pool = bench.unlabeled
    by_id = np.argsort(pool.ids)
    rows = by_id[np.searchsorted(pool.ids, pseudo.ids, sorter=by_id)]  # pseudo-labeled rows
    labels = np.concatenate([bench.labeled.label, pseudo.classes])
    balanced = oversample(np.concatenate([bench.labeled.ids, pseudo.ids]), labels)
    labeled_x = np.concatenate([bench.labeled.x, pool.x[rows]])[balanced]
    labeled_q = one_hot(labels[balanced], bench.spec.in_classes)

    out = det.out & config.ssl.detect  # without detection the whole pool counts as in-class
    out_q = soft_label(det.sims[out], config.labeling.tau_sl)
    in_ids, in_x = bench.unlabeled.ids[~out], bench.unlabeled.x[~out]
    out_x = bench.unlabeled.x[out]

    ckpt_dir = os.path.join(config.out_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    for name in fnmatch.filter(os.listdir(ckpt_dir), "step_*.ckpt"):
        os.remove(os.path.join(ckpt_dir, name))
    ssl_cfg = replace(config.ssl, steps=config.resolved_steps())
    state = init_train_state(model, ssl_cfg)
    state = train(
        state,
        labeled_x,
        labeled_q,
        in_ids,
        in_x,
        out_x,
        out_q,
        ssl_cfg,
        config.seed,
        test_x=bench.test.x,
        test_y=bench.test.label,
        checkpoint_interval=config.checkpoint_interval,
        checkpoint_dir=ckpt_dir,
        trace_path=os.path.join(config.out_dir, "train_trace.csv"),
    )
    save_checkpoint(os.path.join(config.out_dir, "final.ckpt"), model)
    write_json(
        os.path.join(config.out_dir, "report.json"),
        _report(config, bench, det, pool.truth[rows] == pseudo.classes, state),
    )
    return state


def _report(config, bench, det, hits, state):
    """The run's report; `hits` marks the pseudo-labels that equal the
    evaluation-only truth.  With `dataset_dir` set, the benchmark section
    is the dataset's spec.json, not the flags' unused one."""
    detection = det.summary()
    split_sizes = detection.pop("split_sizes")
    accs = state.checkpoint_accuracies
    config_dict = config.to_dict()
    if config.dataset_dir:
        config_dict["benchmark"] = asdict(bench.spec)
    return {
        "config": config_dict,
        "config_text": config.raw_text
        if config.raw_text is not None
        else json.dumps(config_dict, sort_keys=True),
        "split_sizes": split_sizes,
        "detection": {**detection, "eta": config.detection.eta},
        "pseudo": {"count": len(hits), "accuracy": float(hits.mean()) if hits.size else None},
        "soft_label_count": len(det.out_set),
        "checkpoint_accuracies": accs,
        **_accuracy_summary(accs, config.median_last),
    }


def _accuracy_summary(accs, median_last):
    """Median of the last `median_last` checkpoint accuracies (of all of
    them when there are fewer) and the best one."""
    if not accs:
        return {"median_accuracy": None, "best_accuracy": None}
    return {
        "median_accuracy": median_last_n(accs, min(median_last, len(accs))),
        "best_accuracy": max(accs),
    }


Stage = namedtuple("Stage", "run load product")


def stages():
    """Stage name -> Stage, in pipeline order: `run(config, *outputs of the
    stages before)` persists what it returns in the run directory, `load`
    reads that back from the same arguments (None for `train`, which
    nothing follows) and `product` is its main file.  Built per call, so
    that a function replaced on this module (a tracer, a test double) runs."""
    return {
        "generate": Stage(prepare_benchmark, load_benchmark, "dataset"),
        "pretrain": Stage(stage_pretrain, load_pretrained, "pretrained.ckpt"),
        "detect": Stage(stage_detect, lambda config, bench, model: load_detect_outcome(
            config.out_dir, bench, config.detection), "scored.csv"),
        "label": Stage(stage_label, lambda config, bench, model, det: load_pseudo_labels(
            config, det), "pseudolabels.csv"),
        "train": Stage(stage_train, None, "train_trace.csv"),
    }


def run_stages(config, names):
    """Run `names`, consecutive stages in pipeline order, on the outputs of
    the stages before them, loaded from the run directory; returns each
    one's wall time.  report.json is removed before any stage runs, so no
    command leaves an earlier run's report beside its own files.  A stage's
    failure is raised as `stage 'x' failed: ...`; a load error as it is."""
    table = stages()
    outputs = []
    for name in list(table)[: list(table).index(names[0])]:
        outputs.append(table[name].load(config, *outputs))
    os.makedirs(config.out_dir, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(config.out_dir, "report.json"))
    timings = {}
    for name in names:
        start = time.perf_counter()
        try:
            outputs.append(table[name].run(config, *outputs))
        except Exception as exc:
            raise RuntimeError(f"stage {name!r} failed: {exc}") from exc
        timings[name] = time.perf_counter() - start
    return timings


def run_experiment(config):
    """Every stage in one process; returns the report that stage_train
    wrote, with the stage wall times added under `timings`."""
    timings = run_stages(config, list(stages()))
    path = os.path.join(config.out_dir, "report.json")
    report = read_json(path)
    report["timings"] = timings
    write_json(path, report)
    return report


def strip_timings(report):
    """Copy of a report without wall-clock noise, for byte comparisons."""
    out = dict(report)
    out.pop("timings", None)
    return out


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


def apply_axis(config, axis, value):
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {tuple(SWEEP_AXES)}")
    section, name = SWEEP_AXES[axis]
    value = float(value)
    if not math.isfinite(value):  # no report could hold it
        raise ValueError(f"sweep axis {axis!r} value {value} is not a finite real")
    if section == "benchmark" and config.dataset_dir:
        raise ValueError(f"sweep axis {axis!r} sets the benchmark, which dataset_dir "
                         f"{config.dataset_dir} overrides: every run would read the same data")
    return replace(config, **{section: replace(getattr(config, section), **{name: value})})


def run_sweep(config, axis, values):
    """One experiment per axis value, same master seed throughout, each in
    its own `{axis}_{value:g}` directory (values that would share one fail).

    A rejected axis or value fails before the sweep directory is made.
    Per-run failures are recorded in the table (the exception's message, or
    its type where the message is empty) and the sweep continues; as
    `run_stages` removes a value's earlier report first, a failed rerun
    leaves none behind.
    """
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    runs = {}  # run directory -> (value, its config)
    for value in values:
        run_dir = f"{axis}_{value:g}"
        if run_dir in runs:
            raise ValueError(f"sweep values {runs[run_dir][0]} and {value} share the run directory {run_dir}")
        runs[run_dir] = value, replace(apply_axis(config, axis, value),
                                       out_dir=os.path.join(config.out_dir, run_dir), raw_text=None)
    os.makedirs(config.out_dir, exist_ok=True)
    rows = []
    for value, sub in runs.values():
        row = {"axis": axis, "value": value, "error": None, "report": None}
        try:
            row["report"] = run_experiment(sub)
        except Exception as exc:
            row["error"] = str(exc) or type(exc).__name__
        rows.append(row)
    write_sweep_table(os.path.join(config.out_dir, "sweep.csv"), rows)
    return rows


def write_sweep_table(path, rows):
    def fields(row):
        rep = row["report"]
        if rep is None:
            return [""] * 8 + [row["error"]]
        det, sizes = rep["detection"], rep["split_sizes"]
        reals = [rep["median_accuracy"], rep["best_accuracy"]]
        reals += [det["auroc"], det["tpr"], det["tnr"], det["threshold"]]
        return [*map(optional_real, reals), sizes["in"], sizes["out"], ""]

    header = ["axis", "value", "median_accuracy", "best_accuracy", "auroc", "tpr", "tnr",
              "threshold", "in_count", "out_count", "error"]
    rows = ((row["axis"], row["value"], *fields(row)) for row in rows)
    write_table(path, header, [TEXT, "%g"] + [TEXT] * 9, rows)


def write_curve_csv(path, sweep_dir):
    """Plot-ready accuracy-vs-axis curve from a sweep directory's
    sweep.csv: one point per value whose run reported (a failed run
    leaves `in_count` empty, whatever its error reads)."""
    table = read_table(os.path.join(sweep_dir, "sweep.csv"),
                       {"value": float, "median_accuracy": str, "best_accuracy": str,
                        "in_count": str}, default=str)
    points = zip(table["value"], table["median_accuracy"], table["best_accuracy"])
    rows = (point for point, n_in in zip(points, table["in_count"]) if n_in)
    write_table(path, ["value", "median_accuracy", "best_accuracy"], ["%g", TEXT, TEXT], rows)


# ----------------------------------------------------------------------
# metric recomputation from persisted manifests
# ----------------------------------------------------------------------


def recompute_metrics(out_dir, dataset_dir=None):
    """Rebuild the detection and accuracy metrics of a finished run from
    its report.json and scored manifests; byte-equal to the report's
    values when nothing was touched.  The benchmark is read as the staged
    commands read it (`load_benchmark`), from `dataset_dir` when given."""
    path = os.path.join(out_dir, "report.json")
    report = read_json(path)
    with fields_of(path):
        config = from_dict(ExperimentConfig, report["config"], prefix="config.")
        accs = report["checkpoint_accuracies"]
    bench = load_benchmark(replace(config, out_dir=out_dir,
                                   dataset_dir=dataset_dir or config.dataset_dir))
    det = load_detect_outcome(out_dir, bench, config.detection)
    return {**det.summary(), **_accuracy_summary(accs, config.median_last)}


def load_detect_outcome(out_dir, bench, detection):
    """Rebuild stage_detect's DetectOutcome under `detection` from
    scored.csv and scored_labeled.csv.  Each must hold its row set (the
    unlabeled pool, the labeled set) in order, split as the rebuilt
    threshold splits it: a detection config that changed since the
    manifests were written fails here."""
    scored = []
    for name, want, what in (("scored.csv", bench.unlabeled.ids, "unlabeled pool"),
                             ("scored_labeled.csv", bench.labeled.ids, "labeled set")):
        path = os.path.join(out_dir, name)
        ids, sims, scores, out = read_scored_manifest(path, bench.spec.in_classes)
        n = min(len(ids), len(want))
        bad = np.flatnonzero(ids[:n] != want[:n])
        if bad.size or len(ids) != len(want):
            where = (f"sample_id {ids[bad[0]]} where {want[bad[0]]} is due" if bad.size
                     else f"{len(ids)} rows where {len(want)} are due")
            raise ValueError(f"{path}: sample_id column is not the {what}'s ids in order: {where}")
        scored.append((path, ids, sims, scores, out))
    (_, _, sims, scores, _), (_, _, _, labeled_scores, _) = scored
    det = detect_outcome(labeled_scores, bench.unlabeled, sims, scores, detection)
    for path, ids, _, scores, out in scored:
        wrong = np.flatnonzero(out_mask(scores, det.threshold) != out)
        if wrong.size:
            row = wrong[0]
            raise ValueError(
                f"{path}: sample_id {ids[row]}: split '{'out' if out[row] else 'in'}' disagrees "
                f"with score {float(scores[row])!r} at threshold {det.threshold!r} ({detection})"
            )
    return det


def write_detect_summary(out_dir, det, config):
    write_json(
        os.path.join(out_dir, "detect.json"),
        {
            "threshold": det.threshold,
            "mu": det.mu,
            "sigma": det.sigma,
            "eta": config.detection.eta,
            "explicit_threshold": config.detection.explicit_threshold,
            "in_count": len(det.in_set),
            "out_count": len(det.out_set),
            "metrics": det.metrics,
        },
    )


def load_pseudo_labels(config, det):
    """The pseudo-labels stage_label wrote under `config` for `det`.  Both
    label manifests must be what it writes: the soft labels of the
    detected-out ids at tau_sl, and select_topk's count of detected-in ids,
    each with a class in 1..C.  Linear-eval drift is not caught."""
    classes = det.sims.shape[1]
    path = os.path.join(config.out_dir, "softlabels.csv")
    soft_ids, soft_q = read_soft_label_manifest(path, classes)
    if not np.array_equal(soft_ids, det.out_set):
        raise ValueError(f"{path}: sample_id column is not the detected-out ids in pool order")
    wrong = (soft_q != soft_label(det.sims[det.out], config.labeling.tau_sl)).any(axis=1)
    if wrong.any():
        raise ValueError(f"{path}: sample_id {soft_ids[wrong.argmax()]}: soft label is not the "
                         f"detection's at tau_sl {config.labeling.tau_sl!r}")
    path = os.path.join(config.out_dir, "pseudolabels.csv")
    pseudo = read_pseudo_label_manifest(path)
    count = topk_count(config.labeling.k_fraction, len(det.in_set)) if config.ssl.topk_pl else 0
    if len(pseudo.ids) != count:
        raise ValueError(f"{path}: {len(pseudo.ids)} pseudo-labels where {count} are due under "
                         f"{config.labeling} with topk_pl={config.ssl.topk_pl}")
    outside = ~np.isin(pseudo.ids, det.in_set)
    bad = outside | (pseudo.classes < 1) | (pseudo.classes > classes)
    if bad.any():
        row = bad.argmax()
        sid, cls = pseudo.ids[row], pseudo.classes[row]
        if outside[row]:
            raise ValueError(f"{path}: sample_id {sid} is not a detected-in pool id")
        raise ValueError(f"{path}: sample_id {sid}: assigned_class {cls} is not in 1..{classes}")
    return pseudo
