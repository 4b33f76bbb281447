"""The three benchmark workloads, their pinned configurations and the
output checks.

The configurations are copied from `tests/test_acceptance.py` rather than
imported, so that an edit to the tests cannot move the benchmark.  Only
the step counts are the benchmark's own: they size one timed iteration to
a few seconds on one core.

Every workload's iteration runs the whole stage chain, so that every
end-to-end metric is measured on every workload; what differs is where
the work sits:

    pretrain   criterion-6 pretraining (batch 128, 256 views) dominates;
               label and train are a short tail
    finetune   detect -> label -> train for the five ablation toggles;
               contrastive pretraining happens only in set-up
    stages     the criterion-7 config stage by stage through `cli.main`,
               so persisted artifacts are written and read back between
               stages; the only workload on the hard-pseudo backend
"""

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import statistics
from dataclasses import replace

import calibrate

cli = importlib.import_module("openset_ssl.cli")
harness = importlib.import_module("openset_ssl.harness")
from openset_ssl.augment import AugmentConfig
from openset_ssl.contrastive import ContrastiveConfig
from openset_ssl.data import BenchmarkSpec
from openset_ssl.detect import DetectionConfig
from openset_ssl.harness import ExperimentConfig, ModelShape
from openset_ssl.labeling import LabelingConfig
from openset_ssl.train import SSLConfig

# ----------------------------------------------------------------------
# pinned configurations (copied from tests/test_acceptance.py)
# ----------------------------------------------------------------------

ARCH = ModelShape(hidden_dims=(64, 64), embed_dim=64, proj_dim=32)

PRETRAIN_AUG = AugmentConfig(
    noise_sigma=0.4, jitter_range=(0.8, 1.2), mask_fraction=0.0, stream="pretrain.augment"
)

DETECT_BENCH = BenchmarkSpec(
    dim=16, in_classes=8, out_classes=8, separation=6.0,
    correlation_mode="independent", total_unlabeled=5000, out_proportion=0.8,
    labels_per_class=25, test_per_class=125, seed=0,
)
DETECT_PRETRAIN = ContrastiveConfig(
    tau_con=0.5, batch_size=128, steps=2000, lr=0.15, augment=PRETRAIN_AUG
)

SWEEP_BENCH = BenchmarkSpec(
    dim=16, in_classes=8, out_classes=8, separation=4.0,
    correlation_mode="related", total_unlabeled=1500, out_proportion=0.8,
    labels_per_class=25, test_per_class=125, seed=0,
)
SWEEP_PRETRAIN = ContrastiveConfig(
    tau_con=0.5, batch_size=64, steps=700, lr=0.1, augment=PRETRAIN_AUG
)
SWEEP_SSL = SSLConfig(
    backend="consistency", beta=4.0, lam=0.5, batch_size=64, steps=400,
    lr=0.05, cosine_decay=True, detect=True, aux_loss=True, aux_bn=True,
    topk_pl=True,
    augment=AugmentConfig(noise_sigma=0.8, jitter_range=(0.8, 1.2),
                          mask_fraction=0.0, stream="train.augment"),
)

CHAIN_SSL = SSLConfig(
    backend="consistency", beta=3.0, lam=0.5, batch_size=64, steps=300,
    lr=0.05, cosine_decay=True,
    augment=AugmentConfig(noise_sigma=0.5, jitter_range=(0.8, 1.2),
                          mask_fraction=0.0, stream="train.augment"),
)

LABELING = LabelingConfig(
    tau_sl=0.1, k_fraction=0.1, linear_eval_steps=300, linear_eval_lr=0.5
)

TOGGLE_CHAIN = (
    ("none", dict(detect=False, aux_loss=False, aux_bn=False, topk_pl=False)),
    ("detect", dict(detect=True, aux_loss=False, aux_bn=False, topk_pl=False)),
    ("detect+aux_loss", dict(detect=True, aux_loss=True, aux_bn=False, topk_pl=False)),
    ("+aux_bn", dict(detect=True, aux_loss=True, aux_bn=True, topk_pl=False)),
    ("+topk_pl", dict(detect=True, aux_loss=True, aux_bn=True, topk_pl=True)),
)

# ----------------------------------------------------------------------
# the benchmark's own step counts
# ----------------------------------------------------------------------

CHECKPOINTS = 5  # median_accuracy is the median of the last five
PRETRAIN_STEPS = 60  # pretrain: timed criterion-6 pretraining
PRETRAIN_TAIL_STEPS = 20  # pretrain: fine-tuning tail
FINETUNE_SETUP_STEPS = 60  # finetune: pretraining in set-up
FINETUNE_STEPS = 40  # finetune: per toggle variant
STAGES_PRETRAIN_STEPS = 200
STAGES_TRAIN_STEPS = 100
# generation and `cli eval` take ~0.2 s each, too short to time once per
# iteration: each iteration runs them this many times and keeps every
# call's wall (the last call's output is the one used)
REPEATS = 3

STAGE_KEYS = ("generate_s", "pretrain_s", "detect_s", "label_s", "train_s", "eval_s")
DETECTION_KEYS = ("threshold", "mu", "sigma", "tpr", "tnr", "auroc")


def experiment_config(out_dir, bench, pretrain_cfg, ssl_cfg, seed):
    steps = ssl_cfg.steps
    return ExperimentConfig(
        seed=seed,
        out_dir=str(out_dir),
        benchmark=bench,
        model=ARCH,
        contrastive=pretrain_cfg,
        detection=DetectionConfig(eta=2.0),
        labeling=LABELING,
        ssl=ssl_cfg,
        checkpoint_interval=ssl_cfg.batch_size * (steps // CHECKPOINTS),
        checkpoint_count=CHECKPOINTS,
        median_last=CHECKPOINTS,
    )


class StageFailed(Exception):
    pass


class Iteration:
    """One timed pass of a workload: stage walls at the reference speed
    (see calibrate.py), operation counts, checks."""

    def __init__(self):
        self.speed = calibrate.HostSpeed()
        self.stage = dict.fromkeys(STAGE_KEYS, 0.0)
        self.samples = {}  # stage key -> wall of each repeated call
        self.raw_stage = dict.fromkeys(STAGE_KEYS, 0.0)  # measured, unscaled
        self.pretrain_samples = 0
        self.train_samples = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.report = {}  # outputs without timings, for the digest

    def run(self, key, fn, *args):
        """Call one stage, adding its wall time to `key`."""
        self.attempted += 1
        try:
            result, wall, raw = self.speed.measure(fn, *args)
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{key}: {exc!r}")
            raise StageFailed(key) from exc
        self.stage[key] += wall
        self.raw_stage[key] += raw
        return result

    def repeat(self, key, times, call):
        """Run `call()`, a stage of `key`, `times` times; keeps each call's
        wall in `samples[key]` and returns the last result."""
        for _ in range(times):
            before = self.stage[key]
            result = call()
            self.samples.setdefault(key, []).append(self.stage[key] - before)
        return result

    def generate(self, cfg):
        return self.repeat("generate_s", REPEATS,
                           lambda: self.run("generate_s", harness.prepare_benchmark, cfg))

    def eval(self, *argv):
        return self.repeat("eval_s", REPEATS, lambda: self.cli("eval_s", "eval", *argv))

    def cli(self, key, *argv):
        """Run one `openset-ssl` subcommand in-process; returns its stdout."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.run(key, cli.main, list(argv))
        if status != 0:
            self.failed += 1
            self.errors.append(f"{key}: exit status {status}: {err.getvalue().strip()}")
            raise StageFailed(key)
        return out.getvalue()

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {name}")

    def digest(self):
        text = json.dumps(self.report, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# output checks on persisted artifacts (they hold for any correct version)
# ----------------------------------------------------------------------


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_run_dir(it, out_dir, dataset_dir, tag=""):
    """Losses finite, every unlabeled row scored, soft labels normalized."""
    final_loss = {}
    for trace, column in (("pretrain_trace.csv", "loss"), ("train_trace.csv", "total_loss")):
        path = os.path.join(out_dir, trace)
        if os.path.exists(path):
            losses = [float(r[column]) for r in _rows(path)]
            it.check(f"{tag}{trace} losses finite", all(map(math.isfinite, losses)))
            final_loss[trace] = losses[-1] if losses else None
    scored = _rows(os.path.join(out_dir, "scored.csv"))
    unlabeled = _rows(os.path.join(dataset_dir, "unlabeled.csv"))
    it.check(f"{tag}scored rows == unlabeled rows", len(scored) == len(unlabeled))
    soft = _rows(os.path.join(out_dir, "softlabels.csv"))
    it.check(
        f"{tag}soft-label rows sum to 1",
        all(abs(sum(float(v) for k, v in r.items() if k != "sample_id") - 1.0) <= 1e-9
            for r in soft),
    )
    accs = [float(r["test_accuracy"]) for r in _rows(os.path.join(out_dir, "train_trace.csv"))
            if r["test_accuracy"]]
    it.check(f"{tag}{CHECKPOINTS} checkpoints evaluated", len(accs) == CHECKPOINTS)
    return {"scored": len(scored), "soft": len(soft), "accuracies": accs,
            "final_loss": final_loss}


def check_eval(it, eval_out, detection, split_sizes):
    """`cli eval` recomputes the in-run detection metrics exactly."""
    recomputed = json.loads(eval_out)
    in_run = {k: detection.get(k) for k in DETECTION_KEYS}
    it.check(
        "eval equals in-run detection",
        all(recomputed.get(k) == v for k, v in in_run.items())
        and recomputed.get("split_sizes") == split_sizes,
    )
    return recomputed


def _detection_of(det):
    d = {"threshold": det.threshold, "mu": det.mu, "sigma": det.sigma}
    d.update(det.metrics or {})
    return d


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Workload:
    """Set-up once per process, then any number of identical iterations.

    `run` is the timed part and returns what `verify` checks afterwards;
    `verify` returns the quality metrics.  `traced_layers` names the
    wrappers a traced iteration must see called at least once.
    """

    traced_layers = ()

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.setup_stage = {}  # stage metrics measured in set-up
        self.setup_speed = calibrate.HostSpeed()  # probes taken in set-up

    def setup(self):
        raise NotImplementedError

    def run(self, it):
        raise NotImplementedError

    def verify(self, it, outcome):
        raise NotImplementedError


class Pretrain(Workload):
    """Criterion-6 pretraining and detection over all 5,200 rows."""

    traced_layers = (
        "rng.stream", "augment.augment_batch", "autodiff.DiffGraph.apply",
        "autodiff.DiffGraph.backward", "model.GraphBuilder.forward", "model.forward",
        "model.commit_batch_stats", "contrastive.ntxent_matrix_loss",
        "optim.NesterovSGD.step", "model.cosine_similarity", "detect.score_samples",
        "harness.stage_pretrain", "harness.stage_detect",
    )

    def setup(self):
        cfg = experiment_config(
            self.work_dir, DETECT_BENCH, replace(DETECT_PRETRAIN, steps=PRETRAIN_STEPS),
            replace(CHAIN_SSL, steps=PRETRAIN_TAIL_STEPS), self.seed,
        )
        os.makedirs(cfg.out_dir, exist_ok=True)
        self.cfg = cfg

    def run(self, it):
        bench = it.generate(self.cfg)
        cfg = replace(self.cfg, dataset_dir=os.path.join(self.cfg.out_dir, "dataset"))
        model = it.run("pretrain_s", harness.stage_pretrain, cfg, bench)
        it.pretrain_samples += cfg.contrastive.steps * cfg.contrastive.batch_size
        det = it.run("detect_s", harness.stage_detect, cfg, bench, model)
        it.run("detect_s", harness.write_detect_summary, cfg.out_dir, det, cfg)
        lab = it.run("label_s", harness.stage_label, cfg, bench, model, det)
        state = it.run("train_s", harness.stage_train, cfg, bench, model, det, lab)
        it.train_samples += cfg.ssl.steps * cfg.ssl.batch_size
        eval_out = it.eval("--out-dir", cfg.out_dir, "--dataset-dir", cfg.dataset_dir)
        return [(cfg, det, state)], eval_out

    def verify(self, it, outcome):
        variants, eval_out = outcome
        cfg, det, _ = variants[-1]
        detection = _detection_of(det)
        recomputed = check_eval(
            it, eval_out, detection, {"in": len(det.in_set), "out": len(det.out_set)}
        )
        medians = []
        for i, (vcfg, vdet, state) in enumerate(variants):
            it.check(f"variant {i} detection identical", _detection_of(vdet) == detection)
            files = check_run_dir(it, vcfg.out_dir, cfg.dataset_dir, tag=f"variant {i}: ")
            it.check(f"variant {i} trace == in-run accuracies",
                     files["accuracies"] == state.checkpoint_accuracies)
            medians.append(statistics.median(state.checkpoint_accuracies[-CHECKPOINTS:]))
            it.report[f"variant_{i}"] = files
        it.check("eval median == in-run median", recomputed.get("median_accuracy") == medians[-1])
        it.report["detection"] = detection
        it.report["medians"] = medians
        return {"auroc": detection["auroc"], "median_accuracy": statistics.fmean(medians)}


class Finetune(Pretrain):
    """Criterion-8 pattern: the five ablation toggles from one pretrained model."""

    traced_layers = (
        "rng.stream", "augment.augment_batch", "autodiff.DiffGraph.apply",
        "autodiff.DiffGraph.backward", "model.GraphBuilder.forward", "model.forward",
        "model.commit_batch_stats", "model.cosine_similarity", "detect.score_samples",
        "train.prepare_consistency", "train.evaluate_accuracy", "optim.NesterovSGD.step",
        "harness.stage_detect", "harness.stage_label", "harness.stage_train",
    )

    def setup(self):
        bench_spec = replace(DETECT_BENCH, labels_per_class=4)
        cfg = experiment_config(
            self.work_dir, bench_spec, replace(DETECT_PRETRAIN, steps=FINETUNE_SETUP_STEPS),
            replace(CHAIN_SSL, steps=FINETUNE_STEPS), self.seed,
        )
        os.makedirs(cfg.out_dir, exist_ok=True)
        bench = harness.prepare_benchmark(cfg)
        with calibrate.timed_probes(self.setup_speed):
            self.model, self.setup_stage["pretrain_s"], _ = self.setup_speed.measure(
                harness.stage_pretrain, cfg, bench
            )
        self.setup_stage["pretrain_samples"] = (
            cfg.contrastive.steps * cfg.contrastive.batch_size
        )
        self.cfg = cfg

    def run(self, it):
        bench = it.generate(self.cfg)
        dataset_dir = os.path.join(self.cfg.out_dir, "dataset")
        variants = []
        for name, toggles in TOGGLE_CHAIN:
            out_dir = os.path.join(self.cfg.out_dir, name)
            os.makedirs(out_dir, exist_ok=True)
            cfg = replace(self.cfg, out_dir=out_dir, dataset_dir=dataset_dir,
                          ssl=replace(self.cfg.ssl, **toggles))
            det = it.run("detect_s", harness.stage_detect, cfg, bench, self.model)
            lab = it.run("label_s", harness.stage_label, cfg, bench, self.model, det)
            state = it.run("train_s", harness.stage_train, cfg, bench, self.model.copy(),
                           det, lab)
            it.train_samples += cfg.ssl.steps * cfg.ssl.batch_size
            variants.append((cfg, det, state))
        cfg, det, _ = variants[-1]
        it.run("detect_s", harness.write_detect_summary, cfg.out_dir, det, cfg)
        eval_out = it.eval("--out-dir", cfg.out_dir, "--dataset-dir", cfg.dataset_dir)
        return variants, eval_out


class Stages(Workload):
    """Criterion-7 config, stage by stage through the CLI and its files."""

    traced_layers = (
        "cli.main", "harness.prepare_benchmark", "harness.stage_pretrain",
        "harness.stage_detect", "harness.stage_label", "harness.stage_train",
        "harness.recompute_metrics", "data.write_benchmark", "data.read_benchmark",
        "model.save_checkpoint", "model.load_checkpoint",
        "detect.write_scored_manifest", "detect.read_scored_manifest",
        "labeling.write_soft_label_manifest", "labeling.read_soft_label_manifest",
        "labeling.write_pseudo_label_manifest", "labeling.read_pseudo_label_manifest",
        "contrastive.ntxent_matrix_loss", "train.evaluate_accuracy",
    )

    def setup(self):
        ssl = replace(SWEEP_SSL, backend="hard-pseudo", steps=STAGES_TRAIN_STEPS)
        cfg = experiment_config(
            self.work_dir, SWEEP_BENCH, replace(SWEEP_PRETRAIN, steps=STAGES_PRETRAIN_STEPS),
            ssl, self.seed,
        )
        os.makedirs(cfg.out_dir, exist_ok=True)
        self.out_dir = cfg.out_dir
        self.config_path = os.path.join(cfg.out_dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)

    def run(self, it):
        flags = ("--config", self.config_path)
        it.repeat("generate_s", REPEATS, lambda: it.cli("generate_s", "generate", *flags))
        it.cli("pretrain_s", "pretrain", *flags)
        it.pretrain_samples += STAGES_PRETRAIN_STEPS * SWEEP_PRETRAIN.batch_size
        it.cli("detect_s", "detect", *flags)
        it.cli("label_s", "label", *flags)
        it.cli("train_s", "train", *flags)
        it.train_samples += STAGES_TRAIN_STEPS * SWEEP_SSL.batch_size
        return it.eval(*flags)

    def verify(self, it, eval_out):
        with open(os.path.join(self.out_dir, "detect.json")) as fh:
            summary = json.load(fh)
        detection = {k: summary[k] for k in ("threshold", "mu", "sigma")}
        detection.update(summary["metrics"] or {})
        recomputed = check_eval(
            it, eval_out, detection, {"in": summary["in_count"], "out": summary["out_count"]}
        )
        files = check_run_dir(it, self.out_dir, os.path.join(self.out_dir, "dataset"))
        median = statistics.median(files["accuracies"][-CHECKPOINTS:])
        it.check("eval median == trace median", recomputed.get("median_accuracy") == median)
        it.report["eval"] = recomputed
        it.report["files"] = files
        return {"auroc": recomputed["auroc"], "median_accuracy": median}


WORKLOADS = {"pretrain": Pretrain, "finetune": Finetune, "stages": Stages}
