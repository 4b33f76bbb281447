"""Command-line surface.

Subcommands cover the pipeline end to end and stage by stage:

    generate   write a synthetic benchmark from the generator flags
    pretrain   contrastive pretraining -> pretrained.ckpt
    detect     prototypes, scores, threshold, split -> scored.csv, detect.json
    label      soft-labels and top-k pseudo-labels -> manifests
    train      open-set fine-tuning -> checkpoints, train_trace.csv, report.json
    run        the full pipeline -> the same files, report.json with timings
    sweep      one run per value of an axis -> sweep.csv
    eval       recompute a finished run's metrics from its report and manifests
    report     plot-ready accuracy-vs-value CSV from a sweep directory

Flags mirror the experiment config; a --config JSON file overrides flags.
Its keys are the ExperimentConfig field names, with `lambda` for `lam`.
All randomness derives from --seed.  Exit status is nonzero on any stage
error.
"""

import argparse
import json
import os
import sys

from . import harness
from .artifacts import parse_json


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--dataset-dir", default=None)
    parser.add_argument("--config", default=None, help="JSON config file; overrides flags")


def _add_benchmark(parser):
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--in-classes", type=int, default=None)
    parser.add_argument("--out-classes", type=int, default=None)
    parser.add_argument("--separation", type=float, default=None)
    parser.add_argument("--within-sigma", type=float, default=None)
    parser.add_argument("--correlation-mode", choices=("independent", "related"), default=None)
    parser.add_argument("--total-unlabeled", type=int, default=None)
    parser.add_argument("--proportion", type=float, default=None)
    parser.add_argument("--labels-per-class", type=int, default=None)
    parser.add_argument("--test-per-class", type=int, default=None)


def _add_training(parser):
    parser.add_argument("--pretrain-steps", type=int, default=None)
    parser.add_argument("--tau-con", type=float, default=None)
    parser.add_argument("--steps", type=int, default=None, help="fine-tuning steps")
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--lr", type=float, default=None)
    parser.add_argument("--pretrain-lr", type=float, default=None)
    parser.add_argument("--beta", type=float, default=None)
    parser.add_argument("--lambda", dest="lam", type=float, default=None)
    parser.add_argument("--tau-sl", type=float, default=None)
    parser.add_argument("--k-fraction", type=float, default=None)
    parser.add_argument("--eta", type=float, default=None)
    parser.add_argument("--backend", choices=("consistency", "hard-pseudo"), default=None)
    parser.add_argument("--checkpoint-interval", type=int, default=None)
    parser.add_argument("--checkpoint-count", type=int, default=None)
    for toggle in ("detect", "aux-loss", "aux-bn", "topk-pl"):
        dest = toggle.replace("-", "_")
        parser.add_argument(f"--{toggle}", dest=dest, action="store_true", default=None)
        parser.add_argument(f"--no-{toggle}", dest=dest, action="store_false", default=None)


# flag (argparse dest) -> the config fields it sets, as dotted to_dict keys
FLAG_FIELDS = {
    "seed": ("seed",),
    "out_dir": ("out_dir",),
    "dataset_dir": ("dataset_dir",),
    "dim": ("benchmark.dim",),
    "in_classes": ("benchmark.in_classes",),
    "out_classes": ("benchmark.out_classes",),
    "separation": ("benchmark.separation",),
    "within_sigma": ("benchmark.within_sigma",),
    "correlation_mode": ("benchmark.correlation_mode",),
    "total_unlabeled": ("benchmark.total_unlabeled",),
    "proportion": ("benchmark.out_proportion",),
    "labels_per_class": ("benchmark.labels_per_class",),
    "test_per_class": ("benchmark.test_per_class",),
    "pretrain_steps": ("contrastive.steps",),
    "tau_con": ("contrastive.tau_con",),
    "pretrain_lr": ("contrastive.lr",),
    "batch_size": ("contrastive.batch_size", "ssl.batch_size"),
    "steps": ("ssl.steps",),
    "lr": ("ssl.lr",),
    "beta": ("ssl.beta",),
    "lam": ("ssl.lambda",),
    "backend": ("ssl.backend",),
    "detect": ("ssl.detect",),
    "aux_loss": ("ssl.aux_loss",),
    "aux_bn": ("ssl.aux_bn",),
    "topk_pl": ("ssl.topk_pl",),
    "tau_sl": ("labeling.tau_sl",),
    "k_fraction": ("labeling.k_fraction",),
    "eta": ("detection.eta",),
    "checkpoint_interval": ("checkpoint_interval",),
    "checkpoint_count": ("checkpoint_count",),
}


def build_config(args):
    """Defaults, then flags, then the --config file on top."""
    given = {}
    for dest, keys in FLAG_FIELDS.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        for key in keys:
            *parents, leaf = key.split(".")
            node = given
            for parent in parents:
                node = node.setdefault(parent, {})
            node[leaf] = value
    text = None
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
        given = _deep_merge(given, parse_json(args.config, text))
    return harness.ExperimentConfig.from_dict(given, raw_text=text)


def _deep_merge(base, override):
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


# what each pipeline command prints: the main file it leaves in --out-dir
PRODUCTS = {
    "generate": "dataset",
    "pretrain": "pretrained.ckpt",
    "detect": "scored.csv",
    "label": "pseudolabels.csv",
    "train": "train_trace.csv",
    "run": "report.json",
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="openset-ssl", description="open-set SSL experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in PRODUCTS:
        p = sub.add_parser(name)
        _add_common(p)
        _add_benchmark(p)
        _add_training(p)

    p = sub.add_parser("sweep")
    _add_common(p)
    _add_benchmark(p)
    _add_training(p)
    p.add_argument("--axis", choices=harness.SWEEP_AXES, required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")

    p = sub.add_parser("eval")
    _add_common(p)

    p = sub.add_parser("report")
    _add_common(p)
    p.add_argument("--sweep-dir", required=True)
    p.add_argument("--output", default=None, help="curve CSV path")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:  # surface stage failures as nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args):
    if args.command == "report":
        rows = harness.collect_sweep_rows(args.sweep_dir)
        output = args.output or os.path.join(args.sweep_dir, "curve.csv")
        harness.write_curve_csv(output, rows)
        print(output)
        return 0

    cfg = build_config(args)

    if args.command == "eval":
        result = harness.recompute_metrics(cfg.out_dir, cfg.dataset_dir)
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0

    os.makedirs(cfg.out_dir, exist_ok=True)

    if args.command == "sweep":
        values = [float(v) for v in args.values.split(",")]
        rows = harness.run_sweep(cfg, args.axis, values)
        failed = [r for r in rows if r["error"]]
        for row in failed:
            print(f"value {row['value']:g} failed: {row['error']}", file=sys.stderr)
        print(os.path.join(cfg.out_dir, "sweep.csv"))
        return 1 if failed else 0

    if args.command == "run":
        harness.run_experiment(cfg)
    else:
        stages = harness.stages()
        inputs = harness.load_stage_outputs(cfg, list(stages).index(args.command))
        stages[args.command](cfg, *inputs)
    if args.command == "generate" and cfg.dataset_dir:
        print(cfg.dataset_dir)
    else:
        print(os.path.join(cfg.out_dir, PRODUCTS[args.command]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
