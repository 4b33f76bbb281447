"""Command-line surface.

Subcommands cover the pipeline end to end and stage by stage:

    generate   write a synthetic benchmark from the generator flags
    pretrain   contrastive pretraining -> pretrained.ckpt
    detect     prototypes, scores, threshold, split -> scored*.csv, detect.json
    label      soft-labels and top-k pseudo-labels -> manifests
    train      open-set fine-tuning -> checkpoints, train_trace.csv, report.json
    run        the full pipeline -> the same files, report.json with timings
    sweep      one run per value of an axis -> sweep.csv
    eval       recompute a finished run's metrics from its report and manifests
    report     plot-ready accuracy-vs-value CSV from a sweep directory's sweep.csv

Flags mirror the experiment config; a --config JSON file is laid over
them, so a key it gives wins and one it leaves out, or a section it gives
as null, keeps the flags' value.  Its keys are the ExperimentConfig field
names, with `lambda` for `lam`.  `label`, `train` and `eval` rebuild the
detection from the scored manifests under the config (never from
detect.json), so a detection config that changed since `detect` fails;
`train` recomputes the soft labels and holds both label manifests to the
labeling config, so one that changed since `label` fails too.
All randomness derives from --seed.  Exit status is nonzero on any stage
error.
"""

import argparse
import json
import os
import sys

from . import harness
from .artifacts import parse_json


TOGGLE = {"action": argparse.BooleanOptionalAction}  # --x sets True, --no-x False

# every flag once: its argparse keywords and the config fields it sets, as
# dotted to_dict keys (--config sets none: it names a file read on top);
# run flags are the benchmark and training ones
COMMON_FLAGS = {
    "--seed": ({"type": int}, ("seed",)),
    "--out-dir": ({}, ("out_dir",)),
    "--dataset-dir": ({}, ("dataset_dir",)),
    "--config": ({"help": "JSON config file; overrides flags"}, ()),
}
RUN_FLAGS = {
    "--dim": ({"type": int}, ("benchmark.dim",)),
    "--in-classes": ({"type": int}, ("benchmark.in_classes",)),
    "--out-classes": ({"type": int}, ("benchmark.out_classes",)),
    "--separation": ({"type": float}, ("benchmark.separation",)),
    "--within-sigma": ({"type": float}, ("benchmark.within_sigma",)),
    "--correlation-mode": (
        {"choices": ("independent", "related")}, ("benchmark.correlation_mode",)
    ),
    "--total-unlabeled": ({"type": int}, ("benchmark.total_unlabeled",)),
    "--proportion": ({"type": float}, ("benchmark.out_proportion",)),
    "--labels-per-class": ({"type": int}, ("benchmark.labels_per_class",)),
    "--test-per-class": ({"type": int}, ("benchmark.test_per_class",)),
    "--pretrain-steps": ({"type": int}, ("contrastive.steps",)),
    "--tau-con": ({"type": float}, ("contrastive.tau_con",)),
    "--steps": ({"type": int, "help": "fine-tuning steps"}, ("ssl.steps",)),
    "--batch-size": ({"type": int}, ("contrastive.batch_size", "ssl.batch_size")),
    "--lr": ({"type": float}, ("ssl.lr",)),
    "--pretrain-lr": ({"type": float}, ("contrastive.lr",)),
    "--beta": ({"type": float}, ("ssl.beta",)),
    "--lambda": ({"type": float}, ("ssl.lambda",)),
    "--tau-sl": ({"type": float}, ("labeling.tau_sl",)),
    "--k-fraction": ({"type": float}, ("labeling.k_fraction",)),
    "--eta": ({"type": float}, ("detection.eta",)),
    "--backend": ({"choices": ("consistency", "hard-pseudo")}, ("ssl.backend",)),
    "--checkpoint-interval": ({"type": int}, ("checkpoint_interval",)),
    "--checkpoint-count": ({"type": int}, ("checkpoint_count",)),
    "--detect": (TOGGLE, ("ssl.detect",)),
    "--aux-loss": (TOGGLE, ("ssl.aux_loss",)),
    "--aux-bn": (TOGGLE, ("ssl.aux_bn",)),
    "--topk-pl": (TOGGLE, ("ssl.topk_pl",)),
}


def _add_flags(parser, *tables):
    for table in tables:
        for flag, (kwargs, _) in table.items():
            parser.add_argument(flag, default=None, **kwargs)


def build_config(args):
    """Defaults, then flags, then the --config file on top."""
    given = {}
    for flag, (_, keys) in (COMMON_FLAGS | RUN_FLAGS).items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is None:
            continue
        for key in keys:
            *parents, leaf = key.split(".")
            node = given
            for parent in parents:
                node = node.setdefault(parent, {})
            node[leaf] = value
    config = harness.ExperimentConfig.from_dict(given)
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
        config = harness.ExperimentConfig.from_dict(parse_json(args.config, text), text, config)
    return config


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
        _add_flags(p, COMMON_FLAGS, RUN_FLAGS)

    p = sub.add_parser("sweep")
    _add_flags(p, COMMON_FLAGS, RUN_FLAGS)
    p.add_argument("--axis", choices=harness.SWEEP_AXES, required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")

    p = sub.add_parser("eval")
    _add_flags(p, COMMON_FLAGS)

    p = sub.add_parser("report")
    _add_flags(p, COMMON_FLAGS)
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
        output = args.output or os.path.join(args.sweep_dir, "curve.csv")
        harness.write_curve_csv(output, args.sweep_dir)
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
        failed = [r for r in rows if r["report"] is None]
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
