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

The stage commands and the files they print come from `harness.stages()`;
each loads what came before from --out-dir, and they and `run` go through
`harness.run_stages`, which removes report.json before any stage runs.
Flags mirror the experiment config; a --config JSON file is laid over
them: a key it gives wins, and one it leaves out, or a section given as
null, keeps the flags' value.  Its keys are the ExperimentConfig field
names, with `lambda` for `lam`.  `label`, `train` and `eval` rebuild the
detection from the scored manifests (never from detect.json) and `train`
holds both label manifests to its config, so drift since an earlier stage
fails; so does a dataset generated under another benchmark.  `report`
takes only --sweep-dir and --output; `eval` only --out-dir, --dataset-dir
and --config.  All randomness derives from --seed; any stage error
exits nonzero.
"""

import argparse
import json
import math
import os
import sys

from . import harness
from .artifacts import fields_of, parse_json


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
        if isinstance(value, float) and not math.isfinite(value):  # no report could hold it
            raise ValueError(f"{flag} {value} is not a finite real")
        for key in keys:
            *parents, leaf = key.split(".")
            node = given
            for parent in parents:
                node = node.setdefault(parent, {})
            node[leaf] = value
    config = harness.ExperimentConfig.from_dict(given, base=harness.ExperimentConfig())
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
        doc = parse_json(args.config, text)
        with fields_of(args.config):
            config = harness.ExperimentConfig.from_dict(doc, text, config)
    return config


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="openset-ssl", description="open-set SSL experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in [*harness.stages(), "run"]:
        p = sub.add_parser(name)
        _add_flags(p, COMMON_FLAGS, RUN_FLAGS)

    p = sub.add_parser("sweep")
    _add_flags(p, COMMON_FLAGS, RUN_FLAGS)
    p.add_argument("--axis", choices=harness.SWEEP_AXES, required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")

    p = sub.add_parser("eval")  # a finished run: its directory, data and config
    _add_flags(p, {flag: v for flag, v in COMMON_FLAGS.items() if flag != "--seed"})

    p = sub.add_parser("report")
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

    if args.command == "sweep":
        values = [float(v) for v in args.values.split(",")]
        rows = harness.run_sweep(cfg, args.axis, values)
        failed = [r for r in rows if r["report"] is None]
        for row in failed:
            print(f"value {row['value']:g} failed: {row['error']}", file=sys.stderr)
        print(os.path.join(cfg.out_dir, "sweep.csv"))
        return 1 if failed else 0

    if args.command == "run":  # the one command whose report keeps its stages' timings
        harness.run_experiment(cfg)
        product = "report.json"
    else:
        harness.run_stages(cfg, [args.command])
        product = harness.stages()[args.command].product
    if args.command == "generate" and cfg.dataset_dir:
        print(cfg.dataset_dir)
    else:
        print(os.path.join(cfg.out_dir, product))
    return 0


if __name__ == "__main__":
    sys.exit(main())
