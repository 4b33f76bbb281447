"""Pipeline benchmark for openset_ssl.

    python3 perfbench/run.py --workload pretrain|finetune|stages \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Starts `PROCESSES` workload processes
one after another (each sets up from scratch, so set-up time is measured
several times) and gives each an equal share of `--seconds` for timed
iterations.  Prints a table of every metric with its unit, the
environment and the output digest, and as the last line one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end ones, measured untraced; with `--trace 1`
they are the per-layer ones from a traced run.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing

PROCESSES = 2
DEADLINE_S = 170  # the whole run, set-ups included

END_TO_END = (
    ("setup_s", "s"),
    ("total_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("generate_s", "s"),
    ("pretrain_samples_per_s", "samples/s"),
    ("detect_s", "s"),
    ("label_s", "s"),
    ("train_samples_per_s", "samples/s"),
    ("eval_s", "s"),
    ("auroc", "1"),
    ("median_accuracy", "1"),
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".out")


def end_to_end_values(process):
    """Per-metric samples of one process: one per untraced iteration (one
    per call for the repeated generation and eval), or one per process
    for what is measured in set-up."""
    values = {name: [] for name, _ in END_TO_END}
    values["setup_s"].append(process["setup_s"])
    values["peak_rss_mb"].append(process["peak_rss_mb"])
    setup = process["setup_stage"]
    if "pretrain_s" in setup:
        values["pretrain_samples_per_s"].append(setup["pretrain_samples"] / setup["pretrain_s"])
    for it in process["iterations"]:
        if it["traced"] or it["failed"]:
            continue
        stage = it["stage"]
        values["total_s"].append(it["total_s"])
        values["cpu_s"].append(it["cpu_s"])
        for key in ("generate_s", "eval_s"):
            values[key].extend(it["samples"][key])
        for key in ("detect_s", "label_s"):
            values[key].append(stage[key])
        if "pretrain_s" not in setup:
            values["pretrain_samples_per_s"].append(it["pretrain_samples"] / stage["pretrain_s"])
        values["train_samples_per_s"].append(it["train_samples"] / stage["train_s"])
        values["auroc"].append(it["quality"]["auroc"])
        values["median_accuracy"].append(it["quality"]["median_accuracy"])
    return values


def median_or_none(values):
    return statistics.median(values) if values else None


def summarize(processes, traced):
    iterations = [it for p in processes for it in p["iterations"]]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    digests = sorted({it["digest"] for it in iterations})
    attempted += 1  # every pass at this seed produced the same outputs
    failed += len(digests) != 1

    if traced:
        layers = [it["layers"] for it in iterations if it["traced"]]
        metrics = {
            name: median_or_none([l[name] for l in layers if name in l])
            for name, _ in tracing.PER_LAYER
        }
        pooled = {}
        for it in iterations:
            for phase, samples in it.get("phases", {}).items():
                pooled.setdefault(phase, []).extend(samples)
        metrics.update(tracing.phase_metrics(pooled))
        untraced = [it["total_s"] for it in iterations if not it["traced"]]
        traced_t = [it["total_s"] for it in iterations if it["traced"]]
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_t) / statistics.median(untraced) if untraced else None
        )
        units = dict(tracing.PER_LAYER)
    else:
        samples = {name: [] for name, _ in END_TO_END}
        for p in processes:
            for name, vals in end_to_end_values(p).items():
                samples[name].extend(vals)
        metrics = {name: median_or_none(samples[name]) for name, _ in END_TO_END}
        units = dict(END_TO_END)

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }, digests, [e for it in iterations for e in it["errors"]]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pretrain", "finetune", "stages"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "openset_ssl", "__init__.py")):
        print(f"error: no openset_ssl sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    started = time.perf_counter()
    processes = []
    for index in range(PROCESSES):
        tag = f"{args.workload}-s{args.seed}-t{args.trace}-p{index}"
        result_path = os.path.join(OUT, f"{tag}.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        remaining = DEADLINE_S - (time.perf_counter() - started)
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--root", ROOT, "--workload", args.workload, "--seed", str(args.seed),
            "--budget", str(args.seconds / PROCESSES), "--trace", str(args.trace),
            "--work-dir", os.path.join(OUT, f"{tag}.work"), "--result", result_path,
            "--spans", os.path.join(OUT, f"{tag}.spans.jsonl"),
            "--traced-first", str(index % 2),
        ]
        cmd += ["--spawned-at", repr(time.perf_counter())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            print(f"error: workload process {index} exceeded the {DEADLINE_S}s deadline",
                  file=sys.stderr)
            return 3
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            print(f"error: workload process {index} exited with {proc.returncode}",
                  file=sys.stderr)
            return 3
        with open(result_path) as fh:
            processes.append(json.load(fh))

    result, digests, errors = summarize(processes, args.trace)
    iterations = [it for p in processes for it in p["iterations"]]
    for name, m in result["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{args.workload:9s} {name:58s} {value:>14s} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload:9s} {'failed_ratio':58s} {failed / attempted:>14.6g} 1")
    speed = statistics.median(it["host_speed"] for it in iterations)
    walls = [it["wall_s"] for it in iterations if not it["traced"]]
    print(f"host speed factor (measured / reference-speed time) {speed:.4g}")
    if walls:
        print(f"median measured iteration wall, probes included {statistics.median(walls):.4g} s")
    print("environment", json.dumps(processes[0]["environment"], sort_keys=True))
    print("digest", " ".join(digests))
    for error in errors:
        print("error", error)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
