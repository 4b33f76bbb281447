"""One workload process: set up, run timed iterations, write the results.

Started by `run.py`, once per set-up it measures.  The BLAS pool is
pinned to one thread before numpy is imported: with two threads the
criterion-6 pretraining took longer at about twice the CPU time.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import sys
import time

SETUP_PROBES = 9  # calibration probes that scale `setup_s`


def _process_threads():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "process_threads": _process_threads(),
        "nproc": os.cpu_count(),
    }


def import_package(root):
    """Import openset_ssl from the checkout's `src/`, nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import openset_ssl

    location = os.path.realpath(os.path.dirname(openset_ssl.__file__))
    if not location.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"openset_ssl imported from {location}, not from {src}")


def run_iteration(workload, workloads, tracer):
    """One timed pass, then its checks; tracing covers the timed part only."""
    it = workloads.Iteration()
    outcome = None
    if tracer is not None:
        tracer.reset()
        tracer.install()
    probes = (contextlib.nullcontext() if tracer is not None
              else workloads.calibrate.timed_probes(it.speed))
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        with probes:
            outcome = workload.run(it)
    except workloads.StageFailed:
        pass
    except Exception as exc:  # a failure outside any stage still counts
        it.attempted += 1
        it.failed += 1
        it.errors.append(f"run: {exc!r}")
    finally:
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()

    # the calibration probes run between and inside stages: take them out,
    # then scale what is left as the stages were scaled on average
    speed = it.speed
    if not speed.probes:
        speed.probe()
    record = {"traced": tracer is not None, "wall_s": wall,
              "total_s": (wall - speed.spent_s) / speed.factor(),
              "cpu_s": (cpu - speed.spent_cpu_s) / speed.factor(),
              "host_speed": speed.factor(),
              "stage": it.stage, "samples": it.samples,
              "raw_stage": it.raw_stage, "probes": speed.probes,
              "pretrain_samples": it.pretrain_samples, "train_samples": it.train_samples,
              "quality": None}
    if tracer is not None:
        for name in workload.traced_layers:
            it.check(f"traced {name} recorded calls", tracer.calls(name) > 0)
        record["layers"] = tracer.window_metrics()
        record["phases"] = tracer.window_phases()
    if outcome is not None:
        try:
            record["quality"] = workload.verify(it, outcome)
        except Exception as exc:  # unreadable or missing artifacts
            it.attempted += 1
            it.failed += 1
            it.errors.append(f"verify: {exc!r}")
    record.update(attempted=it.attempted, failed=it.failed, errors=it.errors,
                  digest=it.digest())
    return record


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, required=True, help="timed seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.perf_counter() of the parent when it started this process")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", required=True, help="span records of traced runs")
    p.add_argument("--traced-first", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import_package(args.root)
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
    workload.setup()
    setup_s = time.perf_counter() - args.spawned_at
    # set-up without its probes, scaled by the median of those and of
    # probes right after it
    speed = workload.setup_speed
    setup_s -= speed.spent_s
    for _ in range(SETUP_PROBES):
        speed.probe()
    setup_s /= speed.median_factor()

    tracer = tracing.Tracer() if args.trace else None
    # traced runs alternate an untraced and a traced pass for the overhead ratio
    if tracer is None:
        unit = [None]
    elif args.traced_first:
        unit = [tracer, None]
    else:
        unit = [None, tracer]
    iterations = []
    spent = 0.0
    rss_kb = None
    while True:
        for t in unit:
            iterations.append(run_iteration(workload, workloads, t))
            spent += iterations[-1]["wall_s"]
            if rss_kb is None:
                # peak after set-up and one pass: later passes would make
                # it depend on how many fit in the budget
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        per_unit = spent / (len(iterations) / len(unit))
        if spent + per_unit / 2 > args.budget:  # the nearest whole number of units
            break

    if tracer is not None:
        tracer.write_spans(args.spans)
    result = {
        "environment": environment(),
        "setup_s": setup_s,
        "setup_stage": workload.setup_stage,
        "peak_rss_mb": rss_kb / 1024.0,
        "iterations": iterations,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    shutil.rmtree(args.work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
