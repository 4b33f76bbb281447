"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`.

Each traced workload must see every wrapper its map entry names called
at least once, so a rename under `src/` fails here instead of reading
zero.  Step counts are cut to a handful; which layers run does not
depend on them.
"""

import importlib
import json
import os
import signal
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SHORT_STEPS = dict(
    PRETRAIN_STEPS=4, PRETRAIN_TAIL_STEPS=5, FINETUNE_SETUP_STEPS=4,
    FINETUNE_STEPS=5, STAGES_PRETRAIN_STEPS=4, STAGES_TRAIN_STEPS=5,
)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_iteration_calls_every_mapped_layer(name, tmp_path, monkeypatch):
    for key, value in SHORT_STEPS.items():
        monkeypatch.setattr(workloads, key, value)
    workload = workloads.WORKLOADS[name](seed=3, work_dir=str(tmp_path))
    workload.setup()
    tracer = tracing.Tracer()
    record = worker.run_iteration(workload, workloads, tracer)
    assert record["errors"] == []
    assert record["failed"] == 0
    assert workload.traced_layers
    for layer in workload.traced_layers:
        assert tracer.calls(layer) > 0, layer
    untraced = worker.run_iteration(workload, workloads, None)
    assert untraced["digest"] == record["digest"]


def test_uninstall_restores_every_binding():
    contrastive = importlib.import_module("openset_ssl.contrastive")
    autodiff = importlib.import_module("openset_ssl.autodiff")
    original_augment = contrastive.augment_batch
    original_apply = autodiff.DiffGraph.__dict__["apply"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert contrastive.augment_batch is not original_augment
        assert autodiff.DiffGraph.__dict__["apply"] is not original_apply
    finally:
        tracer.uninstall()
    assert contrastive.augment_batch is original_augment
    assert autodiff.DiffGraph.__dict__["apply"] is original_apply


def test_self_time_excludes_wrapped_children():
    model = importlib.import_module("openset_ssl.model")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        m = model.build_model(model.ModelConfig(input_dim=4, hidden_dims=(6,)), seed=0)
        model.forward(m, [[1.0, 2.0, 3.0, 4.0], [0.5, 0.1, 0.2, 0.3]])
    finally:
        tracer.uninstall()
    assert tracer.calls("model.GraphBuilder.forward") == 1
    assert tracer.calls("autodiff.DiffGraph.apply") > 0
    spans = {s[2]: s for s in tracer.spans}
    outer = spans["model.forward"]
    inner = spans["model.GraphBuilder.forward"]
    assert inner[1] == outer[0]  # parent id
    forward_self = tracer.stats["model.forward"][1]
    assert forward_self <= (outer[4] - outer[3]) - (inner[4] - inner[3]) + 1e-9


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def _busy(seconds):
    end = calibrate.time.perf_counter() + seconds
    while calibrate.time.perf_counter() < end:
        pass
    return "done"


def test_measure_scales_one_stage_by_the_probes_around_it():
    speed = calibrate.HostSpeed()
    result, scaled, raw = speed.measure(_busy, 0.05)
    assert result == "done"
    before, after = speed.probes
    assert raw >= 0.05
    assert scaled == pytest.approx(raw * calibrate.REFERENCE_S / ((before + after) / 2))
    assert speed.factor() == pytest.approx(raw / scaled)


def test_timed_probes_split_a_stage_and_restore_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    speed = calibrate.HostSpeed()
    start = calibrate.time.perf_counter()
    with calibrate.timed_probes(speed):
        _, scaled, raw = speed.measure(_busy, 5 * calibrate.PROBE_INTERVAL_S)
    wall = calibrate.time.perf_counter() - start
    assert len(speed.probes) >= 5  # one before, several inside, one after
    assert raw == pytest.approx(wall - speed.spent_s, abs=1e-3)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
