"""End-to-end runs: determinism, persistence fidelity, component lattice,
and sweeps.  Configs here are miniature so the suite stays fast."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openset_ssl import detect as detect_mod
from openset_ssl import harness as harness_mod
from openset_ssl import model as model_mod
from openset_ssl.augment import AugmentConfig
from openset_ssl.contrastive import ContrastiveConfig
from openset_ssl.data import BenchmarkSpec
from openset_ssl.detect import DetectionConfig, out_mask
from openset_ssl.harness import (
    ExperimentConfig,
    ModelShape,
    apply_axis,
    load_detect_outcome,
    prepare_benchmark,
    recompute_metrics,
    run_experiment,
    run_sweep,
    stage_detect,
    stage_pretrain,
    strip_timings,
)
from openset_ssl.labeling import LabelingConfig
from openset_ssl.train import BACKENDS, SSLConfig


def micro_config(out_dir, **kw):
    cfg = ExperimentConfig(
        seed=0,
        out_dir=str(out_dir),
        benchmark=BenchmarkSpec(
            dim=6,
            in_classes=2,
            out_classes=2,
            separation=6.0,
            total_unlabeled=40,
            out_proportion=0.5,
            labels_per_class=4,
            test_per_class=6,
            seed=0,
        ),
        contrastive=ContrastiveConfig(
            steps=12,
            batch_size=8,
            lr=0.05,
            augment=AugmentConfig(noise_sigma=0.3, stream="pretrain.augment"),
        ),
        detection=DetectionConfig(eta=2.0),
        labeling=LabelingConfig(k_fraction=0.2, linear_eval_steps=40),
        ssl=SSLConfig(
            steps=10,
            batch_size=4,
            lr=0.05,
            augment=AugmentConfig(noise_sigma=0.3, stream="train.augment"),
        ),
        checkpoint_interval=8,
        checkpoint_count=5,
        median_last=3,
    )
    return replace(cfg, **kw) if kw else cfg


def canonical(report):
    return json.dumps(strip_timings(report), sort_keys=True)


class TestRunExperiment:
    def test_report_fields_and_artifacts(self, tmp_path):
        cfg = micro_config(tmp_path / "run")
        report = run_experiment(cfg)
        assert set(report["split_sizes"]) == {"in", "out"}
        assert report["detection"]["threshold"] is not None
        assert 0.0 <= report["detection"]["auroc"] <= 1.0
        assert report["median_accuracy"] is not None
        assert report["best_accuracy"] >= report["median_accuracy"] - 1e-12
        assert len(report["checkpoint_accuracies"]) == 5
        for name in (
            "dataset/labeled.csv",
            "pretrain_trace.csv",
            "pretrained.ckpt",
            "scored.csv",
            "scored_labeled.csv",
            "softlabels.csv",
            "pseudolabels.csv",
            "train_trace.csv",
            "final.ckpt",
            "report.json",
        ):
            assert (tmp_path / "run" / name).exists(), name

    def test_same_config_same_seed_byte_identical(self, tmp_path):
        cfg = micro_config(tmp_path / "run")
        first = canonical(run_experiment(cfg))
        second = canonical(run_experiment(cfg))
        assert first == second

    def test_different_seed_differs(self, tmp_path):
        a = run_experiment(micro_config(tmp_path / "a", seed=0))
        b = run_experiment(micro_config(tmp_path / "b", seed=1))
        assert a["checkpoint_accuracies"] != b["checkpoint_accuracies"] or (
            a["detection"]["threshold"] != b["detection"]["threshold"]
        )

    def test_zero_proportion_reports_no_detection_metrics(self, tmp_path):
        cfg = micro_config(tmp_path / "p0")
        cfg = replace(cfg, benchmark=replace(cfg.benchmark, out_proportion=0.0))
        report = run_experiment(cfg)
        assert report["detection"]["auroc"] is None
        assert report["split_sizes"]["in"] + report["split_sizes"]["out"] == 40

    def test_persistence_fidelity(self, tmp_path):
        cfg = micro_config(tmp_path / "run")
        report = run_experiment(cfg)
        redone = recompute_metrics(cfg.out_dir)
        det = report["detection"]
        assert redone["threshold"] == det["threshold"]
        assert redone["mu"] == det["mu"]
        assert redone["sigma"] == det["sigma"]
        assert redone["tpr"] == det["tpr"]
        assert redone["tnr"] == det["tnr"]
        assert redone["auroc"] == det["auroc"]
        assert redone["median_accuracy"] == report["median_accuracy"]
        assert redone["best_accuracy"] == report["best_accuracy"]
        assert redone["split_sizes"] == report["split_sizes"]

    def test_downstream_toggle_leaves_upstream_manifests_identical(self, tmp_path):
        with_pl = micro_config(tmp_path / "pl_on")
        without_pl = micro_config(tmp_path / "pl_off")
        without_pl = replace(without_pl, ssl=replace(without_pl.ssl, topk_pl=False))
        run_experiment(with_pl)
        run_experiment(without_pl)
        for name in ("scored.csv", "scored_labeled.csv", "softlabels.csv",
                     "pretrain_trace.csv", "dataset/unlabeled.csv"):
            a = (tmp_path / "pl_on" / name).read_bytes()
            b = (tmp_path / "pl_off" / name).read_bytes()
            assert a == b, name

    def test_toggles_off_reduces_to_plain_backend(self, tmp_path):
        plain_ssl = SSLConfig(
            steps=10, batch_size=4, lr=0.05,
            detect=False, aux_loss=False, aux_bn=False, topk_pl=False,
            augment=AugmentConfig(noise_sigma=0.3, stream="train.augment"),
        )
        cfg = micro_config(tmp_path / "off", ssl=plain_ssl)
        report = run_experiment(cfg)
        assert report["pseudo"]["count"] == 0
        trace = (tmp_path / "off" / "train_trace.csv").read_text().splitlines()
        for line in trace[1:]:
            assert line.split(",")[3] == "0"  # no auxiliary term anywhere

    def test_config_echo_is_byte_equal(self, tmp_path):
        text = json.dumps({"seed": 3})
        cfg = micro_config(tmp_path / "echo", raw_text=text)
        report = run_experiment(cfg)
        assert report["config_text"] == text

    def test_truncated_report_rejected_by_name(self, tmp_path):
        cfg = micro_config(tmp_path / "run")
        run_experiment(cfg)
        path = tmp_path / "run" / "report.json"
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(ValueError) as err:
            recompute_metrics(cfg.out_dir)
        assert str(err.value).startswith(f"{path}: line ")


class TestDetectOutcome:
    def detect(self, tmp_path, **kw):
        cfg = micro_config(tmp_path / "run", **kw)
        os.makedirs(cfg.out_dir)
        bench = prepare_benchmark(cfg)
        return cfg, bench, stage_detect(cfg, bench, stage_pretrain(cfg, bench))

    def test_reload_is_bit_equal(self, tmp_path):
        spec = micro_config(tmp_path).benchmark
        cases = {  # name -> micro_config changes
            "default": {},
            "explicit-threshold": {"detection": DetectionConfig(explicit_threshold=0.75)},
            "p0": {"benchmark": replace(spec, out_proportion=0.0)},
            "p1": {"benchmark": replace(spec, out_proportion=1.0)},
        }
        for case, kw in cases.items():
            cfg, bench, det = self.detect(tmp_path / case, **kw)
            loaded = load_detect_outcome(cfg.out_dir, bench, cfg.detection)
            assert np.array_equal(det.ids, bench.unlabeled.ids), case
            for name in ("ids", "sims", "scores", "out", "in_set", "out_set"):
                assert getattr(loaded, name).tobytes() == getattr(det, name).tobytes(), (case, name)
            assert (loaded.threshold, loaded.mu, loaded.sigma) == (det.threshold, det.mu, det.sigma)
            assert loaded.metrics == det.metrics, case
            assert (det.metrics is None) == (case in ("p0", "p1")), case
            assert len(det.in_set) + len(det.out_set) == len(bench.unlabeled), case

    def test_each_row_set_is_projected_once(self, tmp_path, monkeypatch):
        # one pass over the labeled set feeds its prototypes and its scores
        cfg = micro_config(tmp_path / "run")
        os.makedirs(cfg.out_dir)
        bench = prepare_benchmark(cfg)
        model = stage_pretrain(cfg, bench)
        projected = []
        forward = model_mod.forward

        def spy(model, x, head="embedding"):
            if head == "projection":
                projected.append(len(x))
            return forward(model, x, head)

        for module in (detect_mod, harness_mod):  # `score_samples` and `stage_detect`
            monkeypatch.setattr(module, "forward", spy)
        stage_detect(cfg, bench, model)
        assert projected == [len(bench.labeled), len(bench.unlabeled)]

    def test_reordered_scored_manifest_rejected_by_name(self, tmp_path):
        cfg, bench, _ = self.detect(tmp_path)
        path = tmp_path / "run" / "scored.csv"
        lines = path.read_bytes().split(b"\r\n")
        lines[1], lines[2] = lines[2], lines[1]
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ValueError) as err:
            load_detect_outcome(cfg.out_dir, bench, cfg.detection)
        assert str(err.value).startswith(f"{path}: sample_id column")

    def test_another_detection_config_names_the_first_row_it_splits_otherwise(self, tmp_path):
        cfg, bench, det = self.detect(tmp_path)
        drifted = DetectionConfig(explicit_threshold=float(np.median(det.scores)))
        moved = det.ids[out_mask(det.scores, drifted.explicit_threshold) != det.out]
        assert moved.size  # the drifted threshold splits some row otherwise
        with pytest.raises(ValueError) as err:
            load_detect_outcome(cfg.out_dir, bench, drifted)
        path = tmp_path / "run" / "scored.csv"
        assert str(err.value).startswith(f"{path}: sample_id {moved[0]}: split ")


class TestSweep:
    def test_single_value_equals_run_experiment(self, tmp_path):
        cfg = micro_config(tmp_path / "sweep")
        rows = run_sweep(cfg, "lambda", [0.5])
        assert len(rows) == 1
        solo = run_experiment(
            replace(apply_axis(cfg, "lambda", 0.5), out_dir=str(tmp_path / "solo"))
        )
        assert rows[0]["report"]["median_accuracy"] == solo["median_accuracy"]
        assert rows[0]["report"]["checkpoint_accuracies"] == solo["checkpoint_accuracies"]

    def test_errors_recorded_and_sweep_continues(self, tmp_path):
        cfg = micro_config(tmp_path / "sweep_err")
        cfg = replace(cfg, benchmark=replace(cfg.benchmark, out_classes=0))
        rows = run_sweep(cfg, "proportion", [0.5, 0.0])
        assert rows[0]["error"] is not None and rows[0]["report"] is None
        assert rows[1]["error"] is None and rows[1]["report"] is not None
        table = (tmp_path / "sweep_err" / "sweep.csv").read_text()
        assert "out-class" in table

    def test_eta_sweep_monotone_rates(self, tmp_path):
        # raising eta lowers t = mu - eta*sigma, so fewer samples fall
        # below it: tpr can only drop, tnr can only rise
        cfg = micro_config(tmp_path / "etas")
        rows = run_sweep(cfg, "eta", [1.0, 2.0, 3.0, 4.0])
        tprs = [r["report"]["detection"]["tpr"] for r in rows]
        tnrs = [r["report"]["detection"]["tnr"] for r in rows]
        assert all(a >= b - 1e-15 for a, b in zip(tprs, tprs[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(tnrs, tnrs[1:]))
        assert tprs[0] >= tprs[-1]

    def test_proportion_axis_regenerates_mixture(self, tmp_path):
        cfg = micro_config(tmp_path / "props")
        rows = run_sweep(cfg, "proportion", [0.0, 0.5])
        assert rows[0]["report"]["split_sizes"]["in"] + rows[0]["report"][
            "split_sizes"
        ]["out"] == 40
        assert rows[0]["report"]["detection"]["auroc"] is None
        assert rows[1]["report"]["detection"]["auroc"] is not None

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ValueError) as err:
            apply_axis(micro_config(tmp_path), "nope", 1.0)
        assert str(err.value) == ("unknown sweep axis 'nope'; expected one of "
                                  "('proportion', 'tau_sl', 'lambda', 'k_fraction', 'eta')")

    def test_sweep_over_an_unknown_axis_leaves_no_directory(self, tmp_path):
        out = tmp_path / "unknown"
        with pytest.raises(ValueError) as err:
            run_sweep(micro_config(out), "nope", [0.5, 1.0])
        assert str(err.value).startswith("unknown sweep axis 'nope'")
        assert not out.exists()

    @pytest.mark.parametrize("values", [[0.5, 0.5000001], [0.5, 1.0, 0.5]])
    def test_values_sharing_a_run_directory_rejected_before_any_run(self, tmp_path, values):
        out = tmp_path / "dup"
        with pytest.raises(ValueError) as err:
            run_sweep(micro_config(out), "lambda", values)
        assert str(err.value) == (
            f"sweep values 0.5 and {values[-1]} share the run directory lambda_0.5")
        assert not out.exists()

    def test_empty_values_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_sweep(micro_config(tmp_path / "x"), "eta", [])


class TestConfigRoundtrip:
    def test_to_from_dict(self, tmp_path):
        cfg = micro_config(tmp_path / "rt")
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_lambda_key_maps_to_lam(self):
        d = ExperimentConfig().to_dict()
        d["ssl"]["lambda"] = 0.25
        cfg = ExperimentConfig.from_dict(d)
        assert cfg.ssl.lam == 0.25

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ValueError, match="lamda"):
            ExperimentConfig.from_dict({"ssl": {"lamda": 0.25}})
        with pytest.raises(ValueError, match="median_lst"):
            ExperimentConfig.from_dict({"median_lst": 3})

    def test_strict_read_names_the_first_missing_field(self):
        # without a base every field must be given, none filled by its default
        d = ExperimentConfig().to_dict()
        del d["detection"]["eta"], d["median_last"]
        with pytest.raises(KeyError) as err:
            ExperimentConfig.from_dict(d)
        assert err.value.args == ("detection.eta",)
        # a misspelled key fails as unknown, before its section's missing field
        d["detection"]["etta"] = 2.0
        with pytest.raises(ValueError, match="unknown DetectionConfig keys: etta"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("doc", [
        {"seed": 3}, {"ssl": {"lr": 1}}, {"ssl": {"steps": None}}, {"dataset_dir": None},
        {"detection": {"explicit_threshold": None}},
        {"contrastive": {"augment": {"jitter_range": [1, 1.5]}}},
    ], ids=["int", "int-as-real", "null-int", "null-str", "null-real", "list-of-numbers"])
    def test_leaves_of_the_annotated_types_are_taken(self, doc):
        ExperimentConfig.from_dict(doc, base=ExperimentConfig())

    @pytest.mark.parametrize("doc, message", [
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": None}, "seed must be an integer, got None"),
        ({"ssl": {"lr": "0.1"}}, "ssl.lr must be a real, got '0.1'"),
        ({"ssl": {"aux_bn": 1}}, "ssl.aux_bn must be true or false, got 1"),
        ({"out_dir": 3}, "out_dir must be a string, got 3"),
        ({"model": {"hidden_dims": 64}}, "model.hidden_dims must be a list of numbers, got 64"),
        ({"ssl": {"augment": {"jitter_range": [0.8, True]}}},
         "ssl.augment.jitter_range must be a list of numbers, got [0.8, True]"),
    ], ids=["bool-int", "null-int", "str-real", "int-bool", "int-str", "int-tuple",
            "bool-in-tuple"])
    def test_leaf_of_another_type_is_rejected_by_its_dotted_key(self, doc, message):
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_dict(doc, base=ExperimentConfig())
        assert str(err.value) == message

    def test_raw_text_is_not_a_document_key(self):
        with pytest.raises(ValueError, match="unknown ExperimentConfig keys: raw_text"):
            ExperimentConfig.from_dict({"raw_text": "{}"}, base=ExperimentConfig())

    @pytest.mark.parametrize("name", ["checkpoint_interval", "checkpoint_count", "median_last"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_counts_below_one_rejected_by_name(self, name, value):
        with pytest.raises(ValueError) as err:
            ExperimentConfig(**{name: value})
        assert str(err.value) == f"{name} must be at least 1, got {value}"


def _unit(lo=0.0, hi=1.0, **kw):
    return st.floats(lo, hi, allow_nan=False, **kw)


_text = st.text(max_size=12)
_augments = st.builds(
    AugmentConfig,
    noise_sigma=_unit(0.0, 5.0),
    jitter_range=st.tuples(_unit(0.1, 1.0), _unit(0.0, 1.0)).map(lambda t: (t[0], t[0] + t[1])),
    mask_fraction=_unit(0.0, 0.99),
    stream=_text,
)
_configs = st.builds(
    ExperimentConfig,
    seed=st.integers(0, 2**40),
    out_dir=_text,
    benchmark=st.builds(
        BenchmarkSpec,
        dim=st.integers(1, 64),
        in_classes=st.integers(2, 20),
        out_classes=st.integers(0, 20),
        separation=_unit(0.0, 20.0),
        within_sigma=_unit(0.01, 5.0),
        correlation_mode=st.sampled_from(["independent", "related"]),
        total_unlabeled=st.integers(0, 10**5),
        out_proportion=_unit(),
        labels_per_class=st.integers(1, 100),
        test_per_class=st.integers(0, 100),
        seed=st.integers(0, 2**32),
    ),
    dataset_dir=st.none() | _text,
    model=st.builds(
        ModelShape,
        hidden_dims=st.lists(st.integers(1, 256), max_size=3).map(tuple),
        embed_dim=st.integers(1, 256),
        proj_dim=st.integers(1, 256),
        bn_epsilon=_unit(1e-9, 1e-2),
        bn_momentum=_unit(0.01, 0.99),
    ),
    contrastive=st.builds(
        ContrastiveConfig,
        tau_con=_unit(0.01, 2.0),
        batch_size=st.integers(2, 512),  # train-mode batch norm needs two rows
        steps=st.integers(0, 10**5),
        lr=_unit(),
        momentum=_unit(),
        cosine_decay=st.booleans(),
        augment=_augments,
    ),
    detection=st.builds(
        DetectionConfig, eta=_unit(0.0, 10.0), explicit_threshold=st.none() | _unit(-1.0)
    ),
    labeling=st.builds(
        LabelingConfig,
        tau_sl=_unit(0.01, 2.0),
        k_fraction=_unit(0.01),
        linear_eval_steps=st.integers(0, 1000),
        linear_eval_lr=_unit(),
    ),
    ssl=st.builds(
        SSLConfig,
        backend=st.sampled_from(BACKENDS),
        beta=_unit(0.0, 10.0),
        lam=_unit(0.0, 10.0),
        batch_size=st.integers(2, 512),  # the aux term's train-mode batch norm needs two rows
        steps=st.none() | st.integers(0, 10**5),
        lr=_unit(),
        momentum=_unit(),
        cosine_decay=st.booleans(),
        confidence_threshold=_unit(),
        detect=st.booleans(),
        aux_loss=st.booleans(),
        aux_bn=st.booleans(),
        topk_pl=st.booleans(),
        augment=_augments,
    ),
    checkpoint_interval=st.integers(1, 10**5),
    checkpoint_count=st.integers(1, 100),
    median_last=st.integers(1, 100),
)


@settings(max_examples=100, deadline=None)
@given(cfg=_configs)
@example(cfg=ExperimentConfig())
def test_config_dict_roundtrip(cfg):
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    # and through the JSON text of a config file or a report
    text = json.dumps(cfg.to_dict(), sort_keys=True)
    assert ExperimentConfig.from_dict(json.loads(text), raw_text=text) == replace(
        cfg, raw_text=text
    )
