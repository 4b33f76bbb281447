"""Command-line surface: staged pipeline, config-file override, sweeps."""

import json
import os
import shutil
import statistics
import struct

import pytest

from openset_ssl import harness
from openset_ssl.artifacts import read_json, read_table, write_json
from openset_ssl.cli import main
from openset_ssl.harness import strip_timings

MICRO = [
    "--dim", "6", "--in-classes", "2", "--out-classes", "2",
    "--separation", "6", "--total-unlabeled", "40", "--proportion", "0.5",
    "--labels-per-class", "4", "--test-per-class", "6",
    "--pretrain-steps", "10", "--steps", "8", "--batch-size", "4",
    "--checkpoint-interval", "8", "--checkpoint-count", "4", "--seed", "0",
]


def run_cli(*argv):
    return main(list(argv))


def run_dir(root):
    """{path relative to `root`: bytes} of every file under the run
    directory `root`, report.json without its timings and with `root`
    written as <out_dir>, so that two directories compare."""
    files = {}
    for d, _, names in os.walk(root):
        for name in names:
            path = os.path.join(d, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    if "report.json" in files:
        report = strip_timings(read_json(os.path.join(root, "report.json")))
        files["report.json"] = json.dumps(report, sort_keys=True).replace(str(root), "<out_dir>")
    return files


def edit_json(path, change):
    """Rewrite the JSON document at `path` after `change(doc)`."""
    doc = read_json(path)
    change(doc)
    write_json(path, doc)


def drop_key(key):
    """Edit that removes `key` from a JSON document."""
    return lambda path: edit_json(path, lambda doc: doc.pop(key))


def drop_column(name):
    """Edit that removes the column `name` from a table."""
    def edit(path):
        lines = path.read_bytes().split(b"\r\n")
        col = lines[0].split(b",").index(name.encode())
        for i, line in enumerate(lines[:-1]):
            fields = line.split(b",")
            lines[i] = b",".join(fields[:col] + fields[col + 1 :])
        path.write_bytes(b"\r\n".join(lines))

    return edit


def drop_manifest_key(*keys):
    """Edit that removes the key at the path `keys` from a checkpoint's
    JSON manifest (a little-endian uint32 length, then the manifest)."""
    def edit(path):
        data = path.read_bytes()
        (length,) = struct.unpack_from("<I", data)
        manifest = json.loads(data[4 : 4 + length])
        *parents, leaf = keys
        node = manifest
        for key in parents:
            node = node[key]
        del node[leaf]
        text = json.dumps(manifest).encode()
        path.write_bytes(struct.pack("<I", len(text)) + text + data[4 + length :])

    return edit


@pytest.fixture(scope="module")
def labeled(tmp_path_factory):
    """A run directory staged through `label`; tests edit copies of it."""
    out = tmp_path_factory.mktemp("labeled") / "run"
    for stage in ("generate", "pretrain", "detect", "label"):
        assert run_cli(stage, "--out-dir", str(out), *MICRO) == 0
    return out


class TestStagedPipeline:
    def test_each_stage_in_order(self, tmp_path, capsys):
        out = str(tmp_path / "staged")
        for name, stage in harness.stages().items():
            assert run_cli(name, "--out-dir", out, *MICRO) == 0
            product = os.path.join(out, stage.product)
            assert capsys.readouterr().out == product + "\n"
            assert os.path.exists(product), name
        assert (tmp_path / "staged" / "dataset" / "unlabeled.csv").exists()
        assert (tmp_path / "staged" / "detect.json").exists()
        assert (tmp_path / "staged" / "final.ckpt").exists()

    def test_run_and_staged_detect_call_the_module_stage(self, tmp_path, monkeypatch):
        # the function replaced on the module (as the benchmark's tracer
        # replaces it) is the one both paths run
        calls = []
        stage_detect = harness.stage_detect

        def recorded(config, *outputs):
            calls.append(config.out_dir)
            return stage_detect(config, *outputs)

        monkeypatch.setattr(harness, "stage_detect", recorded)
        staged, full = str(tmp_path / "staged"), str(tmp_path / "full")
        for name in ("generate", "pretrain", "detect"):
            assert run_cli(name, "--out-dir", staged, *MICRO) == 0
        assert run_cli("run", "--out-dir", full, *MICRO) == 0
        assert calls == [staged, full]

    def test_a_staged_stage_removes_the_report(self, tmp_path, capsys):
        out = str(tmp_path / "full")
        assert run_cli("run", "--out-dir", out, *MICRO) == 0
        assert run_cli("detect", "--out-dir", out, *MICRO, "--eta", "0.5") == 0
        path = os.path.join(out, "report.json")
        assert not os.path.exists(path)
        capsys.readouterr()
        assert run_cli("eval", "--out-dir", out) == 1
        assert path in capsys.readouterr().err

    def test_rerun_with_fewer_steps_matches_a_fresh_run(self, tmp_path):
        rerun, fresh = str(tmp_path / "rerun"), str(tmp_path / "fresh")
        assert run_cli("run", "--out-dir", rerun, *MICRO, "--steps", "16") == 0
        assert run_cli("run", "--out-dir", rerun, *MICRO) == 0
        assert run_cli("run", "--out-dir", fresh, *MICRO) == 0
        assert len(os.listdir(os.path.join(fresh, "checkpoints"))) == 4
        first, second = run_dir(rerun), run_dir(fresh)
        assert sorted(first) == sorted(second)
        for name in first:
            assert first[name] == second[name], name

    def test_run_then_eval(self, tmp_path, capsys):
        out = str(tmp_path / "full")
        assert run_cli("run", "--out-dir", out, *MICRO) == 0
        report = read_json(os.path.join(out, "report.json"))
        capsys.readouterr()
        assert run_cli("eval", "--out-dir", out) == 0
        recomputed = json.loads(capsys.readouterr().out)
        detection = {k: v for k, v in report["detection"].items() if k != "eta"}
        assert {k: recomputed[k] for k in detection} == detection
        assert recomputed["split_sizes"] == report["split_sizes"]
        assert recomputed["median_accuracy"] == report["median_accuracy"]

    def test_failed_rerun_leaves_no_stale_report(self, tmp_path):
        out = str(tmp_path / "full")
        assert run_cli("run", "--out-dir", out, *MICRO) == 0
        # out-of-class samples with no out-of-class classes: generate fails
        assert run_cli("run", "--out-dir", out, *MICRO, "--out-classes", "0") == 1
        assert not (tmp_path / "full" / "report.json").exists()
        assert run_cli("eval", "--out-dir", out) != 0

    @pytest.mark.parametrize("flags", [[], ["--no-detect"], ["--no-topk-pl"],
                                       ["--backend", "hard-pseudo"], ["--eta", "100"]],
                             ids=["default", "no-detect", "no-topk-pl", "hard-pseudo",
                                  "nothing-detected-out"])
    def test_staged_and_run_directories_match(self, tmp_path, capsys, flags):
        staged, full = str(tmp_path / "staged"), str(tmp_path / "full")
        for name, stage in harness.stages().items():
            assert run_cli(name, "--out-dir", staged, *MICRO, *flags) == 0
            assert capsys.readouterr().out == os.path.join(staged, stage.product) + "\n"
        assert run_cli("run", "--out-dir", full, *MICRO, *flags) == 0
        assert capsys.readouterr().out == os.path.join(full, "report.json") + "\n"
        files = {out: run_dir(out) for out in (staged, full)}
        assert sorted(files[staged]) == sorted(files[full])
        assert "detect.json" in files[full] and "report.json" in files[staged]
        for name in files[full]:
            assert files[staged][name] == files[full][name], name
        for out in (staged, full):
            report = read_json(os.path.join(out, "report.json"))
            assert ("timings" in report) == (out == full)

    def test_nothing_detected_out_writes_every_soft_label_column(self, tmp_path):
        out = tmp_path / "no-out"
        for stage in ("generate", "pretrain", "detect", "label"):
            assert run_cli(stage, "--out-dir", str(out), *MICRO, "--eta", "100") == 0
        assert (out / "softlabels.csv").read_bytes() == b"sample_id,q_1,q_2\r\n"
        assert run_cli("train", "--out-dir", str(out), *MICRO, "--eta", "100") == 0
        assert read_json(out / "report.json")["soft_label_count"] == 0

    def test_generated_dataset_of_another_benchmark_is_rejected(self, tmp_path, capsys):
        # a report would claim the flags' proportion over the other pool
        out = tmp_path / "run"
        assert run_cli("generate", "--out-dir", str(out), *MICRO, "--proportion", "0.2") == 0
        before = run_dir(out)
        capsys.readouterr()
        assert run_cli("pretrain", "--out-dir", str(out), *MICRO, "--proportion", "0.9") == 1
        path = out / "dataset" / "spec.json"
        assert capsys.readouterr().err == (
            f"error: {path}: out_proportion is 0.2 where the config gives 0.9\n")
        assert run_dir(out) == before
        # the run seed is the benchmark's
        assert run_cli("pretrain", "--out-dir", str(out), *MICRO, "--proportion", "0.2",
                       "--seed", "1") == 1
        assert capsys.readouterr().err == f"error: {path}: seed is 0 where the config gives 1\n"

    def test_report_of_a_given_dataset_holds_its_spec(self, tmp_path, capsys):
        gen, out = str(tmp_path / "gen"), str(tmp_path / "run")
        assert run_cli("generate", "--out-dir", gen, *MICRO, "--proportion", "0.2") == 0
        dataset = os.path.join(gen, "dataset")
        assert run_cli("run", "--out-dir", out, "--dataset-dir", dataset,
                       *MICRO, "--proportion", "0.9") == 0
        report = read_json(os.path.join(out, "report.json"))
        assert report["config"]["benchmark"] == read_json(os.path.join(dataset, "spec.json"))
        assert report["config"]["benchmark"]["out_proportion"] == 0.2
        assert json.loads(report["config_text"])["benchmark"]["out_proportion"] == 0.2
        capsys.readouterr()
        assert run_cli("eval", "--out-dir", out) == 0
        recomputed = json.loads(capsys.readouterr().out)
        detection = {k: v for k, v in report["detection"].items() if k != "eta"}
        assert {k: recomputed[k] for k in detection} == detection
        assert recomputed["split_sizes"] == report["split_sizes"]
        assert recomputed["median_accuracy"] == report["median_accuracy"]

    def test_eval_uses_the_runs_median_window(self, tmp_path, capsys):
        out = str(tmp_path / "m3")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"median_last": 3}))
        flags = [
            "--dim", "6", "--in-classes", "2", "--out-classes", "2",
            "--separation", "6", "--total-unlabeled", "40", "--proportion", "0.5",
            "--labels-per-class", "4", "--test-per-class", "6",
            "--pretrain-steps", "10", "--steps", "16", "--batch-size", "4",
            "--checkpoint-interval", "8", "--checkpoint-count", "8", "--seed", "2",
        ]
        assert run_cli("run", "--out-dir", out, "--config", str(path), *flags) == 0
        report = read_json(os.path.join(out, "report.json"))
        accs = report["checkpoint_accuracies"]
        # the run's window matters only where last-3 and last-5 medians differ
        assert statistics.median(accs[-3:]) != statistics.median(accs[-5:])
        capsys.readouterr()
        assert run_cli("eval", "--out-dir", out) == 0
        recomputed = json.loads(capsys.readouterr().out)
        assert recomputed["median_accuracy"] == report["median_accuracy"]
        assert recomputed["median_accuracy"] == statistics.median(accs[-3:])

    def test_detect_without_pretrain_fails_nonzero(self, tmp_path):
        out = str(tmp_path / "empty")
        assert run_cli("generate", "--out-dir", out, *MICRO) == 0
        assert run_cli("detect", "--out-dir", out, *MICRO) == 1

    def test_label_under_another_eta_names_the_scored_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "drift")
        for stage in ("generate", "pretrain", "detect"):
            assert run_cli(stage, "--out-dir", out, *MICRO, "--eta", "0.5") == 0
        capsys.readouterr()
        assert run_cli("label", "--out-dir", out, *MICRO, "--eta", "2") == 1
        path = os.path.join(out, "scored.csv")
        assert capsys.readouterr().err.startswith(f"error: {path}: sample_id ")
        assert not os.path.exists(os.path.join(out, "pseudolabels.csv"))

    def test_eval_names_a_scored_manifest_with_an_edited_split(self, tmp_path, capsys):
        out = str(tmp_path / "full")
        assert run_cli("run", "--out-dir", out, *MICRO) == 0
        path = tmp_path / "full" / "scored.csv"
        lines = path.read_bytes().split(b"\r\n")
        *fields, split = lines[3].split(b",")
        lines[3] = b",".join([*fields, b"in" if split == b"out" else b"out"])
        path.write_bytes(b"\r\n".join(lines))
        capsys.readouterr()
        assert run_cli("eval", "--out-dir", out) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}: sample_id {fields[0].decode()}: split "
        )


class TestDocumentFieldErrors:
    """A field missing from, or unknown to, a document a command reads back
    fails naming the file and the field."""

    REPORT_EDITS = {  # what is done to report.json, and the message it gives
        "missing-field": (lambda doc: doc.pop("checkpoint_accuracies"),
                          "no field 'checkpoint_accuracies'"),
        "unknown-key": (lambda doc: doc["config"]["detection"].update(etta=1.0),
                        "unknown DetectionConfig keys: etta"),
        # not filled with its default, which would split the pool otherwise
        "missing-config-key": (lambda doc: doc["config"]["detection"].pop("eta"),
                               "no field 'config.detection.eta'"),
        # not the defaults, as a null section in a --config file keeps the flags'
        "null-config-section": (lambda doc: doc["config"].update(detection=None),
                                "no field 'config.detection'"),
    }

    @pytest.mark.parametrize("case", sorted(REPORT_EDITS))
    def test_eval_names_the_report_and_the_field(self, tmp_path, capsys, case):
        change, message = self.REPORT_EDITS[case]
        out = str(tmp_path / "full")
        assert run_cli("run", "--out-dir", out, *MICRO) == 0
        path = os.path.join(out, "report.json")
        edit_json(path, change)
        capsys.readouterr()
        assert run_cli("eval", "--out-dir", out) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_label_names_a_truncated_labeled_scores_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "staged")
        for stage in ("generate", "pretrain", "detect"):
            assert run_cli(stage, "--out-dir", out, *MICRO) == 0
        path = tmp_path / "staged" / "scored_labeled.csv"
        path.write_bytes(path.read_bytes()[:-30])
        capsys.readouterr()
        assert run_cli("label", "--out-dir", out, *MICRO) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: line ")

    # case -> the file, its edit, the command that loads it, and the error
    MISSING = {
        "spec": ("dataset/spec.json", drop_key("in_classes"), "pretrain",
                 "{path}: no field 'in_classes'"),
        "labeled-label": ("dataset/labeled.csv", drop_column("label"), "pretrain",
                          "{path}: line 1: no column 'label'"),
        "unlabeled-f3": ("dataset/unlabeled.csv", drop_column("f3"), "pretrain",
                         "{path}: line 1: no column 'f3'"),
        "test-f5": ("dataset/test.csv", drop_column("f5"), "pretrain",
                    "{path}: line 1: no column 'f5'"),
        "checkpoint-version": ("pretrained.ckpt", drop_manifest_key("format_version"), "detect",
                               "checkpoint {path}: manifest has no field 'format_version'"),
        "checkpoint-input-dim": ("pretrained.ckpt", drop_manifest_key("config", "input_dim"),
                                 "detect", "checkpoint {path}: manifest has no field "
                                 "'config.input_dim'"),
        # not filled with its default, which would load other batch-norm statistics
        "checkpoint-bn-epsilon": ("pretrained.ckpt", drop_manifest_key("config", "bn_epsilon"),
                                  "detect", "checkpoint {path}: manifest has no field "
                                  "'config.bn_epsilon'"),
        "scored-labeled-score": ("scored_labeled.csv", drop_column("score"), "label",
                                 "{path}: line 1: no column 'score'"),
        "scored-sim": ("scored.csv", drop_column("sim_2"), "label",
                       "{path}: line 1: no column 'sim_2'"),
        "softlabels-id": ("softlabels.csv", drop_column("sample_id"), "train",
                          "{path}: line 1: no column 'sample_id'"),
        "softlabels-q2": ("softlabels.csv", drop_column("q_2"), "train",
                          "{path}: line 1: no column 'q_2'"),
        "pseudolabels-confidence": ("pseudolabels.csv", drop_column("confidence"), "train",
                                    "{path}: line 1: no column 'confidence'"),
    }

    @pytest.mark.parametrize("case", list(MISSING))
    def test_staged_command_names_a_missing_field(self, labeled, tmp_path, capsys, case):
        name, edit, command, message = self.MISSING[case]
        out = tmp_path / "run"
        shutil.copytree(labeled, out)
        path = out / name
        edit(path)
        before = run_dir(out)
        capsys.readouterr()
        assert run_cli(command, "--out-dir", str(out), *MICRO) == 1
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert run_dir(out) == before  # the load failed before anything was written


class TestLabelManifestsMatchDetection:
    """Staged `train` holds the label manifests to the detection they
    follow and to its labeling config, and names the file (and the
    sample_id, where one row is at fault) when they disagree."""

    def train(self, labeled, tmp_path, capsys, name, edit, *flags):
        """Train, with `flags` after MICRO, on a copy of `labeled` whose
        `name` has its lines (the last one empty, after the final
        terminator) replaced by `edit(lines)`; returns the exit code,
        stderr and the file's path."""
        out = tmp_path / "run"
        shutil.copytree(labeled, out)
        path = out / name
        lines = path.read_bytes().split(b"\r\n")
        path.write_bytes(b"\r\n".join(edit(lines)))
        capsys.readouterr()
        code = run_cli("train", "--out-dir", str(out), *MICRO, *flags)
        return code, capsys.readouterr().err, path

    @pytest.mark.parametrize("flags, name, message", [
        (["--tau-sl", "5"], "softlabels.csv", "soft label is not the detection's at tau_sl 5.0"),
        (["--k-fraction", "1.0"], "pseudolabels.csv", "2 pseudo-labels where 11 are due under "),
        (["--no-topk-pl"], "pseudolabels.csv", "2 pseudo-labels where 0 are due under "),
    ], ids=["tau-sl", "k-fraction", "no-topk-pl"])
    def test_train_under_another_labeling_config_names_the_manifest(
        self, labeled, tmp_path, capsys, flags, name, message
    ):
        code, err, path = self.train(labeled, tmp_path, capsys, name, lambda lines: lines, *flags)
        assert code == 1
        assert err.startswith(f"error: {path}: ") and message in err
        assert not (tmp_path / "run" / "report.json").exists()

    def test_soft_label_manifest_one_row_short(self, labeled, tmp_path, capsys):
        code, err, path = self.train(
            labeled, tmp_path, capsys, "softlabels.csv", lambda lines: lines[:-2] + [b""]
        )
        assert code == 1
        assert f"error: {path}: sample_id column is not the detected-out ids" in err

    def test_soft_label_manifest_one_row_long(self, labeled, tmp_path, capsys):
        code, err, path = self.train(
            labeled, tmp_path, capsys, "softlabels.csv",
            lambda lines: lines[:-1] + [lines[-2], b""],
        )
        assert code == 1
        assert f"error: {path}: sample_id column is not the detected-out ids" in err

    @staticmethod
    def first_pseudo_label_as(sample_id):
        def edit(lines):
            fields = lines[1].split(b",")
            return [lines[0], b",".join([sample_id, *fields[1:]]), *lines[2:]]

        return edit

    def test_pseudo_label_outside_the_pool(self, labeled, tmp_path, capsys):
        code, err, path = self.train(
            labeled, tmp_path, capsys, "pseudolabels.csv", self.first_pseudo_label_as(b"99999")
        )
        assert code == 1
        assert f"error: {path}: sample_id 99999 is not a detected-in pool id" in err

    @pytest.mark.parametrize("assigned", [b"0", b"3"])
    def test_pseudo_label_class_outside_1_to_c(self, labeled, tmp_path, capsys, assigned):
        def edit(lines):
            sample_id, _, confidence = lines[1].split(b",")
            return [lines[0], b",".join([sample_id, assigned, confidence]), *lines[2:]]

        code, err, path = self.train(labeled, tmp_path, capsys, "pseudolabels.csv", edit)
        sample_id = (labeled / "pseudolabels.csv").read_bytes().split(b"\r\n")[1].split(b",")[0]
        assert code == 1
        assert err == (f"error: {path}: sample_id {sample_id.decode()}: assigned_class "
                       f"{assigned.decode()} is not in 1..2\n")

    def test_pseudo_label_of_a_labeled_sample(self, labeled, tmp_path, capsys):
        table = (labeled / "dataset" / "labeled.csv").read_bytes()
        sample_id = table.split(b"\r\n")[1].split(b",")[0]
        code, err, path = self.train(
            labeled, tmp_path, capsys, "pseudolabels.csv", self.first_pseudo_label_as(sample_id)
        )
        assert code == 1
        assert f"error: {path}: sample_id {sample_id.decode()} is not a detected-in pool id" in err


class TestSweepAndReport:
    def test_sweep_writes_table_and_report_emits_curve(self, tmp_path):
        out = str(tmp_path / "sweep")
        assert (
            run_cli(
                "sweep", "--out-dir", out, "--axis", "lambda",
                "--values", "0,0.5", *MICRO,
            )
            == 0
        )
        assert (tmp_path / "sweep" / "sweep.csv").exists()
        assert run_cli("report", "--sweep-dir", out) == 0
        curve = (tmp_path / "sweep" / "curve.csv").read_text().splitlines()
        assert curve[0] == "value,median_accuracy,best_accuracy"
        assert len(curve) == 3

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "7"), ("--out-dir", "x"), ("--dataset-dir", "x"),
        ("--config", "/nonexistent.json"),
    ])
    def test_report_rejects_the_flags_it_never_reads(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli("report", "--sweep-dir", str(tmp_path), flag, value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    def test_failed_rerun_leaves_no_stale_curve_point(self, tmp_path):
        out = str(tmp_path / "sweep")
        sweep = ["sweep", "--out-dir", out, "--axis", "proportion", "--values", "0.5", *MICRO]
        assert run_cli(*sweep) == 0
        assert (tmp_path / "sweep" / "proportion_0.5" / "report.json").exists()
        # out-of-class samples with no out-of-class classes: generate fails
        assert run_cli(*sweep, "--out-classes", "0") != 0
        assert read_table(os.path.join(out, "sweep.csv"), {"error": str}, default=str)["error"][0]
        # the first run's report is gone, so eval cannot pass it off as the rerun's
        assert not (tmp_path / "sweep" / "proportion_0.5" / "report.json").exists()
        assert run_cli("eval", "--out-dir", os.path.join(out, "proportion_0.5")) != 0
        assert run_cli("report", "--sweep-dir", out) == 0
        curve = (tmp_path / "sweep" / "curve.csv").read_text().splitlines()
        assert curve == ["value,median_accuracy,best_accuracy"]

    def test_failure_with_an_empty_message_fails_the_sweep(self, tmp_path, monkeypatch, capsys):
        run_experiment = harness.run_experiment

        def run_or_raise(config):
            if config.benchmark.out_proportion == 0.5:
                raise ValueError()
            return run_experiment(config)

        monkeypatch.setattr(harness, "run_experiment", run_or_raise)
        out = str(tmp_path / "sweep")
        sweep = ["sweep", "--out-dir", out, "--axis", "proportion", "--values", "0,0.5", *MICRO]
        assert run_cli(*sweep) == 1
        assert "value 0.5 failed: ValueError" in capsys.readouterr().err
        table = read_table(os.path.join(out, "sweep.csv"), {"error": str}, default=str)
        assert table["error"] == ["", "ValueError"]

    def test_proportion_sweep_over_a_fixed_dataset_is_rejected(self, tmp_path, capsys):
        # the dataset overrides the benchmark, so every value would run on it
        gen = str(tmp_path / "gen")
        assert run_cli("generate", "--out-dir", gen, *MICRO) == 0
        dataset = os.path.join(gen, "dataset")
        out = tmp_path / "sweep"
        capsys.readouterr()
        assert run_cli("sweep", "--out-dir", str(out), "--dataset-dir", dataset,
                       "--axis", "proportion", "--values", "0.2,0.8", *MICRO) == 1
        err = capsys.readouterr().err
        assert "'proportion'" in err and dataset in err
        assert not out.exists()  # rejected before the sweep directory is made


class TestConfigFile:
    def test_config_file_overrides_flags(self, tmp_path):
        out = str(tmp_path / "cfgd")
        config = {
            "seed": 9,
            "ssl": {"lambda": 0.25, "steps": 8, "batch_size": 4},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert (
            run_cli(
                "run", "--out-dir", out, "--seed", "3", "--lambda", "1.0",
                "--config", str(path), *MICRO,
            )
            == 0
        )
        report = read_json(os.path.join(out, "report.json"))
        assert report["config"]["seed"] == 9
        assert report["config"]["ssl"]["lambda"] == 0.25
        assert report["config_text"] == path.read_text()

    def test_malformed_config_file_names_path_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 1,')
        out = str(tmp_path / "bad")
        assert run_cli("generate", "--out-dir", out, "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert f"{path}: line 1, column 12:" in err

    @pytest.mark.parametrize("text, message", [
        ('{"median_last": 0}', "median_last must be at least 1, got 0"),
        ('{"checkpoint_count": -2}', "checkpoint_count must be at least 1, got -2"),
        # not JSON: a threshold of nan would detect no row out
        ('{"detection": {"explicit_threshold": NaN}}',
         "line 1, column 38: NaN is not a JSON value"),
        ('{"ssl": {\n  "lambda": Infinity}}', "line 2, column 13: Infinity is not a JSON value"),
        ('{"seed": 1, "out_dir": "NaN", "ssl": {"lambda": -Infinity}}',
         "line 1, column 49: -Infinity is not a JSON value"),
    ], ids=["median-last", "checkpoint-count", "nan", "infinity", "minus-infinity"])
    def test_config_file_fault_names_the_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "bad"
        assert run_cli("generate", "--out-dir", str(out), "--config", str(path), *MICRO) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--tau-sl", "inf"), ("--lambda", "nan")])
    def test_non_finite_flag_rejected_before_any_stage(self, tmp_path, capsys, flag, value):
        # report.json could not hold it, so a run would fail only at its end
        out = tmp_path / "bad"
        assert run_cli("generate", "--out-dir", str(out), *MICRO, flag, value) == 1
        assert capsys.readouterr().err == f"error: {flag} {value} is not a finite real\n"
        assert not out.exists()

    def test_flags_apply_when_not_overridden(self, tmp_path):
        out = str(tmp_path / "flags")
        assert run_cli("run", "--out-dir", out, "--eta", "1.5", *MICRO) == 0
        report = read_json(os.path.join(out, "report.json"))
        assert report["config"]["detection"]["eta"] == 1.5
        assert report["detection"]["eta"] == 1.5

    def test_toggle_flags(self, tmp_path):
        out = str(tmp_path / "toggles")
        assert (
            run_cli(
                "run", "--out-dir", out, "--no-topk-pl", "--no-aux-bn", *MICRO
            )
            == 0
        )
        report = read_json(os.path.join(out, "report.json"))
        assert report["config"]["ssl"]["topk_pl"] is False
        assert report["config"]["ssl"]["aux_bn"] is False
        assert report["pseudo"]["count"] == 0


def _flatten(d, prefix=""):
    out = {}
    for key, value in d.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


class TestFlagTable:
    """Each flag sets exactly these config fields; the table is written
    out here, independently of the CLI's own."""

    CASES = [
        (["--seed", "7"], {"seed": 7}),
        (["--dataset-dir", "elsewhere"], {"dataset_dir": "elsewhere"}),
        (["--dim", "5"], {"benchmark.dim": 5}),
        (["--in-classes", "3"], {"benchmark.in_classes": 3}),
        (["--out-classes", "4"], {"benchmark.out_classes": 4}),
        (["--separation", "2.5"], {"benchmark.separation": 2.5}),
        (["--within-sigma", "0.5"], {"benchmark.within_sigma": 0.5}),
        (["--correlation-mode", "related"], {"benchmark.correlation_mode": "related"}),
        (["--total-unlabeled", "77"], {"benchmark.total_unlabeled": 77}),
        (["--proportion", "0.3"], {"benchmark.out_proportion": 0.3}),
        (["--labels-per-class", "9"], {"benchmark.labels_per_class": 9}),
        (["--test-per-class", "11"], {"benchmark.test_per_class": 11}),
        (["--pretrain-steps", "13"], {"contrastive.steps": 13}),
        (["--tau-con", "0.25"], {"contrastive.tau_con": 0.25}),
        (["--pretrain-lr", "0.3"], {"contrastive.lr": 0.3}),
        (["--batch-size", "6"], {"contrastive.batch_size": 6, "ssl.batch_size": 6}),
        (["--steps", "17"], {"ssl.steps": 17}),
        (["--lr", "0.4"], {"ssl.lr": 0.4}),
        (["--beta", "2.5"], {"ssl.beta": 2.5}),
        (["--lambda", "0.75"], {"ssl.lambda": 0.75}),
        (["--backend", "hard-pseudo"], {"ssl.backend": "hard-pseudo"}),
        (["--no-detect"], {"ssl.detect": False}),
        (["--no-aux-loss"], {"ssl.aux_loss": False}),
        (["--no-aux-bn"], {"ssl.aux_bn": False}),
        (["--no-topk-pl"], {"ssl.topk_pl": False}),
        (["--tau-sl", "0.5"], {"labeling.tau_sl": 0.5}),
        (["--k-fraction", "0.5"], {"labeling.k_fraction": 0.5}),
        (["--eta", "1.5"], {"detection.eta": 1.5}),
        (["--checkpoint-interval", "96"], {"checkpoint_interval": 96}),
        (["--checkpoint-count", "3"], {"checkpoint_count": 3}),
    ]

    @pytest.fixture
    def config_of(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg: seen.append(cfg) or cfg)

        def config_of(*argv):
            assert run_cli("run", "--out-dir", str(tmp_path), *argv) == 0
            return seen.pop()

        return config_of

    @pytest.mark.parametrize("argv, fields", CASES, ids=[c[0][0] for c in CASES])
    def test_flag_sets_its_fields(self, config_of, argv, fields):
        base = _flatten(config_of().to_dict())
        got = _flatten(config_of(*argv).to_dict())
        changed = {k: v for k, v in got.items() if base[k] != v}
        assert changed == fields

    @pytest.mark.parametrize("augments", [
        {},
        {"contrastive": {"augment": None}, "ssl": {"augment": None}},
        {"contrastive": {"augment": {"noise_sigma": 0.7}},
         "ssl": {"augment": {"noise_sigma": 0.7}}},
    ], ids=["absent", "null", "without-stream"])
    def test_config_file_augment_keeps_stage_stream(self, config_of, tmp_path, augments):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(augments))
        cfg = config_of("--config", str(path))
        assert cfg.contrastive.augment.stream == "pretrain.augment"
        assert cfg.ssl.augment.stream == "train.augment"

    def test_config_file_section_given_as_null_keeps_the_flags(self, config_of, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"ssl": None, "detection": {"eta": 0.5}}))
        cfg = config_of("--lambda", "0.75", "--eta", "1.5", "--config", str(path))
        assert (cfg.ssl.lam, cfg.detection.eta) == (0.75, 0.5)
