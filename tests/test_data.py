"""Benchmark generation geometry, mixture counts, and file round-trips."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from helpers import reference_write_dataset
from openset_ssl.data import (
    UNLABELED,
    BenchmarkSpec,
    Dataset,
    generate,
    read_benchmark,
    read_dataset,
    round_half_up,
    write_benchmark,
    write_dataset,
    _class_means,
)


def small_spec(**kw):
    defaults = dict(
        dim=8,
        in_classes=3,
        out_classes=2,
        separation=5.0,
        total_unlabeled=60,
        out_proportion=0.5,
        labels_per_class=4,
        test_per_class=5,
        seed=11,
    )
    defaults.update(kw)
    return BenchmarkSpec(**defaults)


class TestGeometry:
    def test_in_class_means_pairwise_separation_exact(self):
        spec = small_spec()
        means = _class_means(spec)
        for i in range(spec.in_classes):
            for j in range(i):
                d = np.linalg.norm(means[i] - means[j])
                assert abs(d - spec.separation * spec.within_sigma) < 1e-9

    def test_related_out_means_sit_at_half_separation_from_anchor(self):
        spec = small_spec(correlation_mode="related")
        means = _class_means(spec)
        for j in range(spec.out_classes):
            anchor = means[j % spec.in_classes]
            out = means[spec.in_classes + j]
            d = np.linalg.norm(out - anchor)
            assert abs(d - spec.separation * spec.within_sigma / 2) < 1e-9

    def test_more_classes_than_dims_still_generates(self):
        spec = small_spec(dim=2, in_classes=4, out_classes=3)
        means = _class_means(spec)
        assert len(means) == 7


class TestGenerate:
    def test_zero_proportion_has_no_out_samples(self):
        bench = generate(small_spec(out_proportion=0.0))
        assert (bench.unlabeled.origin == "in").all()

    def test_eighty_percent_of_50k(self):
        spec = small_spec(dim=2, total_unlabeled=50_000, out_proportion=0.8,
                          test_per_class=0)
        bench = generate(spec)
        assert (bench.unlabeled.origin == "out").sum() == 40_000
        assert (bench.unlabeled.origin == "in").sum() == 10_000

    def test_labels_per_class_exact(self):
        bench = generate(small_spec(labels_per_class=4))
        for c in range(1, 4):
            assert (bench.labeled.label == c).sum() == 4

    def test_rounding_is_half_up(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(2.4) == 2
        assert round_half_up(3.5) == 4
        bench = generate(small_spec(total_unlabeled=5, out_proportion=0.5))
        assert (bench.unlabeled.origin == "out").sum() == 3

    def test_sets_pairwise_disjoint_by_id(self):
        bench = generate(small_spec())
        lab = set(bench.labeled.ids.tolist())
        unl = set(bench.unlabeled.ids.tolist())
        tst = set(bench.test.ids.tolist())
        assert not (lab & unl) and not (lab & tst) and not (unl & tst)

    def test_labeled_samples_are_in_class(self):
        bench = generate(small_spec())
        assert (bench.labeled.origin == "in").all()
        assert (bench.labeled.truth <= bench.spec.in_classes).all()
        assert (bench.labeled.label == bench.labeled.truth).all()

    def test_unlabeled_labels_hidden(self):
        bench = generate(small_spec())
        assert (bench.unlabeled.label == UNLABELED).all()

    def test_out_truth_above_in_classes(self):
        bench = generate(small_spec())
        out = bench.unlabeled.origin == "out"
        assert (bench.unlabeled.truth[out] > bench.spec.in_classes).all()

    def test_out_proportion_without_out_classes_rejected(self):
        with pytest.raises(ValueError):
            generate(small_spec(out_classes=0, out_proportion=0.5))

    def test_regeneration_bit_identical(self):
        a = generate(small_spec())
        b = generate(small_spec())
        assert a.unlabeled.x.tobytes() == b.unlabeled.x.tobytes()
        assert a.labeled.x.tobytes() == b.labeled.x.tobytes()


def at_proportions(spec, proportions):
    return [generate(replace(spec, out_proportion=p)) for p in proportions]


class TestSweepProportions:
    """Benchmarks generated from one spec at several out-of-class
    proportions share the cluster geometry and the labeled and test draws:
    their streams do not depend on the proportion."""

    def test_single_zero_proportion(self):
        (bench,) = at_proportions(small_spec(), [0])
        assert (bench.unlabeled.origin == "in").all()

    def test_shared_geometry_across_proportions(self):
        low, high = at_proportions(small_spec(), [0.0, 0.8])
        assert low.labeled.x.tobytes() == high.labeled.x.tobytes()
        assert low.test.x.tobytes() == high.test.x.tobytes()
        # shared in-class sample streams: common prefix per class
        for c in range(1, 4):
            a = low.unlabeled.x[low.unlabeled.truth == c]
            b = high.unlabeled.x[high.unlabeled.truth == c]
            n = min(len(a), len(b))
            assert np.array_equal(a[:n], b[:n])

    def test_counts_match_closed_form(self):
        specs = at_proportions(small_spec(total_unlabeled=67), [0.0, 0.33, 0.8, 1.0])
        for p, bench in zip([0.0, 0.33, 0.8, 1.0], specs):
            expect_out = round_half_up(p * 67)
            assert (bench.unlabeled.origin == "out").sum() == expect_out
            assert len(bench.unlabeled) == 67


class TestDatasetFiles:
    def test_roundtrip_lossless(self, tmp_path):
        bench = generate(small_spec())
        path = tmp_path / "d.csv"
        write_dataset(path, bench.unlabeled)
        loaded = read_dataset(path, bench.unlabeled.dim)
        assert np.array_equal(loaded.ids, bench.unlabeled.ids)
        assert loaded.x.tobytes() == bench.unlabeled.x.tobytes()
        assert np.array_equal(loaded.label, bench.unlabeled.label)
        assert np.array_equal(loaded.truth, bench.unlabeled.truth)
        assert np.array_equal(loaded.origin, bench.unlabeled.origin)

    def test_empty_dataset_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_dataset(path, Dataset.empty(dim=3))
        lines = path.read_text().strip().splitlines()
        assert lines == ["id,f0,f1,f2,label,truth,origin"]
        assert len(read_dataset(path, 3)) == 0

    def test_checksum_stable_across_runs(self, tmp_path):
        spec = small_spec(total_unlabeled=100)
        digests = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            write_dataset(path, generate(spec).unlabeled)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_bytes_match_csv_writer_reference(self, tmp_path):
        # the csv.writer loop write_dataset replaced, kept as the reference
        bench = generate(small_spec())
        data = bench.unlabeled
        data.x[0, :4] = [-0.0, 5e-324, 5e300, -1.25e-7]
        ref = tmp_path / "ref.csv"
        reference_write_dataset(ref, data)
        path = tmp_path / "d.csv"
        write_dataset(path, data)
        assert path.read_bytes() == ref.read_bytes()

    def test_malformed_row_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,f0,label,truth,origin\n0,1.5,1,1,in\n1,oops,1,1,in\n")
        with pytest.raises(ValueError) as err:
            read_dataset(path, 1)
        assert "line 3" in str(err.value)

    def test_missing_final_terminator_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        labeled = generate(small_spec()).labeled
        write_dataset(path, labeled)
        data = path.read_bytes()
        assert data.endswith(b"\r\n")
        path.write_bytes(data[:-2])
        with pytest.raises(ValueError) as err:
            read_dataset(path, labeled.dim)
        lines = data.count(b"\n")
        assert f"{path}: line {lines}, column 'origin'" in str(err.value)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected_with_line_and_column(self, tmp_path, field):
        path = tmp_path / "labeled.csv"
        labeled = generate(small_spec()).labeled
        write_dataset(path, labeled)
        lines = path.read_bytes().split(b"\r\n")
        cells = lines[2].split(b",")
        cells[2] = field.encode()  # f1 of the second row
        lines[2] = b",".join(cells)
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ValueError) as err:
            read_dataset(path, labeled.dim)
        assert f"{path}: line 3, column 'f1'" in str(err.value)

    def test_unknown_spec_key_names_file_and_key(self, tmp_path):
        write_benchmark(tmp_path / "bench", generate(small_spec()))
        spec = tmp_path / "bench" / "spec.json"
        spec.write_text(json.dumps({**json.loads(spec.read_text()), "dims": 3}))
        with pytest.raises(ValueError) as err:
            read_benchmark(tmp_path / "bench")
        assert str(spec) in str(err.value) and "dims" in str(err.value)

    def test_non_integer_spec_dim_names_file_and_key(self, tmp_path):
        # not cut to 6 where the dataset is read: the spec is what it claims
        write_benchmark(tmp_path / "bench", generate(small_spec()))
        spec = tmp_path / "bench" / "spec.json"
        spec.write_text(json.dumps({**json.loads(spec.read_text()), "dim": 6.0}))
        with pytest.raises(ValueError) as err:
            read_benchmark(tmp_path / "bench")
        assert str(err.value) == f"{spec}: dim must be an integer, got 6.0"

    def test_missing_spec_key_names_file_and_key(self, tmp_path):
        # a missing key must not read as the BenchmarkSpec default
        write_benchmark(tmp_path / "bench", generate(small_spec()))
        spec = tmp_path / "bench" / "spec.json"
        doc = json.loads(spec.read_text())
        del doc["in_classes"], doc["seed"]
        spec.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            read_benchmark(tmp_path / "bench")
        assert str(err.value) == f"{spec}: no field 'in_classes'"

    def test_benchmark_directory_roundtrip(self, tmp_path):
        bench = generate(small_spec())
        write_benchmark(tmp_path / "bench", bench)
        loaded = read_benchmark(tmp_path / "bench")
        assert loaded.spec == bench.spec
        assert loaded.labeled.x.tobytes() == bench.labeled.x.tobytes()
        assert loaded.test.x.tobytes() == bench.test.x.tobytes()
