"""Prototypes, similarity scoring, threshold rule, and the in/out split,
each against independent brute-force recomputation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openset_ssl.detect import (
    DetectionConfig,
    compute_prototypes,
    compute_threshold,
    detection_score,
    out_mask,
    project,
    prototypes_from_projections,
    read_scored_manifest,
    score_samples,
    write_scored_manifest,
)
from openset_ssl.harness import DetectOutcome
from openset_ssl.model import ModelConfig, build_model, cosine_similarity


def model_with_dim(input_dim=6, num_classes=3, seed=0):
    return build_model(
        ModelConfig(input_dim=input_dim, hidden_dims=(8,), embed_dim=5, proj_dim=4,
                    num_classes=num_classes),
        seed=seed,
    )


class TestPrototypes:
    def test_single_sample_class_is_its_projection(self):
        model = model_with_dim(num_classes=2)
        x = np.random.default_rng(0).standard_normal((2, 6))
        protos = compute_prototypes(x, np.array([1, 2]), model)
        projections = project(model, x)
        assert np.allclose(protos.prototypes[1], projections[0], atol=0)
        assert np.allclose(protos.prototypes[2], projections[1], atol=0)

    def test_two_projection_mean(self):
        protos = prototypes_from_projections(
            np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1, 1]), num_classes=1
        )
        assert np.array_equal(protos.prototypes[1], [0.5, 0.5])

    def test_mean_matches_accumulation_loop(self):
        rng = np.random.default_rng(1)
        projections = rng.standard_normal((9, 4))
        labels = np.array([1, 2, 3, 1, 2, 3, 1, 2, 3])
        protos = prototypes_from_projections(projections, labels, num_classes=3)
        for c in (1, 2, 3):
            acc = np.zeros(4)
            n = 0
            for p, l in zip(projections, labels):
                if l == c:
                    acc = acc + p
                    n += 1
            assert np.abs(protos.prototypes[c] - acc / n).max() < 1e-12
            assert protos.counts[c] == n

    def test_missing_class_rejected_by_name(self):
        with pytest.raises(ValueError) as err:
            prototypes_from_projections(np.ones((2, 3)), np.array([1, 1]), num_classes=2)
        assert "class 2" in str(err.value)


class TestSimilaritiesAndScore:
    def test_projection_equal_to_prototype_scores_one(self):
        protos = prototypes_from_projections(
            np.array([[3.0, 4.0]]), np.array([1]), num_classes=1
        )
        sims = cosine_similarity(np.array([3.0, 4.0]), protos.matrix())[0]
        assert abs(sims[0] - 1.0) < 1e-12

    def test_orthogonal_projection_scores_zero(self):
        protos = prototypes_from_projections(
            np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1, 2]), num_classes=2
        )
        sims = cosine_similarity(np.array([0.0, 5.0]), protos.matrix())[0]
        assert np.abs(sims).max() == 0.0

    def test_matches_independent_dot_norm_routine(self):
        rng = np.random.default_rng(2)
        model = model_with_dim()
        labeled_x = rng.standard_normal((9, 6))
        labels = np.tile([1, 2, 3], 3)
        protos = compute_prototypes(labeled_x, labels, model)
        x = rng.standard_normal(6)
        sims = score_samples(x[None], protos, model)[0][0]
        p = project(model, x)[0]
        for idx, c in enumerate(protos.class_ids):
            v = protos.prototypes[c]
            expected = (p * v).sum() / np.sqrt((p * p).sum() * (v * v).sum())
            assert abs(sims[idx] - expected) < 1e-12

    def test_detection_score_examples(self):
        assert detection_score([0.2, -0.1, 0.9]) == 0.9
        assert detection_score([0.42]) == 0.42
        with pytest.raises(ValueError):
            detection_score([])

    def test_detection_score_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            sims = rng.uniform(-1, 1, size=7)
            assert detection_score(sims) == sorted(sims)[-1]

    def test_scores_bounded_by_cosine(self):
        rng = np.random.default_rng(4)
        model = model_with_dim()
        labeled_x = rng.standard_normal((6, 6))
        protos = compute_prototypes(labeled_x, np.tile([1, 2, 3], 2), model)
        _, scores = score_samples(rng.standard_normal((50, 6)), protos, model)
        assert scores.shape == (50,)
        for score in scores:
            assert -1.0 - 1e-12 <= score <= 1.0 + 1e-12


class TestThreshold:
    def test_zero_deviation(self):
        t, mu, sigma = compute_threshold([0.5, 0.5], DetectionConfig(eta=2.0))
        assert t == 0.5 and mu == 0.5 and sigma == 0.0

    def test_eta_zero_gives_mean(self):
        t, mu, _ = compute_threshold([0.2, 0.4, 0.9], DetectionConfig(eta=0.0))
        assert t == mu

    def test_population_sigma_example(self):
        t, mu, sigma = compute_threshold([0.9, 0.8, 1.0], DetectionConfig(eta=2.0))
        assert abs(mu - 0.9) < 1e-15
        assert abs(sigma - np.sqrt(0.02 / 3)) < 1e-15
        assert abs(t - (0.9 - 2 * np.sqrt(0.02 / 3))) < 1e-15
        assert abs(t - 0.736700683) < 1e-9

    def test_explicit_threshold_overrides_rule(self):
        t, _, _ = compute_threshold([0.9, 0.8], DetectionConfig(eta=2.0, explicit_threshold=0.123))
        assert t == 0.123

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            compute_threshold([], DetectionConfig())


def detected(scores, threshold):
    """A DetectOutcome over ids 0..n-1 with the given scores."""
    scores = np.asarray(scores, dtype=np.float64)
    return DetectOutcome(threshold=threshold, mu=0.0, sigma=0.0, ids=np.arange(len(scores)),
                         sims=scores[:, None], scores=scores, metrics=None)


class TestSplit:
    def test_threshold_below_min_keeps_everything_in(self):
        det = detected([0.3, 0.5, 0.9], 0.1)
        assert len(det.in_set) == 3 and not len(det.out_set)

    def test_boundary_score_is_in_class(self):
        det = detected([0.5], 0.5)
        assert len(det.in_set) == 1 and not len(det.out_set)
        assert not out_mask([0.5], 0.5).any()

    def test_thousand_sample_counts_match_counting_oracle(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(-1, 1, size=1000)
        t = 0.2
        det = detected(scores, t)
        n_out = sum(1 for s in scores if s < t)
        assert len(det.out_set) == n_out
        assert len(det.in_set) == 1000 - n_out

    def test_partition_by_ids(self):
        rng = np.random.default_rng(6)
        det = detected(rng.uniform(-1, 1, size=200), 0.0)
        in_ids = set(det.in_set.tolist())
        out_ids = set(det.out_set.tolist())
        assert in_ids | out_ids == set(det.ids.tolist())
        assert not in_ids & out_ids

    def test_raising_threshold_is_monotone(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(-1, 1, size=300)
        low_ids = set(detected(scores, -0.5).out_set.tolist())
        high_ids = set(detected(scores, 0.5).out_set.tolist())
        assert low_ids <= high_ids

    def test_positive_scaling_leaves_sims_scores_split_unchanged(self):
        rng = np.random.default_rng(8)
        projections = rng.standard_normal((40, 5))
        labels = np.tile([1, 2], 20)
        queries = rng.standard_normal((100, 5))

        def pipeline(scale):
            protos = prototypes_from_projections(projections * scale, labels, 2)
            sims = cosine_similarity(queries * scale, protos.matrix())
            scores = sims.max(axis=1)
            t, _, _ = compute_threshold(scores[:10], DetectionConfig(eta=2.0))
            split = scores < t
            return sims, scores, split

        sims1, scores1, split1 = pipeline(1.0)
        sims2, scores2, split2 = pipeline(37.5)
        assert np.abs(sims1 - sims2).max() < 1e-12
        assert np.abs(scores1 - scores2).max() < 1e-12
        assert np.array_equal(split1, split2)


scores_st = st.lists(
    st.floats(-1.0, 1.0) | st.sampled_from([-1.0, 0.0, 0.25, 1.0]), min_size=1, max_size=60
)


class TestSplitProperties:
    @settings(max_examples=200, deadline=None)
    @given(scores=scores_st, threshold=st.floats(-1.5, 1.5))
    def test_split_is_an_exact_partition_of_the_ids(self, scores, threshold):
        det = detected(scores, threshold)
        in_ids, out_ids = det.in_set.tolist(), det.out_set.tolist()
        assert sorted(in_ids + out_ids) == det.ids.tolist()
        assert len(set(in_ids)) == len(in_ids) and len(set(out_ids)) == len(out_ids)
        assert out_ids == [i for i, s in enumerate(scores) if s < threshold]

    @settings(max_examples=200, deadline=None)
    @given(labeled=scores_st, unlabeled=scores_st,
           etas=st.lists(st.floats(0.0, 5.0), min_size=2, max_size=5))
    def test_out_set_grows_as_eta_falls(self, labeled, unlabeled, etas):
        previous = set()
        for eta in sorted(etas, reverse=True):
            t, _, _ = compute_threshold(labeled, DetectionConfig(eta=eta))
            out_ids = set(detected(unlabeled, t).out_set.tolist())
            assert previous <= out_ids
            previous = out_ids


class TestScoredManifest:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        ids = np.arange(20)
        sims = np.stack([rng.uniform(-1, 1, size=3) for _ in ids])
        scores = sims.max(axis=1)
        path = tmp_path / "scored.csv"
        write_scored_manifest(path, ids, sims, scores, threshold=0.1)
        loaded_ids, loaded_sims, loaded_scores, out = read_scored_manifest(path, 3)
        assert np.array_equal(loaded_ids, ids)
        assert np.array_equal(loaded_scores, scores)
        assert np.array_equal(loaded_sims, sims)
        assert np.array_equal(out, scores < 0.1)

    def write(self, tmp_path):
        rng = np.random.default_rng(3)
        sims = np.stack([rng.uniform(-1, 1, size=3) for _ in range(6)])
        path = tmp_path / "scored.csv"
        write_scored_manifest(path, np.arange(6), sims, sims.max(axis=1), threshold=0.5)
        return path, path.read_bytes().decode().split("\r\n")

    def rejects(self, path, text, *expected):
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as err:
            read_scored_manifest(path, 3)
        for part in (str(path),) + expected:
            assert part in str(err.value)

    def test_truncated_last_line_rejected(self, tmp_path):
        # cut inside the last split: "in"/"out" would read back as "i"/"o"
        path, lines = self.write(tmp_path)
        self.rejects(path, "\r\n".join(lines)[:-3], "line 7", "column 'split'", "terminator")

    def test_short_row_rejected(self, tmp_path):
        path, lines = self.write(tmp_path)
        lines[3] = lines[3].rsplit(",", 2)[0]
        self.rejects(path, "\r\n".join(lines), "line 4", "column 'score'", "4 fields")

    def test_long_row_rejected(self, tmp_path):
        path, lines = self.write(tmp_path)
        lines[2] += ",0.5"
        self.rejects(path, "\r\n".join(lines), "line 3", "7 fields")

    def test_unknown_split_rejected(self, tmp_path):
        path, lines = self.write(tmp_path)
        lines[5] = lines[5].rsplit(",", 1)[0] + ",maybe"
        self.rejects(path, "\r\n".join(lines), "line 6", "column 'split'", "'maybe'")

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["sim_2", "score"])
    def test_non_finite_real_rejected_with_line_and_column(self, tmp_path, field, column):
        # a nan score would otherwise read back and count as in-class
        path, lines = self.write(tmp_path)
        cells = lines[4].split(",")
        cells[lines[0].split(",").index(column)] = field
        lines[4] = ",".join(cells)
        self.rejects(path, "\r\n".join(lines),
                     f"{path}: line 5, column '{column}': '{field}' is not a finite real")
