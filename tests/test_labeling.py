"""Soft-labels, linear evaluation, top-k pseudo-labeling, oversampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openset_ssl.labeling import (
    LabelingConfig,
    PseudoLabel,
    oversample,
    read_pseudo_label_manifest,
    read_soft_label_manifest,
    select_topk,
    soft_label,
    train_linear_eval,
    write_pseudo_label_manifest,
    write_soft_label_manifest,
)
from openset_ssl.model import ModelConfig, build_model, forward


class TestSoftLabel:
    def test_equal_sims_give_uniform(self):
        for tau in (0.1, 1.0, 7.0):
            q = soft_label([0.4, 0.4, 0.4, 0.4], tau)
            assert np.abs(q - 0.25).max() < 1e-12

    def test_tau_tenth_example(self):
        q = soft_label([1.0, 0.0], 0.1)
        expect = np.exp([10.0, 0.0])
        expect /= expect.sum()
        assert np.abs(q - expect).max() < 1e-12
        assert abs(q[0] - 0.9999546) < 1e-7

    def test_high_temperature_limit_is_uniform(self):
        rng = np.random.default_rng(0)
        q = soft_label(rng.uniform(-1, 1, size=5), 1e6)
        assert np.abs(q - 0.2).max() < 1e-5

    def test_sums_to_one_and_interior(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = soft_label(rng.uniform(-1, 1, size=6), 0.1)
            assert abs(q.sum() - 1.0) < 1e-12
            assert (q > 0).all() and (q < 1).all()

    def test_argmax_matches_sims_argmax(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            sims = rng.uniform(-1, 1, size=6)
            for tau in (0.05, 0.5, 5.0):
                assert soft_label(sims, tau).argmax() == sims.argmax()

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError):
            soft_label([0.1, 0.2], 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(0, 12), st.integers(1, 20)),
        tau=st.sampled_from([0.05, 0.1, 0.5, 1.0, 7.0]),
        data=st.data(),
    )
    def test_matrix_rows_are_byte_equal_to_per_row_labels(self, shape, tau, data):
        n, c = shape
        sims = np.array(
            data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n * c, max_size=n * c))
        ).reshape(n, c)
        rows = [soft_label(row, tau) for row in sims]
        assert soft_label(sims, tau).tobytes() == np.array(rows).reshape(n, c).tobytes()


def separable_setup(seed=0):
    """Two far-apart input clusters: embeddings are linearly separable."""
    model = build_model(
        ModelConfig(input_dim=4, hidden_dims=(6,), embed_dim=5, proj_dim=3,
                    num_classes=2),
        seed=seed,
    )
    rng = np.random.default_rng(seed + 10)
    x1 = rng.standard_normal((12, 4)) * 0.2 + 5.0
    x2 = rng.standard_normal((12, 4)) * 0.2 - 5.0
    x = np.concatenate([x1, x2])
    y = np.array([1] * 12 + [2] * 12)
    return model, x, y


class TestLinearEval:
    def test_encoder_untouched(self):
        model, x, y = separable_setup()
        before = {k: v.tobytes() for k, v in model.params.items()}
        stats_before = {k: v.tobytes() for k, v in model.stats.items()}
        train_linear_eval(model, x, y, LabelingConfig(linear_eval_steps=50), seed=0)
        assert {k: v.tobytes() for k, v in model.params.items()} == before
        assert {k: v.tobytes() for k, v in model.stats.items()} == stats_before

    def test_separable_embeddings_reach_full_accuracy(self):
        model, x, y = separable_setup()
        head = train_linear_eval(
            model, x, y, LabelingConfig(linear_eval_steps=300, linear_eval_lr=0.5), seed=0
        )
        emb = forward(model, x).embedding
        pred = head.probabilities(emb).argmax(axis=1) + 1
        assert (pred == y).all()

    def test_same_seed_identical_head(self):
        model, x, y = separable_setup()
        cfg = LabelingConfig(linear_eval_steps=40)
        a = train_linear_eval(model, x, y, cfg, seed=3)
        b = train_linear_eval(model, x, y, cfg, seed=3)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()

    def test_empty_labeled_set_rejected(self):
        model, _, _ = separable_setup()
        with pytest.raises(ValueError):
            train_linear_eval(model, np.zeros((0, 4)), np.zeros(0), LabelingConfig(), seed=0)


class TestSelectTopk:
    def setup_method(self):
        self.model, self.x, self.y = separable_setup(seed=1)
        self.head = train_linear_eval(
            self.model, self.x, self.y, LabelingConfig(linear_eval_steps=100), seed=0
        )

    def test_full_fraction_labels_everything(self):
        rng = np.random.default_rng(3)
        pool = rng.standard_normal((10, 4))
        out = select_topk(range(10), pool, self.head, self.model, k_fraction=1.0)
        assert len(out) == 10
        emb = forward(self.model, pool).embedding
        expect = self.head.probabilities(emb).argmax(axis=1) + 1
        assert [p.assigned_class for p in sorted(out, key=lambda p: p.sample_id)] == list(expect)

    def test_ten_percent_of_hundred_is_ten(self):
        rng = np.random.default_rng(4)
        pool = rng.standard_normal((100, 4))
        out = select_topk(range(100), pool, self.head, self.model, k_fraction=0.1)
        assert len(out) == 10

    def test_size_is_ceil(self):
        rng = np.random.default_rng(5)
        pool = rng.standard_normal((7, 4))
        out = select_topk(range(7), pool, self.head, self.model, k_fraction=0.3)
        assert len(out) == math.ceil(0.3 * 7)

    def test_empty_in_set_returns_empty(self):
        assert select_topk([], np.zeros((0, 4)), self.head, self.model, 0.5) == []

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(6)
        pool = rng.standard_normal((40, 4)) * 3
        ids = list(range(100, 140))
        out = select_topk(ids, pool, self.head, self.model, k_fraction=0.25)
        emb = forward(self.model, pool).embedding
        probs = self.head.probabilities(emb)
        conf = probs.max(axis=1)
        ranked = sorted(range(40), key=lambda i: (-conf[i], ids[i]))
        expect_ids = [ids[i] for i in ranked[:10]]
        assert [p.sample_id for p in out] == expect_ids
        assert all(
            a.confidence >= b.confidence for a, b in zip(out, out[1:])
        )

    def test_selected_confidences_dominate_unselected(self):
        rng = np.random.default_rng(7)
        pool = rng.standard_normal((30, 4)) * 3
        out = select_topk(range(30), pool, self.head, self.model, k_fraction=0.2)
        emb = forward(self.model, pool).embedding
        conf = self.head.probabilities(emb).max(axis=1)
        chosen = {p.sample_id for p in out}
        worst_chosen = min(p.confidence for p in out)
        best_rest = max(
            (c for i, c in enumerate(conf) if i not in chosen), default=-np.inf
        )
        assert worst_chosen >= best_rest


class TestOversample:
    def test_unbalanced_pair(self):
        ids = [10, 11, 12, 20]
        labels = [1, 1, 1, 2]
        out = oversample(ids, labels)
        assert sorted(out) == sorted([10, 11, 12, 20, 20, 20])

    def test_balanced_unchanged(self):
        ids = [1, 2, 3, 4]
        labels = [1, 1, 2, 2]
        assert oversample(ids, labels) == ids

    def test_counts_2_3_5_all_become_5(self):
        ids = list(range(10))
        labels = [1, 1, 2, 2, 2, 3, 3, 3, 3, 3]
        out = oversample(ids, labels)
        assert len(out) == 15
        by_class = {1: 0, 2: 0, 3: 0}
        for sid in out:
            by_class[labels[ids.index(sid)]] += 1
        assert by_class == {1: 5, 2: 5, 3: 5}

    def test_round_robin_order_is_deterministic(self):
        ids = [5, 3, 9]
        labels = [1, 1, 2]
        out = oversample(ids, labels)
        assert out == [5, 3, 9, 9]  # class 2 replays ascending ids

    def test_preserves_distinct_members(self):
        rng = np.random.default_rng(8)
        ids = list(range(30))
        labels = list(rng.integers(1, 4, size=30))
        out = oversample(ids, labels)
        assert set(out) == set(ids)


class TestManifests:
    def test_soft_label_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        ids = [3, 7, 11]
        labels = [soft_label(rng.uniform(-1, 1, size=4), 0.1) for _ in ids]
        path = tmp_path / "soft.csv"
        write_soft_label_manifest(path, ids, labels)
        rids, rlabels = read_soft_label_manifest(path)
        assert rids == ids
        for a, b in zip(labels, rlabels):
            assert np.array_equal(a, b)

    def test_pseudo_label_roundtrip(self, tmp_path):
        from openset_ssl.labeling import PseudoLabel

        pseudo = [
            PseudoLabel(sample_id=4, assigned_class=2, confidence=0.75),
            PseudoLabel(sample_id=9, assigned_class=1, confidence=0.5),
        ]
        path = tmp_path / "pseudo.csv"
        write_pseudo_label_manifest(path, pseudo)
        loaded = read_pseudo_label_manifest(path)
        assert loaded == pseudo

    def write_both(self, tmp_path):
        rng = np.random.default_rng(4)
        ids = list(range(10, 20))
        soft = tmp_path / "softlabels.csv"
        write_soft_label_manifest(soft, ids, [soft_label(rng.uniform(-1, 1, 4), 0.1)
                                              for _ in ids])
        pseudo = tmp_path / "pseudolabels.csv"
        write_pseudo_label_manifest(
            pseudo, [PseudoLabel(i, 1 + i % 3, float(rng.uniform())) for i in ids]
        )
        return soft, pseudo

    @pytest.mark.parametrize("which", ["soft", "pseudo"])
    def test_truncated_manifest_rejected_by_name(self, tmp_path, which):
        soft, pseudo = self.write_both(tmp_path)
        path, read = {
            "soft": (soft, read_soft_label_manifest),
            "pseudo": (pseudo, read_pseudo_label_manifest),
        }[which]
        path.write_bytes(path.read_bytes()[:-30])
        with pytest.raises(ValueError) as err:
            read(path)
        assert str(err.value).startswith(f"{path}: line ")

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_soft_label_rejected_with_line_and_column(self, tmp_path, field):
        soft, _ = self.write_both(tmp_path)
        lines = soft.read_bytes().decode().split("\r\n")
        cells = lines[6].split(",")
        cells[3] = field  # q_3 of the sixth row
        lines[6] = ",".join(cells)
        soft.write_bytes("\r\n".join(lines).encode())
        with pytest.raises(ValueError) as err:
            read_soft_label_manifest(soft)
        assert str(err.value) == f"{soft}: line 7, column 'q_3': '{field}' is not a finite real"

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_confidence_rejected_with_line_and_column(self, tmp_path, field):
        _, pseudo = self.write_both(tmp_path)
        lines = pseudo.read_bytes().decode().split("\r\n")
        lines[4] = lines[4].rsplit(",", 1)[0] + "," + field  # the fourth row's confidence
        pseudo.write_bytes("\r\n".join(lines).encode())
        with pytest.raises(ValueError) as err:
            read_pseudo_label_manifest(pseudo)
        assert str(err.value) == (
            f"{pseudo}: line 5, column 'confidence': '{field}' is not a finite real"
        )

    def test_unparsable_field_named(self, tmp_path):
        _, pseudo = self.write_both(tmp_path)
        lines = pseudo.read_bytes().decode().split("\r\n")
        lines[2] = "11,two,0.5"
        pseudo.write_bytes("\r\n".join(lines).encode())
        with pytest.raises(ValueError) as err:
            read_pseudo_label_manifest(pseudo)
        assert f"{pseudo}: line 3, column 'assigned_class'" in str(err.value)
