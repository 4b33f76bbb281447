"""Rank-based AUROC, thresholded rates, and the median reporting rule."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_midranks
from openset_ssl.metrics import _midranks, auroc, median_last_n, tpr_tnr


def pairwise_auroc(scores, is_out):
    """O(n^2) oracle: count in > out pairs, ties half."""
    ins = [s for s, o in zip(scores, is_out) if not o]
    outs = [s for s, o in zip(scores, is_out) if o]
    total = 0.0
    for a in ins:
        for b in outs:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(ins) * len(outs))


class TestAuroc:
    def test_perfect_separation(self):
        scores = [0.9, 0.8, 0.7, 0.2, 0.1]
        is_out = [False, False, False, True, True]
        assert auroc(scores, is_out) == 1.0

    def test_all_ties_is_half(self):
        assert auroc([0.5] * 6, [True, False] * 3) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            scores = np.round(rng.uniform(-1, 1, size=20), 1)  # force ties
            is_out = rng.random(20) < 0.4
            if is_out.all() or not is_out.any():
                continue
            assert abs(auroc(scores, is_out) - pairwise_auroc(scores, is_out)) < 1e-12

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(-1, 1, size=50)
        is_out = rng.random(50) < 0.5
        is_out[0], is_out[1] = True, False
        assert auroc(scores, is_out) == auroc(2 * scores + 1, is_out)

    def test_one_class_absent_rejected(self):
        with pytest.raises(ValueError):
            auroc([0.1, 0.2], [True, True])
        with pytest.raises(ValueError):
            auroc([0.1, 0.2], [False, False])


class TestMidranks:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([0.0, -0.0, 0.5, 1.0, np.nan]) | st.floats(allow_nan=True),
            max_size=80,
        )
    )
    @example(values=[])
    @example(values=[0.25])
    @example(values=[0.5] * 50)
    @example(values=[np.nan, 1.0, np.nan, 1.0, 0.0, -0.0])
    def test_byte_equal_to_scan_reference(self, values):
        values = np.array(values, dtype=np.float64)
        assert _midranks(values).tobytes() == reference_midranks(values).tobytes()

    def test_heavy_ties_give_half_integer_ranks(self):
        values = np.repeat([3.0, 1.0, 2.0], [4, 3, 1])
        assert _midranks(values).tolist() == [6.5] * 4 + [2.0] * 3 + [4.0]


class TestTprTnr:
    def test_threshold_above_max_flags_everything_out(self):
        rates = tpr_tnr([0.1, 0.5, 0.9], [True, False, True], threshold=1.5)
        assert rates["tpr"] == 1.0
        assert rates["tnr"] == 0.0

    def test_threshold_below_min_keeps_everything_in(self):
        rates = tpr_tnr([0.1, 0.5, 0.9], [True, False, True], threshold=-0.5)
        assert rates["tnr"] == 1.0
        assert rates["tpr"] == 0.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(-1, 1, size=200)
        is_out = rng.random(200) < 0.3
        is_out[0], is_out[1] = True, False
        t = 0.12
        rates = tpr_tnr(scores, is_out, t)
        tp = sum(1 for s, o in zip(scores, is_out) if o and s < t)
        tn = sum(1 for s, o in zip(scores, is_out) if not o and s >= t)
        assert rates["tpr"] == tp / is_out.sum()
        assert rates["tnr"] == tn / (~is_out).sum()

    def test_opposite_monotonicity_in_threshold(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(-1, 1, size=100)
        is_out = rng.random(100) < 0.5
        is_out[0], is_out[1] = True, False
        thresholds = np.linspace(-1.1, 1.1, 12)
        tprs = [tpr_tnr(scores, is_out, t)["tpr"] for t in thresholds]
        tnrs = [tpr_tnr(scores, is_out, t)["tnr"] for t in thresholds]
        assert all(a <= b + 1e-15 for a, b in zip(tprs, tprs[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(tnrs, tnrs[1:]))

    def test_one_class_absent_rejected(self):
        with pytest.raises(ValueError):
            tpr_tnr([0.1], [True], 0.0)


class TestMedianLastN:
    def test_constant_sequence(self):
        assert median_last_n([0.7] * 9, 5) == 0.7

    def test_odd_window(self):
        accs = [0.9, 0.9, 0.1, 0.2, 0.3, 0.4, 0.5]
        assert median_last_n(accs, 5) == 0.3

    def test_even_window_averages_middles(self):
        assert median_last_n([0.1, 0.2, 0.4, 0.8], 4) == pytest.approx(0.3)

    def test_too_few_entries_rejected(self):
        with pytest.raises(ValueError):
            median_last_n([0.1, 0.2], 5)
