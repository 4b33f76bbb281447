"""Detection and reporting metrics.

Detection treats out-of-class as the positive class: TPR is the fraction
of out-of-class samples scoring below the threshold, TNR the fraction of
in-class samples at or above it.  AUROC is the probability that a random
in-class score exceeds a random out-of-class score, ties counted half
(rank / Mann-Whitney form), so it is invariant under strictly increasing
transforms of the score.
"""

import numpy as np


def _midranks(values):
    """1-based ranks, tied values sharing the mean rank of their run; NaNs
    sort last and never tie."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    bounds = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(values)])) - 1
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def auroc(scores, is_out):
    """P(random in-class score > random out-of-class score) + ties/2."""
    scores = np.asarray(scores, dtype=np.float64)
    is_out = np.asarray(is_out, dtype=bool)
    n_out = int(is_out.sum())
    n_in = int((~is_out).sum())
    if n_out == 0 or n_in == 0:
        raise ValueError("auroc needs both in-class and out-of-class scores")
    ranks = _midranks(scores)
    in_rank_sum = ranks[~is_out].sum()
    return float((in_rank_sum - n_in * (n_in + 1) / 2.0) / (n_in * n_out))


def tpr_tnr(scores, is_out, threshold):
    """Detection rates at a threshold; positive class is out-of-class."""
    scores = np.asarray(scores, dtype=np.float64)
    is_out = np.asarray(is_out, dtype=bool)
    if not is_out.any() or is_out.all():
        raise ValueError("tpr_tnr needs both in-class and out-of-class scores")
    tpr = float((scores[is_out] < threshold).mean())
    tnr = float((scores[~is_out] >= threshold).mean())
    return {"tpr": tpr, "tnr": tnr}


def median_last_n(accuracies, n):
    """Median of the final n values; an even n averages the middle two."""
    accuracies = list(accuracies)
    if len(accuracies) < n:
        raise ValueError(f"need at least {n} values, got {len(accuracies)}")
    return float(np.median(accuracies[-n:]))


def accuracy(predicted, truth):
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError("prediction/truth length mismatch")
    if predicted.size == 0:
        raise ValueError("empty prediction set")
    return float((predicted == truth).mean())
