"""Prototype construction and out-of-class detection over the unlabeled pool.

Class prototypes are unnormalized means of labeled projections, computed
once against the frozen pretrained model, as the rows of a (C, d) matrix
(row c - 1 is class c's).  A batch of samples is scored on arrays: one
`cosine_similarity` call gives the (rows x classes) matrix of similarities
to the prototypes, and a row's detection score is its maximum entry.
Samples scoring below t = mu_l - eta * sigma_l (moments of the labeled
scores, population standard deviation) are flagged out-of-class by a
boolean mask; the boundary score itself counts as in-class.
"""

from dataclasses import dataclass

import numpy as np

from .artifacts import INT, REAL, TEXT, one_of, read_table, real_columns, record_line, write_table
from .model import cosine_similarity, forward


@dataclass(frozen=True)
class DetectionConfig:
    eta: float = 2.0
    explicit_threshold: float = None

    def __post_init__(self):
        if not np.isfinite(self.eta) or self.eta < 0:
            raise ValueError("eta must be finite and nonnegative")


def prototypes_from_projections(projections, labels, num_classes):
    """(C, d) matrix of per-class unnormalized means of projection rows:
    row c - 1 is class c's."""
    projections = np.asarray(projections, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    means = []
    for c in range(1, num_classes + 1):
        rows = projections[labels == c]
        if rows.shape[0] == 0:
            raise ValueError(f"class {c} has no labeled samples")
        means.append(rows.mean(axis=0))
    return np.stack(means)


def detection_score(sims):
    """Maximal class-wise similarity: per row of a (n, C) matrix, or of
    one vector."""
    sims = np.asarray(sims, dtype=np.float64)
    if sims.ndim == 0 or sims.shape[-1] == 0:
        raise ValueError("detection_score: empty similarity vector")
    return sims.max(axis=-1)


def score_samples(x, prototypes, model):
    """(sims, scores) of the rows of `x`: the (n, C) cosine matrix of their
    projections to the (C, d) prototype matrix, from one eval-mode forward
    and one `cosine_similarity` call, and each row's detection score."""
    sims = cosine_similarity(forward(model, x, "projection"), prototypes)
    return sims, detection_score(sims)


def compute_threshold(labeled_scores, config):
    """t = mu - eta * sigma over the labeled scores (population sigma)."""
    scores = np.asarray(labeled_scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("need at least one labeled score")
    mu = float(scores.mean())
    sigma = float(np.sqrt(((scores - mu) ** 2).mean()))
    if config.explicit_threshold is not None:
        return float(config.explicit_threshold), mu, sigma
    return mu - config.eta * sigma, mu, sigma


def out_mask(scores, threshold):
    """True where a sample is flagged out-of-class: score < t.  A score
    equal to t is in-class."""
    return np.asarray(scores, dtype=np.float64) < threshold


# ----------------------------------------------------------------------
# scored manifest: sample_id, sim_1..sim_C, score, split in {in, out}
# ----------------------------------------------------------------------


def write_scored_manifest(path, ids, sims, scores, threshold):
    """One row per sample: its id, its (n, C) similarity row, its score and
    its split under `threshold`."""
    sims = np.asarray(sims, dtype=np.float64)
    width = sims.shape[1]
    header = ["sample_id", *(f"sim_{c}" for c in range(1, width + 1)), "score", "split"]
    splits = np.where(out_mask(scores, threshold), "out", "in").tolist()
    rows = ((sid, *row, score, split) for sid, row, score, split
            in zip(np.asarray(ids).tolist(), sims.tolist(), np.asarray(scores).tolist(), splits))
    write_table(path, header, [INT] + [REAL] * (width + 1) + [TEXT], rows)


def read_scored_manifest(path, classes):
    """(ids, sims, scores, out) columns of a scored manifest of `classes`
    prototypes; `out` is the mask of rows whose split reads "out".  Every
    score must be its row's largest similarity: both read back bit for bit."""
    names = [f"sim_{c}" for c in range(1, classes + 1)]
    cols = read_table(path, {"sample_id": int, **dict.fromkeys(names, float), "score": float,
                             "split": one_of("in", "out")})
    sims = real_columns(path, cols, names)
    scores = real_columns(path, cols, ["score"])[:, 0]
    best = detection_score(sims)
    wrong = np.flatnonzero(scores != best)
    if wrong.size:
        row = wrong[0]
        raise ValueError(f"{path}: line {record_line(path, row + 1)}, column 'score': "
                         f"{float(scores[row])!r} is not the row's largest similarity "
                         f"{float(best[row])!r}")
    # a copy: a view would keep the whole table read
    return cols["sample_id"].copy(), sims, scores, cols["split"] == "out"
