"""Prototype construction and out-of-class detection over the unlabeled pool.

Class prototypes are unnormalized means of labeled projections, computed
once against the frozen pretrained model.  A batch of samples is scored
on arrays: one `cosine_similarity` call gives the (rows x classes) matrix
of similarities to the prototypes, and a row's detection score is its
maximum entry.  Samples scoring below t = mu_l - eta * sigma_l (moments
of the labeled scores, population standard deviation) are flagged
out-of-class by a boolean mask; the boundary score itself counts as
in-class.
"""

from dataclasses import dataclass

import numpy as np

from .artifacts import INT, REAL, TEXT, one_of, read_table, real_columns, write_table
from .model import cosine_similarity, forward


@dataclass(frozen=True)
class DetectionConfig:
    eta: float = 2.0
    explicit_threshold: float = None

    def __post_init__(self):
        if not np.isfinite(self.eta) or self.eta < 0:
            raise ValueError("eta must be finite and nonnegative")


@dataclass
class PrototypeSet:
    prototypes: dict  # class id (1..C) -> projection-space mean vector
    counts: dict  # class id -> number of labeled samples averaged

    @property
    def class_ids(self):
        return sorted(self.prototypes)

    def matrix(self):
        return np.stack([self.prototypes[c] for c in self.class_ids])


def project(model, x):
    """Eval-mode main-branch projections g(f_e(x)) for a feature matrix."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return forward(model, x, branch="main", mode="eval", heads=("projection",)).projection


def prototypes_from_projections(projections, labels, num_classes):
    """Per-class unnormalized mean of projection rows."""
    projections = np.asarray(projections, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    prototypes, counts = {}, {}
    for c in range(1, num_classes + 1):
        rows = projections[labels == c]
        if rows.shape[0] == 0:
            raise ValueError(f"class {c} has no labeled samples")
        prototypes[c] = rows.mean(axis=0)
        counts[c] = int(rows.shape[0])
    return PrototypeSet(prototypes=prototypes, counts=counts)


def compute_prototypes(labeled_x, labeled_y, model, num_classes=None):
    """Prototype set from labeled features through the frozen model."""
    if num_classes is None:
        num_classes = model.config.num_classes
    return prototypes_from_projections(
        project(model, labeled_x), labeled_y, num_classes
    )


def detection_score(sims):
    """Maximal class-wise similarity: per row of a (n, C) matrix, or of
    one vector."""
    sims = np.asarray(sims, dtype=np.float64)
    if sims.ndim == 0 or sims.shape[-1] == 0:
        raise ValueError("detection_score: empty similarity vector")
    return sims.max(axis=-1)


def score_samples(x, prototypes, model):
    """(sims, scores) of the rows of `x`: the (n, C) cosine matrix of their
    projections to the prototypes, from one eval-mode forward and one
    `cosine_similarity` call, and each row's detection score."""
    if not prototypes.prototypes:
        raise ValueError("prototype set is empty")
    sims = cosine_similarity(project(model, x), prototypes.matrix())
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
    prototypes; `out` is the mask of rows whose split reads "out"."""
    names = [f"sim_{c}" for c in range(1, classes + 1)]
    cols = read_table(path, {"sample_id": int, **dict.fromkeys(names, float), "score": float,
                             "split": one_of("in", "out")})
    sims = real_columns(path, cols, names)
    scores = real_columns(path, cols, ["score"])[:, 0]
    # a copy: a view would keep the whole table read
    return cols["sample_id"].copy(), sims, scores, cols["split"] == "out"
