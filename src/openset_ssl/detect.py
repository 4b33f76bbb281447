"""Prototype construction and out-of-class detection over the unlabeled pool.

Class prototypes are unnormalized means of labeled projections, computed
once against the frozen pretrained model.  Each unlabeled sample receives
a vector of class-wise cosine similarities; its detection score is the
maximum entry.  Samples scoring below t = mu_l - eta * sigma_l (moments of
the labeled scores, population standard deviation) are flagged
out-of-class; the boundary score itself counts as in-class.
"""

from dataclasses import dataclass

import numpy as np

from .artifacts import INT, REAL, TEXT, one_of, read_table, write_table
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


@dataclass
class ScoredSample:
    sample_id: int
    sims: np.ndarray
    score: float


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


def sims_from_projection(projection, prototypes):
    return np.array(
        [cosine_similarity(projection, prototypes.prototypes[c]) for c in prototypes.class_ids]
    )


def class_similarities(x, prototypes, model):
    """Cosine similarity of g(f_e(x)) to every class prototype."""
    if not prototypes.prototypes:
        raise ValueError("prototype set is empty")
    return sims_from_projection(project(model, x)[0], prototypes)


def detection_score(sims):
    """Maximal class-wise similarity."""
    sims = np.asarray(sims, dtype=np.float64)
    if sims.size == 0:
        raise ValueError("detection_score: empty similarity vector")
    return float(sims.max())


def score_samples(ids, x, prototypes, model):
    """ScoredSample per row, batched through one eval-mode forward."""
    projections = project(model, x)
    out = []
    for sid, p in zip(ids, projections):
        sims = sims_from_projection(p, prototypes)
        out.append(ScoredSample(sample_id=int(sid), sims=sims, score=detection_score(sims)))
    return out


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


def split_unlabeled(scored, threshold):
    """Partition scored samples: score < t -> out, score >= t -> in."""
    inside, outside = [], []
    for s in scored:
        (outside if s.score < threshold else inside).append(s)
    return inside, outside


# ----------------------------------------------------------------------
# scored manifest: sample_id, sim_1..sim_C, score, split in {in, out}
# ----------------------------------------------------------------------


def write_scored_manifest(path, scored, threshold):
    width = len(scored[0].sims) if scored else 0
    header = ["sample_id", *(f"sim_{c}" for c in range(1, width + 1)), "score", "split"]
    rows = ((s.sample_id, *s.sims.tolist(), s.score, "out" if s.score < threshold else "in")
            for s in scored)
    write_table(path, header, [INT] + [REAL] * (width + 1) + [TEXT], rows)


def read_scored_manifest(path):
    cols = read_table(path, {"sample_id": int, "split": one_of("in", "out")}, default=float)
    ids, sims = cols["sample_id"], [cols[name] for name in list(cols)[1:-2]]
    sims = np.array(sims, dtype=np.float64).reshape(len(sims), len(ids)).T.copy()
    scored = [ScoredSample(*row) for row in zip(ids, sims, cols["score"])]
    return scored, dict(zip(ids, cols["split"]))
