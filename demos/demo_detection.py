#!/usr/bin/env python3
"""Out-of-class detection end to end.

Pretrains on a mixed pool (80% of the unlabeled samples come from novel
classes), builds class prototypes from the few labeled samples, scores
the pool, applies the mu - 2 sigma threshold, and evaluates the split
against the hidden ground truth.
"""

import numpy as np

from openset_ssl.augment import AugmentConfig
from openset_ssl.contrastive import ContrastiveConfig, pretrain
from openset_ssl.data import BenchmarkSpec, generate
from openset_ssl.detect import (
    DetectionConfig,
    compute_threshold,
    detection_score,
    out_mask,
    prototypes_from_projections,
    score_samples,
)
from openset_ssl.metrics import auroc, tpr_tnr
from openset_ssl.model import ModelConfig, build_model, cosine_similarity, forward

spec = BenchmarkSpec(
    dim=16, in_classes=8, out_classes=8, separation=6.0,
    correlation_mode="independent", total_unlabeled=2000, out_proportion=0.8,
    labels_per_class=25, test_per_class=0, seed=0,
)
bench = generate(spec)
model = build_model(
    ModelConfig(input_dim=16, hidden_dims=(64, 64), embed_dim=64, proj_dim=32,
                num_classes=8),
    seed=0,
)
config = ContrastiveConfig(
    tau_con=0.5, batch_size=64, steps=600, lr=0.1,
    augment=AugmentConfig(noise_sigma=0.4, mask_fraction=0.0, stream="pretrain.augment"),
)
pool = np.concatenate([bench.labeled.x, bench.unlabeled.x])
ids = np.concatenate([bench.labeled.ids, bench.unlabeled.ids])
model, _ = pretrain(model, pool, ids, config, seed=0)

labeled = forward(model, bench.labeled.x, "projection")
protos = prototypes_from_projections(labeled, bench.labeled.label, spec.in_classes)
labeled_scores = detection_score(cosine_similarity(labeled, protos))
threshold, mu, sigma = compute_threshold(labeled_scores, DetectionConfig(eta=2.0))
print(f"labeled scores: mu={mu:.3f} sigma={sigma:.3f} -> threshold t={threshold:.3f}")

_, scores = score_samples(bench.unlabeled.x, protos, model)
out = out_mask(scores, threshold)
print(f"split: {(~out).sum()} detected in-class, {out.sum()} detected out-of-class")

is_out = bench.unlabeled.origin == "out"
rates = tpr_tnr(scores, is_out, threshold)
print(f"against hidden truth: AUROC={auroc(scores, is_out):.3f} "
      f"TPR={rates['tpr']:.3f} TNR={rates['tnr']:.3f}")
