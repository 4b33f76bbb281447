#!/usr/bin/env python3
"""Contrastive pretraining on a clustered pool.

Pretrains the encoder + projection header on unlabeled cluster data and
shows that projections of same-cluster samples end up far more similar
than projections of different-cluster samples.
"""

import numpy as np

from openset_ssl.augment import AugmentConfig
from openset_ssl.contrastive import ContrastiveConfig, pretrain
from openset_ssl.data import BenchmarkSpec, generate
from openset_ssl.model import ModelConfig, build_model, cosine_similarity, forward

spec = BenchmarkSpec(
    dim=16, in_classes=8, out_classes=0, separation=6.0, total_unlabeled=800,
    out_proportion=0.0, labels_per_class=4, test_per_class=0, seed=1,
)
bench = generate(spec)
pool = bench.unlabeled.x
truth = bench.unlabeled.truth

model = build_model(
    ModelConfig(input_dim=16, hidden_dims=(64,), embed_dim=32, proj_dim=16,
                num_classes=8),
    seed=0,
)
config = ContrastiveConfig(
    tau_con=0.5, batch_size=64, steps=300, lr=0.1,
    augment=AugmentConfig(noise_sigma=0.4, mask_fraction=0.0, stream="pretrain.augment"),
)
model, trace = pretrain(model, pool, bench.unlabeled.ids, config, seed=0)

losses = [v for _, v in trace]
print(f"loss: first 10% mean {np.mean(losses[:30]):.3f} -> last 10% mean {np.mean(losses[-30:]):.3f}")

proj = forward(model, pool, "projection")
sims = cosine_similarity(proj, proj)
rng = np.random.default_rng(2)
same, diff = [], []
for _ in range(2000):
    i, j = rng.integers(0, len(pool), size=2)
    (same if truth[i] == truth[j] else diff).append(sims[i, j])
print(f"mean projection similarity, same cluster:      {np.mean(same):+.3f}")
print(f"mean projection similarity, different cluster: {np.mean(diff):+.3f}")
