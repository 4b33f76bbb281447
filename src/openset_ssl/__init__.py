"""Open-set semi-supervised learning lab: contrastive pretraining,
prototype-based out-of-class detection, soft/pseudo-labeling, and a
combined fine-tuning objective with auxiliary batch normalization,
exercised on synthetic benchmarks.
"""

__version__ = "0.1.0"
