"""Open-set semi-supervised learning lab: contrastive pretraining,
prototype-based out-of-class detection, soft/pseudo-labeling, and a
combined fine-tuning objective with auxiliary batch normalization,
exercised on synthetic benchmarks.
"""

from .autodiff import DiffGraph, grad_check
from .model import (
    Model,
    ModelConfig,
    build_model,
    cosine_similarity,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from .augment import AugmentConfig
from .contrastive import (
    ContrastiveConfig,
    ntxent_matrix_loss,
    ntxent_query_loss,
    pretrain,
    simclr_batch_loss,
)
from .detect import (
    DetectionConfig,
    PrototypeSet,
    compute_prototypes,
    compute_threshold,
    detection_score,
    out_mask,
    score_samples,
)
from .labeling import (
    LabelingConfig,
    LinearHead,
    oversample,
    select_topk,
    soft_label,
    train_linear_eval,
)
from .train import SSLConfig, TrainState, aux_only_train
from .data import (
    Benchmark,
    BenchmarkSpec,
    Dataset,
    generate,
    read_dataset,
    sweep_proportions,
    write_dataset,
)
from .metrics import accuracy, auroc, median_last_n, tpr_tnr
from .harness import ExperimentConfig, run_experiment, run_sweep

__version__ = "0.1.0"
