"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
pinned here; the heavyweight criteria (6-9) run the real pipeline on the
calibrated desk-scale benchmarks and share pretrained models per seed
where the protocol allows it.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    nudge_into_generic_position,
    combined_param_gradcheck,
    relu_kink_margin,
    scalar_fn,
)
from openset_ssl.augment import AugmentConfig, augment_batch
from openset_ssl.autodiff import grad_check
from openset_ssl.contrastive import ContrastiveConfig, simclr_batch_loss
from openset_ssl.data import BenchmarkSpec, generate, read_dataset, write_dataset
from openset_ssl.detect import (
    DetectionConfig,
    compute_threshold,
    out_mask,
    prototypes_from_projections,
)
from openset_ssl.harness import (
    ExperimentConfig,
    ModelShape,
    prepare_benchmark,
    run_experiment,
    stage_detect,
    stage_label,
    stage_pretrain,
    stage_train,
    strip_timings,
)
from openset_ssl.labeling import (
    LabelingConfig,
    oversample,
    select_topk,
    soft_label,
    train_linear_eval,
)
from openset_ssl.metrics import median_last_n
from openset_ssl.model import (
    ModelConfig,
    build_model,
    cosine_similarity,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from openset_ssl.train import (
    SSLConfig,
    StepPlan,
    aux_only_train,
    build_step_loss,
    evaluate_accuracy,
    init_train_state,
    one_hot,
    prepare_consistency,
    train,
)

# ----------------------------------------------------------------------
# calibrated desk-scale configurations
# ----------------------------------------------------------------------

ARCH = ModelShape(hidden_dims=(64, 64), embed_dim=64, proj_dim=32)

PRETRAIN_AUG = AugmentConfig(
    noise_sigma=0.4, jitter_range=(0.8, 1.2), mask_fraction=0.0, stream="pretrain.augment"
)

# criterion 6 benchmark: well separated, out-classes drawn independently
DETECT_BENCH = BenchmarkSpec(
    dim=16, in_classes=8, out_classes=8, separation=6.0,
    correlation_mode="independent", total_unlabeled=5000, out_proportion=0.8,
    labels_per_class=25, test_per_class=125, seed=0,
)
DETECT_PRETRAIN = ContrastiveConfig(
    tau_con=0.5, batch_size=128, steps=2000, lr=0.15, augment=PRETRAIN_AUG
)

# criteria 7 and 9 benchmark: harder geometry with related out-classes
SWEEP_BENCH = BenchmarkSpec(
    dim=16, in_classes=8, out_classes=8, separation=4.0,
    correlation_mode="related", total_unlabeled=1500, out_proportion=0.8,
    labels_per_class=25, test_per_class=125, seed=0,
)
SWEEP_PRETRAIN = ContrastiveConfig(
    tau_con=0.5, batch_size=64, steps=700, lr=0.1, augment=PRETRAIN_AUG
)
SWEEP_SSL = SSLConfig(
    backend="consistency", beta=4.0, lam=0.5, batch_size=64, steps=400,
    lr=0.05, cosine_decay=True, detect=True, aux_loss=True, aux_bn=True,
    topk_pl=True,
    augment=AugmentConfig(noise_sigma=0.8, jitter_range=(0.8, 1.2),
                          mask_fraction=0.0, stream="train.augment"),
)

# criterion 8 fine-tuning on the criterion-6 benchmark with 4 labels/class
CHAIN_SSL = SSLConfig(
    backend="consistency", beta=3.0, lam=0.5, batch_size=64, steps=300,
    lr=0.05, cosine_decay=True,
    augment=AugmentConfig(noise_sigma=0.5, jitter_range=(0.8, 1.2),
                          mask_fraction=0.0, stream="train.augment"),
)

LABELING = LabelingConfig(
    tau_sl=0.1, k_fraction=0.1, linear_eval_steps=300, linear_eval_lr=0.5
)

TOGGLE_CHAIN = (
    ("none", dict(detect=False, aux_loss=False, aux_bn=False, topk_pl=False)),
    ("detect", dict(detect=True, aux_loss=False, aux_bn=False, topk_pl=False)),
    ("detect+aux_loss", dict(detect=True, aux_loss=True, aux_bn=False, topk_pl=False)),
    ("+aux_bn", dict(detect=True, aux_loss=True, aux_bn=True, topk_pl=False)),
    ("+topk_pl", dict(detect=True, aux_loss=True, aux_bn=True, topk_pl=True)),
)

_pretrained_cache = {}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def experiment_config(out_dir, bench, pretrain_cfg, ssl_cfg, seed):
    steps = ssl_cfg.steps
    return ExperimentConfig(
        seed=seed,
        out_dir=str(out_dir),
        benchmark=bench,
        model=ARCH,
        contrastive=pretrain_cfg,
        detection=DetectionConfig(eta=2.0),
        labeling=LABELING,
        ssl=ssl_cfg,
        checkpoint_interval=ssl_cfg.batch_size * max(1, steps // 20),
        checkpoint_count=20,
        median_last=5,
    )


def pretrained_for(workdir, name, cfg):
    """Benchmark + pretrained model, shared across toggle variants."""
    if name not in _pretrained_cache:
        bench = prepare_benchmark(cfg)
        model = stage_pretrain(cfg, bench)
        _pretrained_cache[name] = (bench, model)
    bench, model = _pretrained_cache[name]
    return bench, model.copy()


def run_variant(cfg, bench, model, toggles):
    cfg = replace(cfg, ssl=replace(cfg.ssl, **toggles))
    det = stage_detect(cfg, bench, model)
    pseudo = stage_label(cfg, bench, model, det)
    state = stage_train(cfg, bench, model.copy(), det, pseudo)
    return median_last_n(state.checkpoint_accuracies, 5), det, pseudo


def report_line(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


# ----------------------------------------------------------------------
# 1. differentiation soundness
# ----------------------------------------------------------------------


def test_criterion_01_differentiation_soundness():
    start = time.perf_counter()
    worst_kind = 0.0

    def check(build, point, weights=None):
        nonlocal worst_kind
        worst_kind = max(worst_kind, grad_check(scalar_fn(build, weights), point, eps=1e-6))

    rng = np.random.default_rng(42)
    a43 = rng.standard_normal((4, 3))
    b32 = rng.standard_normal((3, 2))
    w42 = rng.standard_normal((4, 2))
    w43 = rng.standard_normal((4, 3))
    w45 = rng.standard_normal((4, 5))
    check(lambda g, x: g.apply("matmul", [x, g.input(b32)]), a43, w42)
    check(lambda g, x: g.apply("matmul", [g.input(a43), x], transpose_b=True),
          rng.standard_normal((5, 3)), w45)
    check(lambda g, x: g.apply("add", [x, g.input(a43)]), rng.standard_normal((4, 3)), w43)
    check(lambda g, x: g.apply("add", [g.input(a43), x]), rng.standard_normal((1, 3)), w43)
    check(lambda g, x: g.apply("scale", [x], factor=-1.7), rng.standard_normal((4, 3)), w43)
    kink_free = rng.uniform(-1, 1, size=(4, 3))
    kink_free += np.sign(kink_free) * 1e-2
    check(lambda g, x: g.apply("relu", [x]), kink_free, w43)
    rng.standard_normal((4, 3))  # the removed `mean` kind's point; later points stay put
    rng.standard_normal((4, 3))  # the removed `sum` kind's point
    check(lambda g, x: g.apply("exp", [x]), rng.uniform(-1, 1, size=(4, 3)), w43)
    check(lambda g, x: g.apply("log", [x]), rng.uniform(0.5, 2.0, size=(4, 3)), w43)
    rng.standard_normal((4, 5))  # the removed `softmax-rows` kind's point
    l2_point = rng.standard_normal((4, 3))
    l2_point += np.sign(l2_point) * 0.1
    check(lambda g, x: g.apply("l2-normalize-rows", [x]), l2_point, w43)
    check(lambda g, x: g.apply("elementwise-mul", [x, g.input(a43)]),
          rng.standard_normal((4, 3)), w43)
    check(lambda g, x: g.apply("elementwise-mul", [g.input(a43), x]),
          rng.standard_normal((1, 3)), w43)
    for shape in ((2, 3), (2, 3), (5, 3), (3, 3)):  # removed concat-rows, slice-rows points
        rng.standard_normal(shape)
    check(lambda g, x: g.apply("batch-norm", [x], eps=1e-5),
          np.random.default_rng(43).standard_normal((4, 3)), w43)
    ce_rng = np.random.default_rng(44)
    ce_targets = ce_rng.uniform(0.0, 1.0, size=(4, 5))
    check(lambda g, x: g.apply("softmax-cross-entropy", [x], targets=ce_targets),
          ce_rng.standard_normal((4, 5)))

    # full combined loss on the 2-class, 8-dimensional toy model
    model = build_model(
        ModelConfig(input_dim=8, hidden_dims=(6,), embed_dim=5, proj_dim=4, num_classes=2),
        seed=3,
    )
    nudge_into_generic_position(model, seed=30)
    x_l = rng.standard_normal((3, 8))
    y_l = one_hot(rng.integers(1, 3, size=3), 2)
    u_x = rng.standard_normal((3, 8))
    o_x = rng.standard_normal((3, 8))
    o_q = rng.uniform(0.1, 1.0, size=(3, 2))
    o_q /= o_q.sum(axis=1, keepdims=True)
    config = SSLConfig(beta=0.8, lam=0.5, aux_bn=True, batch_size=4, steps=1,
                       augment=AugmentConfig(noise_sigma=0.2, stream="train.augment"))
    cons_x, cons_t = prepare_consistency(model, u_x, [0, 1, 2], config, 0, 0)
    plan = StepPlan(labeled_x=x_l, labeled_q=y_l, cons_x=cons_x, cons_targets=cons_t,
                    out_x=o_x, out_q=o_q)
    margin = relu_kink_margin(build_step_loss(model, plan, config))
    worst_full = combined_param_gradcheck(model, plan, config)
    elapsed = time.perf_counter() - start

    ok = worst_kind < 1e-4 and worst_full < 1e-4 and margin >= 1e-3 and elapsed < 60
    report_line(
        1, ok,
        f"per-kind max err {worst_kind:.2e} < 1e-4, full-loss max err "
        f"{worst_full:.2e} < 1e-4 (kink margin {margin:.1e}), {elapsed:.1f}s < 60s",
    )


# ----------------------------------------------------------------------
# 2. contrastive oracle equivalence
# ----------------------------------------------------------------------


def brute_force_pair_loss(projections, tau):
    def cos(u, v):
        nu = np.sqrt((u * u).sum())
        nv = np.sqrt((v * v).sum())
        if nu < 1e-12 or nv < 1e-12:
            return 0.0
        return float((u * v).sum() / (nu * nv))

    two_n = len(projections)
    n = two_n // 2
    total = 0.0
    for q in range(two_n):
        pos = (q + n) % two_n
        numer = np.exp(cos(projections[q], projections[pos]) / tau)
        denom = sum(
            np.exp(cos(projections[q], projections[i]) / tau)
            for i in range(two_n)
            if i != q
        )
        total += -np.log(numer / denom)
    return total / two_n


def test_criterion_02_contrastive_oracle_equivalence():
    rng = np.random.default_rng(7)
    cfg = ContrastiveConfig(
        tau_con=0.5, batch_size=4, steps=0, lr=0.1,
        augment=AugmentConfig(noise_sigma=0.3, stream="pretrain.augment"),
    )
    worst = 0.0
    for n in (1, 2, 3, 4):
        model = build_model(
            ModelConfig(input_dim=6, hidden_dims=(8,), embed_dim=5, proj_dim=4), seed=n
        )
        batch = rng.standard_normal((n, 6))
        loss = simclr_batch_loss(model, batch, cfg, seed=9, step=0)
        twin = build_model(
            ModelConfig(input_dim=6, hidden_dims=(8,), embed_dim=5, proj_dim=4), seed=n
        )
        v1 = augment_batch(batch, range(n), cfg.augment, 9, 0, 0)
        v2 = augment_batch(batch, range(n), cfg.augment, 9, 0, 1)
        projections = forward(
            twin, np.concatenate([v1, v2]), branch="main", mode="train"
        ).projection
        worst = max(worst, abs(loss.value - brute_force_pair_loss(list(projections), 0.5)))
        if n == 1:
            n1_loss = loss.value

    from openset_ssl.model import GraphBuilder
    from openset_ssl.contrastive import ntxent_matrix_loss

    builder = GraphBuilder(build_model(ModelConfig(input_dim=2, num_classes=2), seed=0))
    z = builder.const(np.tile([0.6, 0.8], (4, 1)))
    identical = float(builder.graph.value(ntxent_matrix_loss(builder, z, 0.5)))

    ok = worst < 1e-10 and n1_loss == 0.0 and abs(identical - np.log(3.0)) < 1e-10
    report_line(
        2, ok,
        f"batch losses match brute force within {worst:.1e} (< 1e-10), "
        f"N=1 loss {n1_loss} == 0, all-identical case |loss - log 3| = "
        f"{abs(identical - np.log(3.0)):.1e} < 1e-10",
    )


# ----------------------------------------------------------------------
# 3. detection pipeline exactness
# ----------------------------------------------------------------------


def test_criterion_03_detection_exactness():
    rng = np.random.default_rng(11)
    num_classes = 8
    labeled_proj = rng.standard_normal((40, 12))
    labeled_y = np.tile(np.arange(1, 9), 5)
    unlabeled_proj = rng.standard_normal((1000, 12))

    worst = 0.0

    protos = prototypes_from_projections(labeled_proj, labeled_y, num_classes)
    for c in range(1, num_classes + 1):
        acc = np.zeros(12)
        count = 0
        for p, y in zip(labeled_proj, labeled_y):
            if y == c:
                acc = acc + p
                count += 1
        worst = max(worst, np.abs(protos.prototypes[c] - acc / count).max())

    sims = cosine_similarity(unlabeled_proj, protos.matrix())
    for i in rng.choice(1000, size=50, replace=False):
        p = unlabeled_proj[i]
        for j, c in enumerate(protos.class_ids):
            v = protos.prototypes[c]
            oracle = (p * v).sum() / np.sqrt((p * p).sum() * (v * v).sum())
            worst = max(worst, abs(sims[i, j] - oracle))

    scores = sims.max(axis=1)
    for i in range(1000):
        worst = max(worst, abs(scores[i] - sorted(sims[i])[-1]))

    labeled_sims = cosine_similarity(labeled_proj, protos.matrix())
    labeled_scores = labeled_sims.max(axis=1)
    t, mu, sigma = compute_threshold(labeled_scores, DetectionConfig(eta=2.0))
    mu_o = sum(labeled_scores) / len(labeled_scores)
    sigma_o = np.sqrt(sum((s - mu_o) ** 2 for s in labeled_scores) / len(labeled_scores))
    worst = max(worst, abs(t - (mu_o - 2.0 * sigma_o)), abs(mu - mu_o), abs(sigma - sigma_o))

    ids = np.arange(1000)
    out = out_mask(scores, t)
    inside, outside = ids[~out], ids[out]
    n_out_oracle = sum(1 for s in scores if s < t)
    exact_partition = (
        len(outside) == n_out_oracle
        and len(inside) + len(outside) == 1000
        and not (set(inside.tolist()) & set(outside.tolist()))
    )

    protos_scaled = prototypes_from_projections(labeled_proj * 41.0, labeled_y, num_classes)
    sims_scaled = cosine_similarity(unlabeled_proj * 41.0, protos_scaled.matrix())
    scale_dev = np.abs(sims - sims_scaled).max()
    t_scaled, _, _ = compute_threshold(
        cosine_similarity(labeled_proj * 41.0, protos_scaled.matrix()).max(axis=1),
        DetectionConfig(eta=2.0),
    )
    split_same = np.array_equal(scores < t, sims_scaled.max(axis=1) < t_scaled)

    ok = worst < 1e-12 and exact_partition and scale_dev < 1e-12 and split_same
    report_line(
        3, ok,
        f"prototype/similarity/score/threshold deviations {worst:.1e} < 1e-12, "
        f"split is an exact partition ({len(inside)}/{len(outside)}), "
        f"positive-scaling invariance {scale_dev:.1e} < 1e-12",
    )


# ----------------------------------------------------------------------
# 4. labeling exactness
# ----------------------------------------------------------------------


def test_criterion_04_labeling_exactness():
    rng = np.random.default_rng(13)

    sum_dev = 0.0
    argmax_ok = True
    for _ in range(200):
        sims = rng.uniform(-1, 1, size=8)
        q = soft_label(sims, 0.1)
        sum_dev = max(sum_dev, abs(q.sum() - 1.0))
        argmax_ok = argmax_ok and q.argmax() == sims.argmax()

    model = build_model(
        ModelConfig(input_dim=4, hidden_dims=(6,), embed_dim=5, proj_dim=3, num_classes=2),
        seed=1,
    )
    lab_x = np.concatenate(
        [rng.standard_normal((12, 4)) + 4, rng.standard_normal((12, 4)) - 4]
    )
    lab_y = np.array([1] * 12 + [2] * 12)
    head = train_linear_eval(model, lab_x, lab_y, LABELING, seed=0)
    pool = rng.standard_normal((43, 4)) * 3
    ids = list(range(100, 143))
    picked = select_topk(ids, pool, head, model, k_fraction=0.25)
    emb = forward(model, pool).embedding
    conf = head.probabilities(emb).max(axis=1)
    order = sorted(range(43), key=lambda i: (-conf[i], ids[i]))
    expected_ids = [ids[i] for i in order[: int(np.ceil(0.25 * 43))]]
    topk_ok = [p.sample_id for p in picked] == expected_ids

    ids2 = list(range(10))
    labels2 = [1, 1, 2, 2, 2, 3, 3, 3, 3, 3]
    balanced = oversample(ids2, labels2)
    counts = {}
    for sid in balanced:
        counts[labels2[ids2.index(sid)]] = counts.get(labels2[ids2.index(sid)], 0) + 1
    oversample_ok = counts == {1: 5, 2: 5, 3: 5} and len(balanced) == 15

    ok = sum_dev < 1e-12 and argmax_ok and topk_ok and oversample_ok
    report_line(
        4, ok,
        f"soft-label sums within {sum_dev:.1e} of 1 (< 1e-12) and argmax-match, "
        f"top-k selection == full-sort oracle ({len(picked)} of 43), "
        f"oversample equalizes counts exactly",
    )


# ----------------------------------------------------------------------
# 5. auxiliary-BN isolation
# ----------------------------------------------------------------------


def test_criterion_05_aux_bn_isolation():
    rng = np.random.default_rng(17)
    dim, classes = 6, 2
    labeled_x = rng.standard_normal((8, dim))
    labeled_q = one_hot(rng.integers(1, classes + 1, size=8), classes)
    in_x = rng.standard_normal((8, dim))
    out_x = rng.standard_normal((8, dim))
    out_q = rng.uniform(0.1, 1.0, size=(8, classes))
    out_q /= out_q.sum(axis=1, keepdims=True)

    def run(lam):
        model = build_model(
            ModelConfig(input_dim=dim, hidden_dims=(5,), embed_dim=4, proj_dim=3,
                        num_classes=classes),
            seed=5,
        )
        cfg = SSLConfig(beta=1.0, lam=lam, batch_size=4, steps=25, lr=0.05,
                        aux_loss=True, aux_bn=True,
                        augment=AugmentConfig(noise_sigma=0.2, stream="train.augment"))
        state = init_train_state(model, cfg)
        train(state, labeled_x, labeled_q, np.arange(8), in_x, out_x, out_q, cfg, seed=9)
        return model

    a = run(0.5)
    b = run(0.0)
    main_same = all(
        a.stats[k].tobytes() == b.stats[k].tobytes() for k in a.stats if ".main." in k
    )
    params_differ = any(a.params[k].tobytes() != b.params[k].tobytes() for k in a.params)
    aux_differ = any(
        a.stats[k].tobytes() != b.stats[k].tobytes() for k in a.stats if ".aux." in k
    )
    ok = main_same and params_differ and aux_differ
    report_line(
        5, ok,
        "main-branch running statistics bit-identical between lambda=0.5 and "
        f"lambda=0 runs over 25 steps (parameters diverged: {params_differ}, "
        f"aux statistics diverged: {aux_differ})",
    )


# ----------------------------------------------------------------------
# 6. detection quality at desk scale
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_06_detection_quality(workdir):
    from openset_ssl.metrics import auroc, tpr_tnr

    start = time.perf_counter()
    cfg = experiment_config(workdir / "c6", DETECT_BENCH, DETECT_PRETRAIN, CHAIN_SSL, seed=0)
    (workdir / "c6").mkdir(exist_ok=True)
    bench, model = pretrained_for(workdir, "detect_seed0_labels25", cfg)
    det = stage_detect(cfg, bench, model)
    scores = det.scores
    is_out = bench.unlabeled.origin == "out"
    a = auroc(scores, is_out)
    rates = tpr_tnr(scores, is_out, det.threshold)
    elapsed = time.perf_counter() - start
    ok = a >= 0.95 and rates["tnr"] >= 0.90 and elapsed < 300
    report_line(
        6, ok,
        f"AUROC {a:.4f} >= 0.95, TNR {rates['tnr']:.4f} >= 0.90 at eta=2 "
        f"(TPR {rates['tpr']:.4f}), {elapsed:.0f}s < 300s",
    )


# ----------------------------------------------------------------------
# 7. proportion-sweep trend
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_07_proportion_trend(workdir):
    start = time.perf_counter()
    plain = dict(detect=False, aux_loss=False, aux_bn=False, topk_pl=False)
    full = dict(detect=True, aux_loss=True, aux_bn=True, topk_pl=True)
    seeds = (0, 1, 2)
    proportions = (0.0, 0.2, 0.4, 0.6, 0.8)
    plain_acc = {p: [] for p in proportions}
    full_acc = []
    for seed in seeds:
        for p in proportions:
            bench_spec = replace(SWEEP_BENCH, out_proportion=p, seed=seed)
            out = workdir / f"c7_s{seed}_p{p}"
            out.mkdir(exist_ok=True)
            cfg = experiment_config(out, bench_spec, SWEEP_PRETRAIN, SWEEP_SSL, seed=seed)
            bench, model = pretrained_for(workdir, f"sweep_s{seed}_p{p}", cfg)
            acc, _, _ = run_variant(cfg, bench, model, plain)
            plain_acc[p].append(acc)
            if p == 0.8:
                _, model2 = pretrained_for(workdir, f"sweep_s{seed}_p{p}", cfg)
                acc_full, _, _ = run_variant(cfg, bench, model2, full)
                full_acc.append(acc_full)

    drop = float(np.mean(plain_acc[0.0]) - np.mean(plain_acc[0.8]))
    gain = float(np.mean(full_acc) - np.mean(plain_acc[0.8]))
    elapsed = time.perf_counter() - start
    curve = " ".join(f"p={p:g}:{np.mean(plain_acc[p]):.3f}" for p in proportions)
    ok = drop >= 0.05 and gain >= 0.05 and elapsed < 900
    report_line(
        7, ok,
        f"plain backend drop p0->p0.8 = {drop*100:.1f} pts >= 5, full run gain "
        f"at p0.8 = {gain*100:.1f} pts >= 5 (plain curve {curve}; full "
        f"{np.mean(full_acc):.3f}), {elapsed:.0f}s < 900s",
    )


# ----------------------------------------------------------------------
# 8. ablation chain trend
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_08_ablation_chain(workdir):
    seeds = (0, 1, 2)
    means = []
    accs = {name: [] for name, _ in TOGGLE_CHAIN}
    for seed in seeds:
        bench_spec = replace(DETECT_BENCH, labels_per_class=4, seed=seed)
        out = workdir / f"c8_s{seed}"
        out.mkdir(exist_ok=True)
        cfg = experiment_config(out, bench_spec, DETECT_PRETRAIN, CHAIN_SSL, seed=seed)
        bench, model = pretrained_for(workdir, f"chain_s{seed}", cfg)
        for name, toggles in TOGGLE_CHAIN:
            _, fresh = pretrained_for(workdir, f"chain_s{seed}", cfg)
            acc, _, _ = run_variant(cfg, bench, fresh, toggles)
            accs[name].append(acc)
    means = [float(np.mean(accs[name])) for name, _ in TOGGLE_CHAIN]
    steps = [b - a for a, b in zip(means, means[1:])]
    inversions = [s for s in steps if s < 0]
    detect_step = steps[0]
    ok = (
        detect_step >= 0.03
        and len(inversions) <= 1
        and all(s >= -0.01 for s in steps)
    )
    chain_text = " -> ".join(
        f"{name}:{m:.3f}" for (name, _), m in zip(TOGGLE_CHAIN, means)
    )
    report_line(
        8, ok,
        f"3-seed mean chain {chain_text}; detect step +{detect_step*100:.1f} pts >= 3, "
        f"{len(inversions)} adjacent inversion(s) (allowed <= 1), worst "
        f"{min(steps)*100:.1f} pts (allowed >= -1)",
    )


# ----------------------------------------------------------------------
# 9. soft-label informativeness (aux-only training)
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_09_aux_only_informativeness(workdir):
    chance2 = 2.0 / SWEEP_BENCH.in_classes
    soft_accs, uniform_accs = [], []
    for seed in (0, 1, 2):
        bench_spec = replace(SWEEP_BENCH, seed=seed)
        out = workdir / f"c9_s{seed}"
        out.mkdir(exist_ok=True)
        cfg = experiment_config(out, bench_spec, SWEEP_PRETRAIN, SWEEP_SSL, seed=seed)
        bench, model = pretrained_for(workdir, f"sweep_s{seed}_p0.8", cfg)
        det = stage_detect(cfg, bench, model)
        out_x = bench.unlabeled.x[det.out]
        out_q = soft_label(det.sims[det.out], cfg.labeling.tau_sl)

        aux_cfg = replace(SWEEP_SSL, steps=300, lr=0.05)
        fresh = build_model(model.config, seed=seed + 1000)
        aux_only_train(fresh, out_x, out_q, aux_cfg, seed=seed)
        soft_accs.append(evaluate_accuracy(fresh, bench.test.x, bench.test.label))

        control = build_model(model.config, seed=seed + 1000)
        uniform = np.full_like(out_q, 1.0 / SWEEP_BENCH.in_classes)
        aux_only_train(control, out_x, uniform, aux_cfg, seed=seed)
        uniform_accs.append(evaluate_accuracy(control, bench.test.x, bench.test.label))

    ok = min(soft_accs) > chance2 and max(uniform_accs) <= chance2
    report_line(
        9, ok,
        f"aux-only accuracy {['%.3f' % a for a in soft_accs]} all > {chance2} "
        f"(twice chance), uniform-q control {['%.3f' % a for a in uniform_accs]} "
        f"all <= {chance2}",
    )


# ----------------------------------------------------------------------
# 10. determinism and persistence
# ----------------------------------------------------------------------


def test_criterion_10_determinism_and_persistence(workdir):
    bench_spec = BenchmarkSpec(
        dim=6, in_classes=2, out_classes=2, separation=6.0,
        correlation_mode="related", total_unlabeled=40, out_proportion=0.5,
        labels_per_class=4, test_per_class=6, seed=0,
    )
    ssl = SSLConfig(
        steps=10, batch_size=4, lr=0.05,
        augment=AugmentConfig(noise_sigma=0.3, stream="train.augment"),
    )
    pre = ContrastiveConfig(
        steps=12, batch_size=8, lr=0.05,
        augment=AugmentConfig(noise_sigma=0.3, stream="pretrain.augment"),
    )
    out = workdir / "c10"
    cfg = ExperimentConfig(
        seed=0, out_dir=str(out), benchmark=bench_spec,
        model=ModelShape(hidden_dims=(8,), embed_dim=6, proj_dim=4),
        contrastive=pre, detection=DetectionConfig(), labeling=LABELING,
        ssl=ssl, checkpoint_interval=8, checkpoint_count=5, median_last=3,
    )
    first = json.dumps(strip_timings(run_experiment(cfg)), sort_keys=True)
    second = json.dumps(strip_timings(run_experiment(cfg)), sort_keys=True)
    reports_identical = first == second

    bench = generate(bench_spec)
    path_a = out / "roundtrip_a.csv"
    path_b = out / "roundtrip_b.csv"
    write_dataset(path_a, bench.unlabeled)
    write_dataset(path_b, read_dataset(path_a, bench.unlabeled.dim))
    dataset_lossless = path_a.read_bytes() == path_b.read_bytes()

    model = load_checkpoint(out / "final.ckpt")
    ckpt_b = out / "roundtrip.ckpt"
    save_checkpoint(ckpt_b, model)
    reloaded = load_checkpoint(ckpt_b)
    ckpt_lossless = all(
        reloaded.params[k].tobytes() == model.params[k].tobytes() for k in model.params
    ) and all(
        reloaded.stats[k].tobytes() == model.stats[k].tobytes() for k in model.stats
    )

    ok = reports_identical and dataset_lossless and ckpt_lossless
    report_line(
        10, ok,
        f"byte-identical reports (timings excluded): {reports_identical}, "
        f"dataset file round-trip lossless: {dataset_lossless}, checkpoint "
        f"round-trip lossless: {ckpt_lossless}",
    )
