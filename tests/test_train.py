"""Combined-loss construction, auxiliary-branch isolation, and the
fine-tuning loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    nudge_into_generic_position,
    combined_param_gradcheck,
    reference_step_loss,
    relu_kink_margin,
)
from openset_ssl import rng as rng_mod
from openset_ssl.augment import AugmentConfig, augment_batch
from openset_ssl.contrastive import ContrastiveConfig, pretrain
from openset_ssl.autodiff import logsumexp_rows
from openset_ssl.model import GraphBuilder, ModelConfig, build_model, forward
from openset_ssl.train import (
    SSLConfig,
    StepPlan,
    _Cycler,
    aux_only_train,
    build_step_loss,
    evaluate_accuracy,
    init_train_state,
    one_hot,
    prepare_consistency,
    train,
)

C = 2
DIM = 6


def toy_model(seed=0, **cfg):
    defaults = dict(input_dim=DIM, hidden_dims=(5,), embed_dim=4, proj_dim=3, num_classes=C)
    defaults.update(cfg)
    return build_model(ModelConfig(**defaults), seed=seed)


def null_aug():
    return AugmentConfig(noise_sigma=0.0, jitter_range=(1.0, 1.0), mask_fraction=0.0,
                         stream="train.augment")


def cfg(**kw):
    defaults = dict(steps=5, batch_size=4, lr=0.05,
                    augment=AugmentConfig(noise_sigma=0.2, stream="train.augment"))
    defaults.update(kw)
    return SSLConfig(**defaults)


def batch(seed, n=4):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, DIM))
    y = one_hot(rng.integers(1, C + 1, size=n), C)
    return x, y


def step_loss(model, config, x, y, ux=None, ox=None, q=None):
    """build_step_loss over the plan `train` would freeze for these
    batches at seed 0, step 0: consistency targets for `ux` (ids
    0..n-1), the out-of-class batch `ox` with soft labels `q`."""
    plan = StepPlan(labeled_x=x, labeled_q=y, out_x=ox, out_q=q)
    if ux is not None:
        plan.cons_x, plan.cons_targets = prepare_consistency(
            model, ux, range(len(ux)), config, 0, 0
        )
    return build_step_loss(model, plan, config)


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class TestSslLoss:
    def test_beta_zero_is_supervised_cross_entropy(self):
        model = toy_model()
        x, y = batch(0)
        ux = np.random.default_rng(1).standard_normal((4, DIM))
        loss = step_loss(model, cfg(beta=0.0), x, y, ux)
        from openset_ssl.model import forward

        z = forward(model, x, "logits")
        m = z.max(axis=1, keepdims=True)
        logsumexp = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
        direct = np.mean(logsumexp - (y * z).sum(axis=1, keepdims=True))
        assert loss.value == direct
        assert "consistency" not in loss.terms

    def test_null_augmentation_consistency_term_is_prediction_entropy(self):
        model = toy_model()
        x, y = batch(2)
        ux = np.random.default_rng(3).standard_normal((5, DIM))
        loss = step_loss(model, cfg(beta=1.0, augment=null_aug()), x, y, ux)
        from openset_ssl.model import forward

        p = _softmax(forward(model, ux, "logits"))
        entropy = float(-(p * np.log(p + 1e-300)).sum(axis=1).mean())
        assert abs(loss.terms["consistency"] - entropy) < 1e-12

    def test_uniform_prediction_consistency_is_log2(self):
        model = toy_model()
        model.params["head.w"] = np.zeros_like(model.params["head.w"])
        model.params["head.b"] = np.zeros_like(model.params["head.b"])
        x, y = batch(4)
        ux = np.random.default_rng(5).standard_normal((3, DIM))
        loss = step_loss(model, cfg(beta=1.0, augment=null_aug()), x, y, ux)
        assert abs(loss.terms["consistency"] - np.log(2.0)) < 1e-9

    def test_loss_is_differentiable_end_to_end(self):
        model = toy_model()
        x, y = batch(6)
        ux = np.random.default_rng(7).standard_normal((4, DIM))
        loss = step_loss(model, cfg(beta=0.7), x, y, ux)
        grads = loss.parameter_gradients()
        assert any(np.abs(g).max() > 0 for g in grads.values())


class TestCrossEntropyNode:
    def test_saturated_wrong_prediction_keeps_its_loss_and_gradient(self):
        # logits (800, 0) against class 2: the loss is 800, not a floored
        # -log(1e-300), and the gradient still pushes the logits apart
        builder = GraphBuilder(toy_model())
        logits = builder.const(np.array([[800.0, 0.0]]))
        target = np.array([[0.0, 1.0]])
        loss = builder.graph.apply("softmax-cross-entropy", [logits], targets=target)
        assert builder.graph.value(loss) == 800.0
        assert np.array_equal(builder.graph.backward(loss)[logits], [[1.0, -1.0]])

    def test_masked_rows_contribute_nothing_but_count_in_the_mean(self):
        # a hard-pseudo step with rows 1 and 3 of five below the threshold
        model = toy_model()
        config = cfg(backend="hard-pseudo", beta=2.0)
        x, y = batch(30)
        rng = np.random.default_rng(31)
        cons_x = rng.standard_normal((5, DIM))
        cons_t = one_hot(rng.integers(1, C + 1, size=5), C)
        cons_t[[1, 3]] = 0.0

        def step(cx):
            plan = StepPlan(labeled_x=x, labeled_q=y, cons_x=cx, cons_targets=cons_t)
            loss = build_step_loss(model, plan, config)
            grads = loss.parameter_gradients()
            return loss, [np.float64(loss.value).tobytes()] + [grads[k].tobytes() for k in grads]

        loss, found = step(cons_x)
        moved = cons_x.copy()
        moved[[1, 3]] = 1e3 * rng.standard_normal((2, DIM))
        assert step(moved)[1] == found
        z = forward(model, cons_x[[0, 2, 4]], "logits")
        t = cons_t[[0, 2, 4]]
        kept = (logsumexp_rows(z) - (t * z).sum(axis=1, keepdims=True)).sum()
        assert abs(loss.terms["consistency"] - kept / 5) < 1e-12


class TestCombinedLoss:
    def out_batch(self, seed, n=4):
        rng = np.random.default_rng(seed)
        ox = rng.standard_normal((n, DIM))
        q = rng.uniform(0.1, 1.0, size=(n, C))
        q /= q.sum(axis=1, keepdims=True)
        return ox, q

    def test_lambda_zero_equals_ssl_loss_bitwise(self):
        # with lambda = 0 the out-of-class batch never enters the loss,
        # even with the auxiliary term and branch switched on
        lx, lq, ii, ix, ox, q = small_training_setup(seed=8)
        config = cfg(steps=6, beta=1.0, lam=0.0, aux_loss=True, aux_bn=True)

        def run(with_out):
            model = toy_model(seed=1)
            state = init_train_state(model, config)
            if with_out:
                train(state, lx, lq, ii, ix, ox, q, config, seed=2)
            else:
                train(state, lx, lq, ii, ix, np.zeros((0, DIM)), np.zeros((0, C)),
                      config, seed=2)
            return {k: v.tobytes() for k, v in {**model.params, **model.stats}.items()}

        assert run(True) == run(False)

    def test_uniform_q_on_uniform_prediction_gives_logC(self):
        model = toy_model()
        model.params["head.w"] = np.zeros_like(model.params["head.w"])
        model.params["head.b"] = np.zeros_like(model.params["head.b"])
        x, y = batch(11)
        ox = np.random.default_rng(12).standard_normal((4, DIM))
        q = np.full((4, C), 1.0 / C)
        loss = step_loss(model, cfg(beta=1.0, lam=0.5, aux_bn=False), x, y, ox=ox, q=q)
        assert abs(loss.terms["aux"] - np.log(C)) < 1e-9

    def test_unnormalized_q_rejected(self):
        model = toy_model()
        x, y = batch(13)
        ox, q = self.out_batch(14)
        q = q * 1.01
        with pytest.raises(ValueError):
            step_loss(model, cfg(), x, y, ox=ox, q=q)

    def test_aux_bn_routes_to_aux_branch_only(self):
        model = toy_model()
        x, y = batch(15)
        ox, q = self.out_batch(16)
        loss = step_loss(model, cfg(lam=0.5, aux_bn=True), x, y, ox=ox, q=q)
        branches = {bs[1] for bs in loss.builder.batch_stats}
        assert branches == {"aux"}

    def test_gradcheck_full_loss(self):
        model = nudge_into_generic_position(toy_model(seed=3), seed=30)
        x, y = batch(17, n=3)
        rng = np.random.default_rng(18)
        ux = rng.standard_normal((3, DIM))
        ox, q = self.out_batch(19, n=3)
        config = cfg(beta=0.8, lam=0.5, aux_bn=True)
        cons_x, cons_t = prepare_consistency(model, ux, [0, 1, 2], config, 0, 0)
        plan = StepPlan(labeled_x=x, labeled_q=y, cons_x=cons_x, cons_targets=cons_t,
                        out_x=ox, out_q=q)
        loss = build_step_loss(model, plan, config)
        assert relu_kink_margin(loss) >= 1e-3
        assert combined_param_gradcheck(model, plan, config) < 1e-4


class TestStackedPass:
    """One eval-mode forward over the labeled rows and the consistency rows
    with target mass gives the loss and gradients of the two-forward build
    it replaced (`helpers.reference_step_loss`) to rounding, and the same
    trace terms."""

    BOUND = 1e-14

    @staticmethod
    def gradient_unit(model, plan, config):
        """The largest entry, over every parameter, of the sum of the
        absolute gradients of what the loss adds up: each labeled row and
        each consistency row with mass, at its weight, and the out-of-class
        term.  Where rows nearly cancel, the rounding scales with this sum,
        not with the gradient itself."""

        def grads(p):
            return reference_step_loss(model, p, config).parameter_gradients()

        blocks = [(plan.labeled_x, plan.labeled_q, 1.0 / len(plan.labeled_x)),
                  (plan.cons_x, plan.cons_targets, config.beta / len(plan.cons_x))]
        total = {}
        for xs, qs, weight in blocks:
            for x, q in zip(xs, qs):
                if q.any():
                    for name, g in grads(StepPlan(labeled_x=x[None], labeled_q=q[None])).items():
                        total[name] = total.get(name, 0.0) + weight * np.abs(g)
        if plan.out_x is not None:
            whole, inner = grads(plan), grads(replace(plan, out_x=None, out_q=None))
            for name in total:
                total[name] = total[name] + np.abs(whole[name] - inner[name])
        return max(g.max() for g in total.values())

    @settings(max_examples=80, deadline=None)
    @given(
        n_l=st.integers(1, 9),
        n_c=st.integers(1, 9),
        beta=st.sampled_from([0.5, 1.0, 3.0, 4.0]),
        mask=st.sampled_from([None, "none", "some", "all"]),
        with_out=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_two_forward_build(self, n_l, n_c, beta, mask, with_out, seed):
        rng = np.random.default_rng(seed)
        model = nudge_into_generic_position(toy_model(seed=seed % 7), seed=seed % 11)
        model.stats = {k: v + 0.1 * rng.random(v.shape) for k, v in model.stats.items()}
        x, y = batch(seed, n_l)
        cons_x = rng.standard_normal((n_c, DIM))
        if mask is None:  # the consistency backend: soft targets, none zero
            config = cfg(beta=beta, lam=0.5)
            cons_t, kept = rng.dirichlet(np.ones(C), size=n_c), np.ones((n_c, 1), dtype=bool)
        else:  # hard-pseudo: one-hot targets, zero in the masked rows
            config = cfg(backend="hard-pseudo", beta=beta, lam=0.5)
            cons_t = one_hot(rng.integers(1, C + 1, size=n_c), C)
            on = {"none": 0.0, "some": 0.5, "all": 1.0}[mask]
            kept = rng.random((n_c, 1)) < on
            cons_t = cons_t * kept
        plan = StepPlan(labeled_x=x, labeled_q=y, cons_x=cons_x, cons_targets=cons_t)
        if with_out:
            plan.out_x = rng.standard_normal((3, DIM))
            plan.out_q = rng.dirichlet(np.ones(C), size=3)
        stacked = build_step_loss(model, plan, config)
        ref = reference_step_loss(model, plan, config)

        assert abs(stacked.value - ref.value) <= self.BOUND * abs(ref.value)
        found, expected = stacked.parameter_gradients(), ref.parameter_gradients()
        assert found.keys() == expected.keys()
        unit = self.gradient_unit(model, plan, config)
        for name, want in expected.items():
            assert np.abs(found[name] - want).max() <= self.BOUND * unit, name
        for name, want in ref.terms.items():
            assert abs(stacked.terms[name] - want) <= self.BOUND * abs(want), name
        # a one-row block runs as a vector-matrix product, which rounds differently
        if mask is None and min(n_l, n_c) >= 2:
            assert [np.float64(stacked.terms[k]).tobytes() for k in ref.terms] == [
                np.float64(v).tobytes() for v in ref.terms.values()]
        # the stacked input holds the labeled rows and the kept consistency rows only
        assert stacked.builder.graph.value(0).shape == (n_l + int(kept.sum()), DIM)


class TestHardPseudoBackend:
    def test_threshold_one_contributes_nothing(self):
        model = toy_model()
        x, y = batch(20)
        ux = np.random.default_rng(21).standard_normal((4, DIM))
        loss = step_loss(model, cfg(backend="hard-pseudo", confidence_threshold=1.0), x, y, ux)
        assert loss.terms["consistency"] == 0.0

    def test_confident_samples_fit_hard_labels(self):
        model = toy_model()
        x, y = batch(22)
        ux = np.random.default_rng(23).standard_normal((4, DIM))
        loss = step_loss(model, cfg(backend="hard-pseudo", confidence_threshold=0.0), x, y, ux)
        assert loss.terms["consistency"] > 0.0

    def test_targets_are_argmax_rows_of_the_weak_view_zero_below_the_threshold(self):
        model = toy_model()
        ux, ids = np.random.default_rng(24).standard_normal((8, DIM)), range(10, 18)
        aug = cfg().augment
        p = _softmax(forward(model, augment_batch(ux, ids, aug, 0, 0, 0), "logits"))
        threshold = float(np.median(p.max(axis=1)))
        config = cfg(backend="hard-pseudo", confidence_threshold=threshold)
        cons_x, cons_t = prepare_consistency(model, ux, ids, config, 0, 0)
        confident = p.max(axis=1) > threshold
        assert confident.sum() == 4
        assert np.array_equal(cons_t[confident], one_hot(p[confident].argmax(axis=1) + 1, C))
        assert not cons_t[~confident].any()
        # the strong view: the same family with the noise doubled, view 1
        strong = AugmentConfig(noise_sigma=2 * aug.noise_sigma, stream=aug.stream)
        assert np.array_equal(cons_x, augment_batch(ux, ids, strong, 0, 0, 1))


def small_training_setup(seed=0, n_lab=6, n_in=8, n_out=8):
    rng = np.random.default_rng(seed)
    labeled_x = rng.standard_normal((n_lab, DIM))
    labeled_q = one_hot(rng.integers(1, C + 1, size=n_lab), C)
    in_x = rng.standard_normal((n_in, DIM))
    out_x = rng.standard_normal((n_out, DIM))
    q = rng.uniform(0.1, 1.0, size=(n_out, C))
    q /= q.sum(axis=1, keepdims=True)
    return labeled_x, labeled_q, np.arange(n_in), in_x, out_x, q


class TestTrainLoop:
    def test_zero_steps_unchanged(self):
        model = toy_model()
        before = {k: v.tobytes() for k, v in model.params.items()}
        lx, lq, ii, ix, ox, q = small_training_setup()
        state = init_train_state(model, cfg(steps=0))
        train(state, lx, lq, ii, ix, ox, q, cfg(steps=0), seed=0)
        assert {k: v.tobytes() for k, v in model.params.items()} == before
        assert state.step == 0

    def test_same_seed_bit_identical(self):
        lx, lq, ii, ix, ox, q = small_training_setup()

        def run():
            model = toy_model()
            state = init_train_state(model, cfg(steps=6))
            train(state, lx, lq, ii, ix, ox, q, cfg(steps=6), seed=7)
            return {k: v.tobytes() for k, v in model.params.items()}

        assert run() == run()

    def test_empty_labeled_rejected(self):
        model = toy_model()
        state = init_train_state(model, cfg())
        with pytest.raises(ValueError):
            train(state, np.zeros((0, DIM)), np.zeros((0, C)), [], np.zeros((0, DIM)),
                  np.zeros((0, DIM)), np.zeros((0, C)), cfg(steps=1), seed=0)

    def test_default_batch_size_is_64(self):
        assert SSLConfig().batch_size == 64

    def test_batch_size_one_rejected_when_the_aux_term_runs(self):
        # the out-of-class batch runs train-mode batch norm, which needs two rows
        with pytest.raises(ValueError) as err:
            cfg(batch_size=1)
        assert str(err.value) == "batch_size must be >= 2, got 1"
        assert cfg(batch_size=2).batch_size == 2

    def test_batch_size_one_allowed_without_the_aux_term(self):
        lx, lq, ii, ix, ox, q = small_training_setup()
        for off in (dict(aux_loss=False), dict(lam=0.0)):
            config = cfg(batch_size=1, steps=2, **off)
            state = init_train_state(toy_model(), config)
            train(state, lx, lq, ii, ix, ox, q, config, seed=0)
            assert state.step == 2

    def test_toggles_off_ignores_out_of_class_data(self):
        lx, lq, ii, ix, ox, q = small_training_setup(seed=1)
        plain = cfg(steps=5, aux_loss=False, aux_bn=False, detect=False, topk_pl=False)

        def run(with_out):
            model = toy_model()
            state = init_train_state(model, plain)
            if with_out:
                train(state, lx, lq, ii, ix, ox, q, plain, seed=2)
            else:
                train(state, lx, lq, ii, ix, np.zeros((0, DIM)), np.zeros((0, C)),
                      plain, seed=2)
            return {k: v.tobytes() for k, v in model.params.items()}

        assert run(True) == run(False)

    def test_main_stats_identical_between_lambda_runs(self):
        # the auxiliary term moves the parameters but may never move the
        # main branch's running statistics
        lx, lq, ii, ix, ox, q = small_training_setup(seed=3)

        def run(lam):
            model = toy_model(seed=5)
            config = cfg(steps=8, lam=lam, aux_loss=True, aux_bn=True)
            state = init_train_state(model, config)
            train(state, lx, lq, ii, ix, ox, q, config, seed=9)
            return model

        a = run(0.5)
        b = run(0.0)
        for key in a.stats:
            if ".main." in key:
                assert a.stats[key].tobytes() == b.stats[key].tobytes()
        assert any(
            a.params[k].tobytes() != b.params[k].tobytes() for k in a.params
        )
        assert any(
            a.stats[k].tobytes() != b.stats[k].tobytes()
            for k in a.stats
            if ".aux." in k
        )

    def test_checkpoint_accuracies_recorded(self):
        lx, lq, ii, ix, ox, q = small_training_setup(seed=4)
        rng = np.random.default_rng(5)
        test_x = rng.standard_normal((10, DIM))
        test_y = rng.integers(1, C + 1, size=10)
        model = toy_model()
        config = cfg(steps=10, batch_size=4)
        state = init_train_state(model, config)
        train(state, lx, lq, ii, ix, ox, q, config, seed=1,
              test_x=test_x, test_y=test_y, checkpoint_interval=8)
        assert len(state.checkpoint_accuracies) == 5  # 40 samples / 8
        for acc in state.checkpoint_accuracies:
            assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("loop", ["pretraining", "training", "aux-only"])
    def test_non_finite_loss_aborts_with_step_index(self, loop):
        """Every fitting loop stops at the first non-finite loss, naming
        itself and the step; the infinite weights warn on the way."""
        lx, lq, ii, ix, ox, q = small_training_setup(seed=6)
        model = toy_model()
        # the classifier feeds the fine-tuning losses, the projection NT-Xent
        model.params["head.w"] = np.full_like(model.params["head.w"], np.inf)
        model.params["proj1.w"] = np.full_like(model.params["proj1.w"], np.inf)
        config = cfg(steps=3)
        fits = {
            "pretraining": lambda: pretrain(
                model, ix, ii, ContrastiveConfig(batch_size=4, steps=3), seed=0),
            "training": lambda: train(
                init_train_state(model, config), lx, lq, ii, ix, ox, q, config, seed=0),
            "aux-only": lambda: aux_only_train(model, ox, q, config, seed=0),
        }
        with pytest.warns(RuntimeWarning), pytest.raises(RuntimeError) as err:
            fits[loop]()
        assert str(err.value) == f"{loop} loss became non-finite at step 0"


class TestAuxOnlyTrain:
    def test_zero_steps_unchanged(self):
        model = toy_model()
        before = {k: v.tobytes() for k, v in model.params.items()}
        rng = np.random.default_rng(7)
        ox = rng.standard_normal((8, DIM))
        q = np.full((8, C), 0.5)
        aux_only_train(model, ox, q, cfg(steps=0), seed=0)
        assert {k: v.tobytes() for k, v in model.params.items()} == before

    def test_batch_size_one_rejected_naming_the_field(self):
        rng = np.random.default_rng(7)
        ox = rng.standard_normal((8, DIM))
        q = np.full((8, C), 0.5)
        with pytest.raises(ValueError) as err:
            aux_only_train(toy_model(), ox, q, cfg(batch_size=1, lam=0.0), seed=0)
        assert str(err.value) == "batch_size must be >= 2, got 1"

    def test_empty_soft_labeled_set_rejected_by_name(self):
        with pytest.raises(ValueError) as err:
            aux_only_train(toy_model(), np.zeros((0, DIM)), np.zeros((0, C)), cfg(), seed=0)
        assert str(err.value) == "soft-labeled out-of-class set is empty"

    def test_uniform_q_raises_prediction_entropy(self):
        # sharpen a model on labeled data first, then fit uniform targets
        rng = np.random.default_rng(8)
        model = toy_model(seed=9)
        lx = np.concatenate([rng.standard_normal((8, DIM)) + 4,
                             rng.standard_normal((8, DIM)) - 4])
        lq = one_hot(np.array([1] * 8 + [2] * 8), C)
        sharpen = cfg(steps=30, batch_size=8, lr=0.2, beta=0.0)
        state = init_train_state(model, sharpen)
        train(state, lx, lq, [], np.zeros((0, DIM)), np.zeros((0, DIM)), np.zeros((0, C)),
              sharpen, seed=1)

        ox = rng.standard_normal((16, DIM)) * 3
        q = np.full((16, C), 1.0 / C)
        _, entropy = aux_only_train(model, ox, q, cfg(steps=40, batch_size=8, lr=0.2),
                                    seed=2, record_entropy=True)
        assert entropy[-1] > entropy[0]

    def test_accuracy_evaluator(self):
        model = toy_model()
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, DIM))
        y = rng.integers(1, C + 1, size=6)
        acc = evaluate_accuracy(model, x, y)
        assert 0.0 <= acc <= 1.0


class TestCycler:
    @staticmethod
    def popped(n, seed, label, takes):
        """The indices as `_Cycler` drew them with list.pop(0)."""
        pending, epoch, out = [], 0, []
        for k in takes:
            batch = []
            while len(batch) < k:
                if not pending:
                    pending = list(rng_mod.stream(seed, label, epoch).permutation(n))
                    epoch += 1
                batch.append(pending.pop(0))
            out.append(batch)
        return out

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 40), takes=st.lists(st.integers(1, 90), max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_takes_the_indices_of_a_popped_permutation(self, n, takes, seed):
        cycler = _Cycler(n, seed, "train.labeled")
        got = [cycler.take(k).tolist() for k in takes]
        assert got == self.popped(n, seed, "train.labeled", takes)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            _Cycler(0, 1, "train.in")


def test_package_attribute_is_the_submodule():
    import openset_ssl
    import openset_ssl.train as train_module

    assert openset_ssl.train is train_module
    assert openset_ssl.train.build_step_loss is build_step_loss
