"""Combined-loss construction, auxiliary-branch isolation, and the
fine-tuning loop."""

import numpy as np
import pytest

from helpers import (
    nudge_into_generic_position,
    combined_param_gradcheck,
    relu_kink_margin,
)
from openset_ssl.augment import AugmentConfig
from openset_ssl.contrastive import ContrastiveConfig, pretrain
from openset_ssl.model import GraphBuilder, ModelConfig, build_model
from openset_ssl.train import (
    SSLConfig,
    StepPlan,
    aux_only_train,
    build_step_loss,
    cross_entropy_node,
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
        plan.cons_x, plan.cons_targets, plan.cons_mask = prepare_consistency(
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

        z = forward(model, x).logits
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

        p = _softmax(forward(model, ux).logits)
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
        loss = cross_entropy_node(builder, np.array([[0.0, 1.0]]), logits)
        assert builder.graph.value(loss) == 800.0
        assert np.array_equal(builder.graph.backward(loss)[logits], [[1.0, -1.0]])

    def test_masked_rows_contribute_nothing_but_count_in_the_mean(self):
        builder = GraphBuilder(toy_model())
        z = np.array([[2.0, -1.0], [0.5, 0.5], [-3.0, 1.0]])
        logits = builder.const(z)
        targets = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        masked = cross_entropy_node(builder, targets, logits, mask=np.array([[1.0], [0.0], [1.0]]))
        kept = cross_entropy_node(builder, targets[[0, 2]], builder.const(z[[0, 2]]))
        g = builder.graph
        assert abs(g.value(masked) - g.value(kept) * 2.0 / 3.0) < 1e-12
        assert not g.backward(masked)[logits][1].any()


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
        branches = {bs[1] for bs in loss.batch_stats}
        assert branches == {"aux"}

    def test_gradcheck_full_loss(self):
        model = nudge_into_generic_position(toy_model(seed=3), seed=30)
        x, y = batch(17, n=3)
        rng = np.random.default_rng(18)
        ux = rng.standard_normal((3, DIM))
        ox, q = self.out_batch(19, n=3)
        config = cfg(beta=0.8, lam=0.5, aux_bn=True)
        cons_x, cons_t, cons_m = prepare_consistency(model, ux, [0, 1, 2], config, 0, 0)
        plan = StepPlan(labeled_x=x, labeled_q=y, cons_x=cons_x, cons_targets=cons_t,
                        cons_mask=cons_m, out_x=ox, out_q=q)
        loss = build_step_loss(model, plan, config)
        assert relu_kink_margin(loss) >= 1e-3
        assert combined_param_gradcheck(model, plan, config) < 1e-4


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


def test_package_attribute_is_the_submodule():
    import openset_ssl
    import openset_ssl.train as train_module

    assert openset_ssl.train is train_module
    assert openset_ssl.train.build_step_loss is build_step_loss
