"""Model construction, dual-branch batch norm, cosine similarity, and the
checkpoint format."""

import os
import re
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_calibration_batches, reference_cosine, train_forward
from openset_ssl.augment import AugmentConfig
from openset_ssl.contrastive import (
    _CALIBRATION_PASSES,
    ContrastiveConfig,
    calibrate_running_stats,
    pretrain,
    simclr_batch_loss,
)
from openset_ssl import rng as rng_mod
from openset_ssl import autodiff
from openset_ssl import model as model_mod
from openset_ssl.autodiff import batch_moments, grad_check
from openset_ssl.model import (
    GraphBuilder,
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
    build_step_loss,
    init_train_state,
    one_hot,
    prepare_consistency,
    train,
)


CRITERION_6_MODEL = ModelConfig(input_dim=16, hidden_dims=(64, 64), embed_dim=64,
                                proj_dim=32, num_classes=8)


def small_config(**kw):
    defaults = dict(input_dim=6, hidden_dims=(5,), embed_dim=4, proj_dim=3, num_classes=2)
    defaults.update(kw)
    return ModelConfig(**defaults)


model_configs = st.builds(
    ModelConfig,
    input_dim=st.integers(1, 40),
    hidden_dims=st.lists(st.integers(1, 70), max_size=2).map(tuple),
    embed_dim=st.integers(1, 70),
    proj_dim=st.integers(1, 40),
    num_classes=st.integers(2, 10),
    bn_epsilon=st.floats(1e-8, 1e-2),
    bn_momentum=st.floats(0.01, 0.99),
)


def eval_heads(model, x):
    """(embedding, projection, logits) values of `forward`, one call each."""
    return [forward(model, x, head) for head in model_mod.HEADS]


def model_bytes(model):
    return {name: a.tobytes() for arrays in (model.params, model.stats)
            for name, a in arrays.items()}


class TestBuildModel:
    def test_same_config_and_seed_bit_identical(self):
        a = build_model(small_config(), seed=7)
        b = build_model(small_config(), seed=7)
        assert a.params.keys() == b.params.keys()
        for name in a.params:
            assert a.params[name].tobytes() == b.params[name].tobytes()

    def test_different_seed_differs(self):
        a = build_model(small_config(), seed=7)
        b = build_model(small_config(), seed=8)
        assert any(
            a.params[n].tobytes() != b.params[n].tobytes() for n in a.params
        )

    def test_empty_hidden_dims_is_single_dense_layer(self):
        model = build_model(small_config(hidden_dims=()), seed=0)
        assert model.params["enc0.w"].shape == (6, 4)
        assert "enc1.w" not in model.params

    @settings(max_examples=50, deadline=None)
    @given(hidden=st.lists(st.integers(1, 9), max_size=3), dims=st.tuples(*[st.integers(1, 9)] * 3),
           classes=st.integers(2, 9))
    def test_layout_lists_every_array_in_build_order(self, hidden, dims, classes):
        cfg = ModelConfig(input_dim=dims[0], hidden_dims=hidden, embed_dim=dims[1],
                          proj_dim=dims[2], num_classes=classes)
        model = build_model(cfg, seed=0)
        built = [(n, "param", a.shape) for n, a in model.params.items()]
        built += [(n, "stat", a.shape) for n, a in model.stats.items()]
        assert model_mod._layout(cfg) == built

    def test_param_count_matches_closed_form(self):
        cfg = small_config(hidden_dims=(5, 7))
        model = build_model(cfg, seed=0)
        # independent count: dense + bn affine per encoder layer, then the
        # two header layers and the classifier, each with bias
        dims = [(6, 5), (5, 7), (7, 4)]
        count = sum(i * o + 2 * o for i, o in dims)
        count += 4 * 4 + 4
        count += 4 * 3 + 3
        count += 4 * 2 + 2
        assert sum(p.size for p in model.params.values()) == count

    def test_bn_state_initialized_per_branch(self):
        model = build_model(small_config(), seed=0)
        assert np.array_equal(model.stats["enc0.bn.main.var"], np.ones((1, 5)))
        assert np.array_equal(model.stats["enc0.bn.aux.mean"], np.zeros((1, 5)))

    @pytest.mark.parametrize("dims", [(16.5,), (8, 16.0), (True,), ("8",)])
    def test_hidden_dim_that_is_not_an_integer_rejected(self, dims):
        # not cut to an integer: a checkpoint would hold other dims than claimed
        with pytest.raises(ValueError, match="hidden_dims must be integers"):
            small_config(hidden_dims=dims)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(input_dim=0)
        with pytest.raises(ValueError):
            small_config(num_classes=1)
        with pytest.raises(ValueError):
            small_config(bn_momentum=1.5)


class TestForward:
    def test_output_shapes(self):
        model = build_model(small_config(), seed=1)
        shapes = [h.shape for h in eval_heads(model, np.zeros((3, 6)))]
        assert shapes == [(3, 4), (3, 3), (3, 2)]

    def test_aux_training_never_touches_main_stats(self):
        model = build_model(small_config(), seed=1)
        rng = np.random.default_rng(0)
        before = {k: v.tobytes() for k, v in model.stats.items() if ".main." in k}
        train_forward(model, rng.standard_normal((8, 6)), branch="aux")
        after = {k: v.tobytes() for k, v in model.stats.items() if ".main." in k}
        assert before == after

    def test_main_training_never_touches_aux_stats(self):
        model = build_model(small_config(), seed=1)
        rng = np.random.default_rng(0)
        before = {k: v.tobytes() for k, v in model.stats.items() if ".aux." in k}
        train_forward(model, rng.standard_normal((8, 6)), branch="main")
        after = {k: v.tobytes() for k, v in model.stats.items() if ".aux." in k}
        assert before == after

    def test_train_updates_selected_branch(self):
        model = build_model(small_config(), seed=1)
        rng = np.random.default_rng(0)
        before = model.stats["enc0.bn.main.mean"].copy()
        train_forward(model, rng.standard_normal((8, 6)), branch="main")
        assert not np.array_equal(model.stats["enc0.bn.main.mean"], before)

    def test_eval_forward_is_pure(self):
        model = build_model(small_config(), seed=1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6))
        before = model_bytes(model)
        a = eval_heads(model, x)
        b = eval_heads(model, x)
        assert [h.tobytes() for h in a] == [h.tobytes() for h in b]
        assert model_bytes(model) == before

    def test_eval_forward_records_no_moments(self):
        model = build_model(small_config(), seed=1)
        builder = GraphBuilder(model)
        builder.forward(builder.const(np.random.default_rng(0).standard_normal((4, 6))))
        assert builder.batch_stats == []

    @pytest.mark.parametrize("branch", model_mod.BRANCHES)
    def test_train_forward_records_each_layers_moments_for_its_branch(self, branch):
        model = build_model(small_config(hidden_dims=(5, 3)), seed=1)
        builder = GraphBuilder(model)
        builder.forward(builder.const(np.random.default_rng(0).standard_normal((8, 6))),
                        train=branch)
        g = builder.graph
        bn_nodes = [i for i, node in enumerate(g.nodes) if node.op == "batch-norm"]
        assert len(bn_nodes) == len(builder.batch_stats) == 3
        for i, (node, (layer, tag, mu, var)) in enumerate(zip(bn_nodes, builder.batch_stats)):
            assert (layer, tag) == (f"enc{i}", branch)
            want_mu, _, want_var, _ = g.residuals(node)
            assert mu.tobytes() == want_mu.tobytes() and var.tobytes() == want_var.tobytes()

    def test_unknown_branch_rejected_by_name(self):
        model = build_model(small_config(), seed=1)
        builder = GraphBuilder(model)
        with pytest.raises(ValueError, match="'side'"):
            builder.forward(builder.const(np.zeros((4, 6))), train="side")
        assert builder.batch_stats == [] and len(builder.graph) == 1

    def test_train_mode_single_row_rejected(self):
        model = build_model(small_config(), seed=1)
        with pytest.raises(ValueError):
            train_forward(model, np.zeros((1, 6)))

    def test_wrong_input_width_rejected(self):
        model = build_model(small_config(), seed=1)
        with pytest.raises(ValueError):
            forward(model, np.zeros((3, 5)), "logits")

    def test_unknown_head_rejected_by_name(self):
        model = build_model(small_config(), seed=1)
        with pytest.raises(ValueError, match="'proj'"):
            forward(model, np.zeros((3, 6)), "proj")

    @settings(max_examples=60, deadline=None)
    @given(config=model_configs, rows=st.integers(0, 40), head=st.sampled_from(model_mod.HEADS),
           seed=st.integers(0, 2**32 - 1))
    def test_one_head_of_the_whole_batch_graph_and_the_model_untouched(
        self, config, rows, head, seed
    ):
        model = build_model(config, seed)
        rng = np.random.default_rng(seed)
        for name in model.stats:  # away from the initial (0, 1) statistics
            model.stats[name] = model.stats[name] + rng.uniform(0.0, 0.5, model.stats[name].shape)
        x = rng.standard_normal((rows, config.input_dim))
        before = model_bytes(model)
        found = forward(model, x, head)
        assert model_bytes(model) == before
        builder = GraphBuilder(model)
        whole = builder.graph.value(builder.forward(builder.const(x))[head])
        assert found.shape == whole.shape
        assert np.abs(found - whole).max(initial=0.0) <= 1e-12 * np.abs(whole).max(initial=0.0)

    def test_train_mode_bn_output_is_standardized(self):
        # fresh model: scale 1, shift 0, so the BN affine output equals the
        # normalized activations; per-feature batch moments must be (0, 1)
        model = build_model(small_config(hidden_dims=(), bn_epsilon=1e-12), seed=2)
        rng = np.random.default_rng(3)
        builder = GraphBuilder(model)
        x = builder.const(rng.standard_normal((64, 6)) * 3 + 1)
        nodes = builder.forward(x, train="main")
        bn_out_node = builder.graph.nodes[nodes["embedding"]].inputs[0]
        bn_out = builder.graph.value(bn_out_node)
        assert np.abs(bn_out.mean(axis=0)).max() < 1e-6
        assert np.abs(bn_out.var(axis=0) - 1.0).max() < 1e-6

    def test_running_stats_update_rule(self):
        model = build_model(small_config(hidden_dims=()), seed=2)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((16, 6))
        h = x @ model.params["enc0.w"]
        expect_mean = 0.9 * 0.0 + 0.1 * h.mean(axis=0)
        expect_var = 0.9 * 1.0 + 0.1 * h.var(axis=0)
        train_forward(model, x, branch="main")
        assert np.allclose(model.stats["enc0.bn.main.mean"].ravel(), expect_mean, atol=1e-12)
        assert np.allclose(model.stats["enc0.bn.main.var"].ravel(), expect_var, atol=1e-12)

    def test_gradients_flow_through_both_branches(self):
        model = build_model(small_config(), seed=5)
        rng = np.random.default_rng(6)
        base = rng.standard_normal((6, 6)) + 0.3  # keep relu inputs off kinks

        def make_fn(train, weights):
            def run(x):
                builder = GraphBuilder(model)
                x_id = builder.const(x)
                nodes = builder.forward(x_id, train=train)
                g = builder.graph
                loss = g.apply("softmax-cross-entropy", [nodes["logits"]], targets=weights)
                return g, x_id, loss

            def fn(x):
                g, _, loss = run(x)
                return g.value(loss).item()

            def gradient(x):
                g, x_id, loss = run(x)
                return g.backward(loss)[x_id]

            fn.gradient = gradient
            return fn

        for train in ("main", "aux", None):
            weights = rng.standard_normal((6, 2))
            fn = make_fn(train, weights)
            assert grad_check(fn, base, eps=1e-6) < 1e-4


class TestBlockedEvalForward:
    """`forward` runs `_EVAL_ROWS`-row blocks, one graph each; a
    calibration batch is one train-mode graph."""

    EVAL_ROWS = model_mod._EVAL_ROWS

    @staticmethod
    def block_sizes(run):
        sizes = []
        original = GraphBuilder.forward

        def spy(self, x_id, *args, **kwargs):
            sizes.append(len(self.graph.value(x_id)))
            return original(self, x_id, *args, **kwargs)

        with mock.patch.object(GraphBuilder, "forward", spy):
            result = run()
        return sizes, result

    def test_empty_batch_returns_empty_heads(self):
        model = build_model(small_config(), seed=1)
        assert [h.shape for h in eval_heads(model, np.zeros((0, 6)))] == [(0, 4), (0, 3), (0, 2)]

    def test_wrong_width_names_the_whole_batch_shape(self):
        model = build_model(small_config(input_dim=4), seed=1)
        with pytest.raises(ValueError) as err:
            forward(model, np.zeros((3000, 5)), "projection")
        assert str(err.value) == "forward: batch shape (3000, 5) does not match input_dim 4"

    def test_eval_mode_runs_even_blocks_of_at_most_eval_rows(self):
        # even blocks leave no one-row remainder, which numpy would run as
        # a vector-matrix product that rounds differently
        model = build_model(small_config(), seed=1)
        n = 2 * self.EVAL_ROWS + 1
        sizes, out = self.block_sizes(lambda: forward(model, np.ones((n, 6)), "logits"))
        assert len(sizes) == 3 and sum(sizes) == n
        assert max(sizes) <= self.EVAL_ROWS and max(sizes) - min(sizes) <= 1
        assert out.shape == (n, 2)

    def test_train_mode_is_one_graph_whose_moments_cover_every_row(self):
        # calibration batches longer than an eval block: each is one graph,
        # and the statistics are the reference's folds of its moments
        model = build_model(small_config(), seed=1)
        reference = model.copy()
        pool = np.random.default_rng(2).standard_normal((3 * self.EVAL_ROWS, 6))
        batch_size = self.EVAL_ROWS + 7
        sizes, _ = self.block_sizes(lambda: calibrate_running_stats(model, pool, batch_size, 4))
        batches = reference_calibration_batches(
            rng_mod.stream(4, "pretrain.calibrate"), len(pool), batch_size, _CALIBRATION_PASSES)
        assert sizes == [batch_size] * len(batches)
        for take in batches:
            train_forward(reference, pool[take])
        assert model_bytes(model) == model_bytes(reference)

    @settings(max_examples=80, deadline=None)
    @given(config=model_configs, rows=st.integers(0, 70), block=st.integers(1, 16),
           seed=st.integers(0, 2**32 - 1))
    def test_blocked_heads_equal_the_whole_batch_graph(self, config, rows, block, seed):
        # equal within 1e-12 of each head's largest magnitude: BLAS may
        # round a row differently in a product with fewer rows
        model = build_model(config, seed)
        rng = np.random.default_rng(seed)
        for name in model.stats:  # away from the initial (0, 1) statistics
            model.stats[name] = model.stats[name] + rng.uniform(0.0, 0.5, model.stats[name].shape)
        x = rng.standard_normal((rows, config.input_dim))
        builder = GraphBuilder(model)
        nodes = builder.forward(builder.const(x))
        whole = [builder.graph.value(nodes[head]) for head in model_mod.HEADS]
        with mock.patch.object(model_mod, "_EVAL_ROWS", block):
            blocked = eval_heads(model, x)
        for b, w in zip(blocked, whole):
            assert b.shape == w.shape
            assert np.abs(b - w).max(initial=0.0) <= 1e-12 * np.abs(w).max(initial=0.0)

    def test_peak_memory_grows_only_by_the_input_and_output(self):
        # from 4 to 16 blocks, the allocation peak may grow by the extra
        # input and output bytes; a whole-batch graph grows by its tape
        model = build_model(CRITERION_6_MODEL, seed=0)

        def measure(blocks):
            x = np.random.default_rng(0).standard_normal((blocks * self.EVAL_ROWS, 16))
            tracemalloc.start()
            try:
                out = forward(model, x, "embedding")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return x.nbytes + out.nbytes, peak

        small_bytes, small_peak = measure(4)
        large_bytes, large_peak = measure(16)
        assert large_peak - small_peak <= large_bytes - small_bytes + 2**20


class TestHeadsOnDemand:
    """Each caller builds only the heads it reads; an unbuilt head's
    parameters get no gradient and stay byte-identical."""

    def test_forward_builds_only_the_named_heads(self):
        model = build_model(small_config(), seed=1)
        x = np.random.default_rng(0).standard_normal((3, 6))
        builder = GraphBuilder(model)
        full = builder.forward(builder.const(x))
        for head in model_mod.HEADS:
            built = []
            original = GraphBuilder.forward

            def spy(self, x_id, *args, **kwargs):
                nodes = original(self, x_id, *args, **kwargs)
                built.append({name.split(".")[0] for name in self.param_nodes})
                return nodes

            with mock.patch.object(GraphBuilder, "forward", spy):
                value = forward(model, x, head)
            assert value.tobytes() == builder.graph.value(full[head]).tobytes()
            # the encoder, and of the heads only the one returned
            layers = {"embedding": set(), "projection": {"proj0", "proj1"}, "logits": {"head"}}
            assert built == [{"enc0", "enc1"} | layers[head]]

    def test_pretraining_leaves_the_classifier_head_untouched(self):
        cfg = small_config()
        model = build_model(cfg, seed=3)
        pool = np.random.default_rng(1).standard_normal((24, 6))
        config = ContrastiveConfig(steps=6, batch_size=8, lr=0.1)
        pretrain(model, pool, np.arange(24), config, seed=2)
        fresh = build_model(cfg, seed=3)
        assert model.params["proj0.w"].tobytes() != fresh.params["proj0.w"].tobytes()
        for name in ("head.w", "head.b"):
            assert model.params[name].tobytes() == fresh.params[name].tobytes(), name

    def test_fine_tuning_leaves_the_projection_header_untouched(self):
        model = build_model(small_config(), seed=4)
        rng = np.random.default_rng(5)
        pool = rng.standard_normal((24, 6))
        pretrain(model, pool, np.arange(24), ContrastiveConfig(steps=4, batch_size=8), seed=2)
        pretrained = model.copy()
        config = SSLConfig(steps=5, batch_size=4, lr=0.05, lam=0.5, aux_bn=True,
                           augment=AugmentConfig(noise_sigma=0.2, stream="train.augment"))
        labeled_q = one_hot(rng.integers(1, 3, size=6), 2)
        out_q = np.full((8, 2), 0.5)
        state = init_train_state(model, config)
        train(state, pool[:6], labeled_q, np.arange(6, 14), pool[6:14], pool[14:22], out_q,
              config, seed=1)
        assert model.params["head.w"].tobytes() != pretrained.params["head.w"].tobytes()
        for name in ("proj0.w", "proj0.b", "proj1.w", "proj1.b"):
            assert model.params[name].tobytes() == pretrained.params[name].tobytes(), name

    def test_simclr_step_of_criterion_6_shape_builds_at_most_34_nodes(self):
        # criterion 6: 16 features, encoder 64-64/64, projection 32, 8
        # classes, a batch of 128 (256 views in one NT-Xent)
        model = build_model(CRITERION_6_MODEL, seed=0)
        batch = np.random.default_rng(6).standard_normal((128, 16))
        loss = simclr_batch_loss(model, batch, ContrastiveConfig(batch_size=128))
        assert len(loss.builder.graph) <= 29

    def test_fine_tuning_step_of_criterion_8_shape_builds_at_most_54_nodes(self):
        # criterion 8: the criterion-6 model, batches of 64, all three terms
        model = build_model(CRITERION_6_MODEL, seed=0)
        rng = np.random.default_rng(8)
        config = SSLConfig(beta=3.0, lam=0.5, batch_size=64,
                           augment=AugmentConfig(noise_sigma=0.5, stream="train.augment"))
        cons_x, cons_t = prepare_consistency(
            model, rng.standard_normal((64, 16)), range(64), config, 0, 0
        )
        plan = StepPlan(labeled_x=rng.standard_normal((64, 16)),
                        labeled_q=one_hot(rng.integers(1, 9, size=64), 8),
                        cons_x=cons_x, cons_targets=cons_t,
                        out_x=rng.standard_normal((64, 16)), out_q=np.full((64, 8), 1 / 8))
        loss = build_step_loss(model, plan, config)
        assert set(loss.terms) == {"supervised", "consistency", "aux"}
        assert len(loss.builder.graph) <= 39


class TestBatchMomentsOncePerLayer:
    """A train-mode batch-norm layer computes its batch moments once per
    step: the tape node keeps them for its VJP and for the batch
    statistics."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = {"n": 0}

        def counting(h, eps):
            counter["n"] += 1
            return batch_moments(h, eps)

        monkeypatch.setattr(autodiff, "batch_moments", counting)
        return counter

    def test_simclr_step_of_criterion_6_shape(self, calls):
        model = build_model(CRITERION_6_MODEL, seed=0)
        batch = np.random.default_rng(6).standard_normal((128, 16))
        loss = simclr_batch_loss(model, batch, ContrastiveConfig(batch_size=128))
        loss.parameter_gradients()
        assert calls["n"] == len(CRITERION_6_MODEL.encoder_dims) == 3

    def test_fine_tuning_step_with_the_aux_term(self, calls):
        model = build_model(CRITERION_6_MODEL, seed=0)
        rng = np.random.default_rng(9)
        config = SSLConfig(lam=0.5, batch_size=16, aux_bn=True)
        plan = StepPlan(labeled_x=rng.standard_normal((16, 16)),
                        labeled_q=one_hot(rng.integers(1, 9, size=16), 8),
                        out_x=rng.standard_normal((16, 16)), out_q=np.full((16, 8), 1 / 8))
        loss = build_step_loss(model, plan, config)
        loss.parameter_gradients()
        assert calls["n"] == len(CRITERION_6_MODEL.encoder_dims)


class TestCosineSimilarity:
    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_positive_scaling(self):
        assert cosine_similarity([2.0, 0.0], [1.0, 0.0]) == 1.0

    def test_45_degrees(self):
        assert abs(cosine_similarity([1.0, 1.0], [1.0, 0.0]) - 1 / np.sqrt(2)) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = rng.standard_normal(5)
            v = rng.standard_normal(5)
            a, b = rng.uniform(0.1, 10, size=2)
            assert abs(
                cosine_similarity(a * u, b * v) - cosine_similarity(u, v)
            ) < 1e-12

    def test_zero_vector_returns_zero(self):
        assert cosine_similarity([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            assert -1.0 - 1e-12 <= cosine_similarity(u, v) <= 1.0 + 1e-12

    def test_matrix_shape(self):
        sims = cosine_similarity(np.ones((5, 3)), np.ones((2, 3)))
        assert sims.shape == (5, 2)
        assert cosine_similarity(np.ones((0, 3)), np.ones((2, 3))).shape == (0, 2)

    def test_zero_row_and_zero_prototype_give_exact_zero(self):
        a = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [-0.0, 0.0, -0.0]])
        b = np.array([[3.0, 0.0, 4.0], [0.0, 0.0, 0.0]])
        with np.errstate(all="raise"):
            sims = cosine_similarity(a, b)
        assert sims[0].tolist() == [0.0, 0.0] and sims[2].tolist() == [0.0, 0.0]
        assert sims[1, 1] == 0.0
        assert abs(sims[1, 0] - 11.0 / 15.0) < 1e-15
        assert not np.signbit(sims[[0, 2]]).any()

    def test_norms_either_side_of_the_cutoff(self):
        unit = np.array([[1.0, 0.0]])
        for norm, expected in ((0.99e-12, 0.0), (1e-12, 1.0), (1.01e-12, 1.0)):
            tiny = np.array([[norm, 0.0]])
            with np.errstate(all="raise"):
                assert cosine_similarity(tiny, unit)[0, 0] == expected
                assert cosine_similarity(unit, tiny)[0, 0] == expected

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(1, 9),
        shape=st.tuples(st.integers(1, 7), st.integers(1, 5)),
        data=st.data(),
    )
    @example(d=2, shape=(2, 1), data=None)
    def test_matrix_is_byte_equal_to_per_pair_reference(self, d, shape, data):
        elems = st.floats(-1e6, 1e6) | st.sampled_from(
            [0.0, -0.0, 1e-13, -7e-13, 1e-12, 5e-324, 1e-300, np.nan, np.inf]
        )
        n, m = shape
        if data is None:  # a zero row against a NaN prototype
            a, b = np.array([[0.0, 0.0], [1.0, -1.0]]), np.array([[np.nan, 1.0]])
        else:
            a = np.array(data.draw(st.lists(elems, min_size=n * d, max_size=n * d))).reshape(n, d)
            b = np.array(data.draw(st.lists(elems, min_size=m * d, max_size=m * d))).reshape(m, d)
        with np.errstate(all="ignore"):
            sims = cosine_similarity(a, b)
            expected = np.array([[reference_cosine(u, v) for v in b] for u in a])
        assert sims.tobytes() == expected.tobytes()

    def test_detection_sized_matrix_is_byte_equal_to_per_pair_reference(self):
        # small matrices can round as a gemm does; at this size `a @ b.T`
        # and `np.linalg.norm(a, axis=1)` differ from the per-pair floats
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal((400, 32)), rng.standard_normal((8, 32))
        a[::97] = 0.0
        expected = np.array([[reference_cosine(u, v) for v in b] for u in a])
        assert cosine_similarity(a, b).tobytes() == expected.tobytes()


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = build_model(small_config(), seed=9)
        rng = np.random.default_rng(10)
        train_forward(model, rng.standard_normal((8, 6)), branch="main")
        train_forward(model, rng.standard_normal((8, 6)), branch="aux")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.params.keys() == model.params.keys()
        for name in model.params:
            assert loaded.params[name].tobytes() == model.params[name].tobytes()
        for name in model.stats:
            assert loaded.stats[name].tobytes() == model.stats[name].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(config=model_configs, seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_is_bit_exact_for_any_config(self, config, seed):
        model = build_model(config, seed)
        rng = np.random.default_rng(seed)
        special = [-0.0, 5e-324, 5e300, np.inf, -np.inf, np.nan]
        for arrays in (model.params, model.stats):
            for name, value in arrays.items():
                value = rng.standard_normal(value.shape) * 10.0 ** rng.integers(-300, 300)
                value.flat[0] = rng.choice(special)
                arrays[name] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.ckpt")
            save_checkpoint(path, model)
            loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for ours, theirs in ((loaded.params, model.params), (loaded.stats, model.stats)):
            assert list(ours) == list(theirs)
            for name, value in theirs.items():
                assert ours[name].shape == value.shape
                assert ours[name].tobytes() == value.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(config=model_configs, position=st.integers(0, 2**32))
    @example(config=small_config(), position=0)
    @example(config=small_config(), position=3)
    @example(config=small_config(), position=4)
    def test_file_cut_anywhere_fails_naming_the_path(self, config, position):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.ckpt")
            save_checkpoint(path, build_model(config, seed=0))
            with open(path, "rb") as fh:
                blob = fh.read()
            with open(path, "wb") as fh:
                fh.write(blob[: position % len(blob)])
            with pytest.raises(ValueError) as err:
                load_checkpoint(path)
        assert str(err.value).startswith(f"checkpoint {path}: ")

    def test_both_branch_stats_in_file(self, tmp_path):
        model = build_model(small_config(), seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert any(".main." in k for k in loaded.stats)
        assert any(".aux." in k for k in loaded.stats)

    def test_truncated_file_names_path_and_array(self, tmp_path):
        model = build_model(small_config(), seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        data = path.read_bytes()
        last = list(model.stats)[-1]
        path.write_bytes(data[:-3])
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*{last}"):
            load_checkpoint(path)
        path.write_bytes(data[:10])
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*manifest"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = build_model(small_config(), seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        with open(path, "ab") as fh:
            fh.write(b"\0" * 8)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new, fault", [
        (b'"enc0.w"', b'"\xffnc0.w"',
         "'utf-8' codec can't decode byte 0xff in position 39: invalid start byte"),
        (b'"arrays": [', b'"arrays": {',
         "manifest: line 1, column 13: Expecting property name enclosed in double quotes"),
        (b'"bn_epsilon": 1e-05', b'"bn_epsilon": NaN  ',
         "manifest: line 1, column 1223: NaN is not a JSON value"),
        (b'"arrays"', b'"arrayz"', "manifest has no field 'arrays'"),
        (b'"shape"', b'"shapx"', "manifest has no field 'shape'"),
        (b'"embed_dim"', b'"embed_dix"',
         "unknown ModelConfig keys: embed_dix"),
        (b'"format_version": 1', b'"format_version": 2', "unsupported checkpoint version 2"),
        # the manifest parses, but its arrays are not the config's layout
        (b'"shape": [6, 5]', b'"shape": [5, 6]',
         "array 'enc0.w' has shape [5, 6], expected [6, 5]"),
        (b'"shape": [6, 5]', b'"shape":[6.0,5]',
         "array 'enc0.w' has shape [6.0, 5], expected [6, 5]"),
        (b'"kind": "param", "name": "enc0.bn.scale", "shape": [1, 5]',
         b'"kind":"param", "name": "enc0.bn.scale", "shape":[true,5]',
         "array 'enc0.bn.scale' has shape [True, 5], expected [1, 5]"),
        (b'"kind": "param", "name": "enc0.w"', b'"kind": "stat" , "name": "enc0.w"',
         "array 'enc0.w' has kind 'stat', expected 'param'"),
        (b'"enc0.w"', b'"enc9.w"', "array 'enc9.w' is unexpected"),
        (b'"head.b"', b'"head.w"', "array 'head.w' is unexpected"),
        (b'{"kind": "param", "name": "head.b", "shape": [1, 2]}, ', b' ' * 54,
         "array 'head.b' is missing"),
    ], ids=["utf8", "json", "nan", "key", "shape", "config", "version",
            "array-shape", "array-shape-real", "array-shape-bool", "array-kind", "array-unexpected", "array-repeated", "array-missing"])
    def test_manifest_fault_names_the_path_and_the_field(self, tmp_path, old, new, fault):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_model(small_config(), seed=9))
        data = path.read_bytes()
        assert len(old) == len(new) and old in data
        path.write_bytes(data.replace(old, new, 1))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"checkpoint {path}: {fault}"

    def test_nan_bn_epsilon_does_not_round_trip(self, tmp_path):
        # the config refuses it, and a model that got one anyway is not saved
        with pytest.raises(ValueError, match="bn_epsilon must be positive"):
            build_model(ModelConfig(input_dim=3, bn_epsilon=float("nan")), 0)
        model = build_model(ModelConfig(input_dim=3), 0)
        object.__setattr__(model.config, "bn_epsilon", float("nan"))
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_checkpoint(path, model)
        assert not path.exists()

    def test_version_check(self, tmp_path):
        import json
        import struct

        manifest = json.dumps({"format_version": 99, "config": {}, "arrays": []})
        path = tmp_path / "bad.ckpt"
        with open(path, "wb") as fh:
            fh.write(struct.pack("<I", len(manifest)))
            fh.write(manifest.encode())
        with pytest.raises(ValueError):
            load_checkpoint(path)
