"""Augmentation family, paired-view contrastive loss against a brute-force
evaluation, and pretraining behavior."""

import re
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    reference_augment_batch,
    reference_calibration_batches,
    reference_pretrain_batches,
    train_forward,
)
from openset_ssl import augment as augment_module
from openset_ssl import rng as rng_mod
from openset_ssl.augment import AugmentConfig, augment_batch
from openset_ssl.contrastive import (
    _CALIBRATION_PASSES,
    ContrastiveConfig,
    _epochs,
    calibrate_running_stats,
    ntxent_matrix_loss,
    pretrain,
    simclr_batch_loss,
)
from openset_ssl.model import GraphBuilder, ModelConfig, build_model


def brute_force_pair_loss(projections, tau):
    """Direct query-by-query evaluation over the 2N views.

    Independent of the library path: cosines by explicit dot/norm, the
    denominator by explicit summation over every non-query candidate.
    """

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
        denom = 0.0
        for i in range(two_n):
            if i != q:
                denom += np.exp(cos(projections[q], projections[i]) / tau)
        total += -np.log(numer / denom)
    return total / two_n


def null_augment(stream="augment"):
    return AugmentConfig(noise_sigma=0.0, jitter_range=(1.0, 1.0), mask_fraction=0.0, stream=stream)


class TestAugment:
    def test_null_config_is_identity(self):
        cfg = null_augment()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 12))
        out = augment_batch(x, [3, 4, 2**40], cfg, seed=0, step=0, view=0)
        assert np.array_equal(out, x)

    def test_same_rng_state_twice_is_identical(self):
        cfg = AugmentConfig(noise_sigma=0.3, jitter_range=(0.7, 1.3), mask_fraction=0.25)
        x = np.tile(np.random.default_rng(1).standard_normal(10), (2, 1))
        a = augment_batch(x, [9, 9], cfg, 5, 2, 1)
        b = augment_batch(x, [9, 9], cfg, 5, 2, 1)
        assert np.array_equal(a, b)
        assert np.array_equal(a[0], a[1])  # same row and key, same view

    def test_noise_variance_monte_carlo(self):
        sigma = 0.7
        cfg = AugmentConfig(noise_sigma=sigma, jitter_range=(1.0, 1.0), mask_fraction=0.0)
        x = np.zeros((10_000, 10))
        draws = augment_batch(x, range(10_000), cfg, 0, 0, 0)
        assert abs(draws.var() - sigma**2) < 0.05 * sigma**2

    def test_mask_fraction_zeroes_floor_count(self):
        cfg = AugmentConfig(noise_sigma=0.0, jitter_range=(1.0, 1.0), mask_fraction=0.25)
        x = np.ones((5, 10))
        out = augment_batch(x, range(5), cfg, 0, 0, 0)
        assert ((out == 0.0).sum(axis=1) == 2).all()  # floor(0.25 * 10)

    def test_views_keyed_by_sample_id_not_position(self):
        cfg = AugmentConfig(noise_sigma=0.4)
        rng = np.random.default_rng(2)
        batch = rng.standard_normal((4, 6))
        ids = [10, 11, 12, 13]
        views = augment_batch(batch, ids, cfg, seed=1, step=3, view=0)
        perm = [2, 0, 3, 1]
        views_perm = augment_batch(batch[perm], [ids[i] for i in perm], cfg, seed=1, step=3, view=0)
        assert np.array_equal(views[perm], views_perm)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            AugmentConfig(jitter_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            AugmentConfig(mask_fraction=1.0)
        with pytest.raises(ValueError):
            AugmentConfig(noise_sigma=-1.0)

    def test_bad_ids_rejected(self):
        with pytest.raises(ValueError):
            augment_batch(np.zeros((2, 3)), [1, -1], AugmentConfig(), 0, 0, 0)
        with pytest.raises(ValueError):
            augment_batch(np.zeros((2, 3)), [1], AugmentConfig(), 0, 0, 0)

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4)])
    def test_batch_that_is_not_2d_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            augment_batch(np.zeros(shape), [1, 2, 3][:shape[0]], AugmentConfig(), 0, 0, 0)

    def test_package_attribute_is_the_submodule(self):
        import openset_ssl

        assert openset_ssl.augment is augment_module
        assert openset_ssl.augment.augment_batch is augment_batch

    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(st.one_of(st.integers(0, 2**70),
                               st.sampled_from([0, 2**32 - 1, 2**32, 2**64])), max_size=9),
        # 16 and 64 wide, a row's noise often leaves the ziggurat's one-output path
        dim=st.one_of(st.integers(1, 12), st.sampled_from([16, 64])),
        mask_fraction=st.sampled_from([0.0, 0.1, 0.25, 0.5]),
        sigma=st.sampled_from([0.0, 0.4, 1.3]),
        jitter=st.sampled_from([(1.0, 1.0), (0.8, 1.2), (0.5, 2.0)]),
        stream=st.sampled_from(["augment", "pretrain.augment", "train.augment"]),
        seed=st.integers(0, 2**40),
        step=st.integers(0, 2**33),
        view=st.integers(0, 2),
    )
    def test_matches_per_row_stream_oracle(self, ids, dim, mask_fraction, sigma, jitter,
                                           stream, seed, step, view):
        cfg = AugmentConfig(noise_sigma=sigma, jitter_range=jitter,
                            mask_fraction=mask_fraction, stream=stream)
        batch = np.random.default_rng(seed % 1000).standard_normal((len(ids), dim))
        expected = reference_augment_batch(batch, ids, cfg, seed, step, view)
        assert np.array_equal(augment_batch(batch, ids, cfg, seed, step, view), expected)

    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(st.one_of(st.integers(0, 2**70),
                               st.sampled_from([0, 7, 2**32 - 1, 2**32, 2**63, 2**64])),
                     max_size=9),
        views=st.lists(st.integers(0, 3), min_size=1, max_size=3),
        mask_fraction=st.sampled_from([0.0, 0.25]),
        seed=st.integers(0, 2**40),
        step=st.integers(0, 2**33),
    )
    def test_views_in_one_call_match_per_view_oracle(self, ids, views, mask_fraction,
                                                     seed, step):
        cfg = AugmentConfig(noise_sigma=0.7, mask_fraction=mask_fraction, stream="augment")
        batch = np.random.default_rng(seed % 1000).standard_normal((len(ids), 8))
        expected = np.concatenate(
            [reference_augment_batch(batch, ids, cfg, seed, step, v) for v in views]
        )
        got = augment_batch(batch, ids, cfg, seed, step, views)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    # (sample id, mask_fraction, normals that leave the one-output path) of
    # the stream ("augment", seed 0, step 0, id, view 0) at dim 16, found by
    # search over ids: the first, a middle and the last normal rejected,
    # the tail of idx 0, idx 1 (ki = 0), and a masked row after a rejection
    REJECTIONS = {
        "first": (271, 0.0, [0]),
        "middle": (14, 0.0, [8, 11]),
        "last": (16, 0.0, [15]),
        "idx-0-tail": (138, 0.0, [11]),
        "idx-1": (41, 0.0, [8, 15]),
        "masked-after-rejection": (14, 0.25, [8, 11]),
    }

    @pytest.mark.parametrize("case", sorted(REJECTIONS))
    def test_rows_off_the_one_output_path_match_the_oracle(self, case):
        sid, mask_fraction, rejected = self.REJECTIONS[case]
        raw = rng_mod.stream(0, "augment", 0, sid, 0).bit_generator.random_raw(17)
        _, accepted = rng_mod.standard_normals(raw[1:])
        assert np.flatnonzero(~accepted).tolist() == rejected
        layer = {"idx-0-tail": 0, "idx-1": 1}.get(case)
        assert layer is None or raw[1 + rejected[0]] & 0xFF == layer
        cfg = AugmentConfig(noise_sigma=0.7, mask_fraction=mask_fraction)
        batch = np.random.default_rng(sid).standard_normal((3, 16))
        ids = [sid, 5, sid + 1]
        got = augment_batch(batch, ids, cfg, 0, 0, 0)
        assert got.tobytes() == reference_augment_batch(batch, ids, cfg, 0, 0, 0).tobytes()

    @pytest.mark.parametrize("mask_fraction", [0.0, 0.25])
    def test_every_row_falling_back_is_bit_equal(self, monkeypatch, mask_fraction):
        wi, bound = rng_mod._ziggurat()
        monkeypatch.setattr(rng_mod, "_ziggurat", lambda: (wi, 0 * bound))
        cfg = AugmentConfig(noise_sigma=0.7, mask_fraction=mask_fraction)
        batch = np.random.default_rng(2).standard_normal((40, 16))
        ids = list(range(0, 400, 10))
        expected = np.concatenate(
            [reference_augment_batch(batch, ids, cfg, 3, 4, v) for v in (0, 1)]
        )
        assert augment_batch(batch, ids, cfg, 3, 4, (0, 1)).tobytes() == expected.tobytes()

    def test_views_in_one_call_with_duplicate_ids_zero_and_an_empty_batch(self):
        cfg = AugmentConfig(mask_fraction=0.25)
        batch = np.random.default_rng(3).standard_normal((4, 8))
        ids = [0, 0, 2**32 + 1, 0]
        expected = np.concatenate(
            [reference_augment_batch(batch, ids, cfg, 1, 2, v) for v in (0, 1)]
        )
        assert augment_batch(batch, ids, cfg, 1, 2, (0, 1)).tobytes() == expected.tobytes()
        assert augment_batch(np.zeros((0, 8)), [], cfg, 1, 2, (0, 1)).shape == (0, 8)


    @settings(max_examples=40, deadline=None)
    @given(
        ids=st.lists(st.integers(0, 2**40), max_size=9),
        # 16 wide, a row's noise often leaves the ziggurat's one-output path
        dim=st.sampled_from([3, 8, 16]),
        mask_fraction=st.sampled_from([0.0, 0.25]),
        sigma=st.sampled_from([0.0, 0.3, 0.8]),
        seed=st.integers(0, 2**40),
        step=st.integers(0, 2**33),
    )
    def test_a_config_per_view_matches_a_call_per_view(self, ids, dim, mask_fraction, sigma,
                                                       seed, step):
        # the hard-pseudo weak and strong views, as prepare_consistency draws them
        weak = AugmentConfig(noise_sigma=sigma, mask_fraction=mask_fraction, stream="train.augment")
        strong = AugmentConfig(noise_sigma=2 * sigma, mask_fraction=mask_fraction,
                               stream="train.augment")
        batch = np.random.default_rng(seed % 1000).standard_normal((len(ids), dim))
        got = augment_batch(batch, ids, (weak, strong), seed, step, (0, 1))
        expected = np.concatenate([augment_batch(batch, ids, weak, seed, step, 0),
                                   augment_batch(batch, ids, strong, seed, step, 1)])
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        # one config given once per view is that config for every view
        alike = augment_batch(batch, ids, (weak, weak), seed, step, (0, 1))
        assert alike.tobytes() == augment_batch(batch, ids, weak, seed, step, (0, 1)).tobytes()

    @pytest.mark.parametrize("field, value", [
        ("stream", "other.augment"), ("jitter_range", (0.5, 1.5)), ("mask_fraction", 0.25),
    ])
    def test_configs_of_one_call_differing_beyond_the_noise_are_rejected(self, field, value):
        base = AugmentConfig(noise_sigma=0.3, mask_fraction=0.0)
        other = replace(base, noise_sigma=0.6, **{field: value})
        with pytest.raises(ValueError, match=f"differ in {field}$"):
            augment_batch(np.zeros((2, 4)), [1, 2], (base, other), 0, 0, (0, 1))

    @pytest.mark.parametrize("count, view", [(1, (0, 1)), (2, 0), (3, (0, 1)), (0, (0,))])
    def test_a_config_count_other_than_the_view_count_is_rejected(self, count, view):
        configs = (AugmentConfig(),) * count
        with pytest.raises(ValueError, match=f"^{count} augment configs for "):
            augment_batch(np.zeros((2, 4)), [1, 2], configs, 0, 0, view)

def matrix_loss_value(projections, tau):
    model = build_model(ModelConfig(input_dim=2, embed_dim=2, proj_dim=2), seed=0)
    builder = GraphBuilder(model)
    z = builder.const(np.asarray(projections, dtype=np.float64))
    return float(builder.graph.value(ntxent_matrix_loss(builder, z, tau)))


class TestPairedBatchLoss:
    def test_identical_projections_give_log3(self):
        z = np.tile([0.6, 0.8], (4, 1))  # N=2, all views identical
        assert abs(matrix_loss_value(z, 0.5) - np.log(3.0)) < 1e-10

    def test_n1_is_zero(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((2, 3))
        assert abs(matrix_loss_value(z, 0.5)) < 1e-12

    def test_matches_brute_force_for_small_batches(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 4):
            z = rng.standard_normal((2 * n, 5))
            mine = matrix_loss_value(z, 0.5)
            ref = brute_force_pair_loss(list(z), 0.5)
            assert abs(mine - ref) < 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            z = rng.standard_normal((8, 4))
            assert matrix_loss_value(z, 0.3) >= 0.0

    def test_antipodal_positive_at_small_temperature_is_finite(self):
        # rows 0 and 2 are each other's positive at cosine -1: each loses
        # 1/tau + log 2, rows 1 and 3 are identical and lose 0
        z = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, 1.0]]
        loss = matrix_loss_value(z, 0.001)
        assert np.isfinite(loss)
        assert abs(loss - (1000.0 / 2 + np.log(2.0) / 2)) < 1e-9

    def test_invariant_to_common_rescaling(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((6, 4))
        for c in (0.01, 3.0, 250.0):
            assert abs(matrix_loss_value(z, 0.5) - matrix_loss_value(c * z, 0.5)) < 1e-10


def tiny_model(seed=0):
    return build_model(
        ModelConfig(input_dim=6, hidden_dims=(8,), embed_dim=5, proj_dim=4), seed=seed
    )


def tiny_cfg(**kw):
    defaults = dict(
        tau_con=0.5,
        batch_size=4,
        steps=0,
        lr=0.05,
        augment=AugmentConfig(noise_sigma=0.2, stream="pretrain.augment"),
    )
    defaults.update(kw)
    return ContrastiveConfig(**defaults)


class TestSimclrBatchLoss:
    def test_equals_brute_force_on_model_projections(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 4):
            model = tiny_model(seed=n)
            batch = rng.standard_normal((n, 6))
            cfg = tiny_cfg(batch_size=max(n, 2))  # the loss itself takes any n >= 1
            loss = simclr_batch_loss(model, batch, cfg, seed=9, step=0)

            twin = tiny_model(seed=n)
            from openset_ssl.augment import augment_batch as ab

            v1 = ab(batch, range(n), cfg.augment, 9, 0, 0)
            v2 = ab(batch, range(n), cfg.augment, 9, 0, 1)
            views = np.concatenate([v1, v2])
            projections = train_forward(twin, views, head="projection")
            ref = brute_force_pair_loss(list(projections), cfg.tau_con)
            assert abs(loss.value - ref) < 1e-10

    def test_permuting_batch_leaves_loss_unchanged(self):
        rng = np.random.default_rng(9)
        batch = rng.standard_normal((6, 6))
        ids = [20, 21, 22, 23, 24, 25]
        cfg = tiny_cfg(batch_size=6)
        a = simclr_batch_loss(tiny_model(), batch, cfg, seed=3, step=5, ids=ids).value
        perm = [4, 2, 0, 5, 1, 3]
        b = simclr_batch_loss(
            tiny_model(), batch[perm], cfg, seed=3, step=5, ids=[ids[i] for i in perm]
        ).value
        assert abs(a - b) < 1e-10


class TestContrastiveConfig:
    def test_batch_size_below_two_rejected_naming_the_field(self):
        # one row per batch passes every step, then train-mode batch norm
        # in calibrate_running_stats cannot normalize it
        for size in (1, 0):
            with pytest.raises(ValueError, match="batch_size"):
                ContrastiveConfig(batch_size=size)
        assert ContrastiveConfig(batch_size=2).batch_size == 2


class TestPretrain:
    def test_zero_steps_leaves_model_unchanged(self):
        model = tiny_model()
        before = {k: v.tobytes() for k, v in model.params.items()}
        pool = np.random.default_rng(10).standard_normal((16, 6))
        pretrain(model, pool, np.arange(16), tiny_cfg(steps=0), seed=0)
        assert {k: v.tobytes() for k, v in model.params.items()} == before

    def test_same_seed_bit_identical(self):
        pool = np.random.default_rng(11).standard_normal((20, 6))

        def run():
            model = tiny_model()
            pretrain(model, pool, np.arange(20), tiny_cfg(steps=5), seed=4)
            return {k: v.tobytes() for k, v in model.params.items()}

        assert run() == run()

    def test_pool_smaller_than_batch_rejected(self):
        with pytest.raises(ValueError):
            pretrain(
                tiny_model(),
                np.zeros((2, 6)),
                np.arange(2),
                tiny_cfg(batch_size=4, steps=1),
                seed=0,
            )

    def test_loss_decreases_on_clustered_pool(self):
        # 8 well-separated clusters; later steps should beat early steps
        rng = np.random.default_rng(12)
        centers = rng.standard_normal((8, 6)) * 6.0
        pool = np.concatenate(
            [c + 0.5 * rng.standard_normal((12, 6)) for c in centers]
        )
        model = tiny_model(seed=1)
        cfg = tiny_cfg(
            steps=120,
            batch_size=16,
            lr=0.1,
            augment=AugmentConfig(noise_sigma=0.2, mask_fraction=0.0, stream="pretrain.augment"),
        )
        _, trace = pretrain(model, pool, np.arange(len(pool)), cfg, seed=5)
        losses = [v for _, v in trace]
        head = np.mean(losses[: max(1, len(losses) // 10)])
        tail = np.mean(losses[-max(1, len(losses) // 10) :])
        assert tail < head

    def test_trace_written(self, tmp_path):
        pool = np.random.default_rng(13).standard_normal((8, 6))
        path = tmp_path / "trace.csv"
        pretrain(tiny_model(), pool, np.arange(8), tiny_cfg(steps=3), seed=0, trace_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 4


class TestEpochs:
    """`_epochs` draws the index batches of the two samplers it replaced,
    and leaves their generators in the same state."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 40), data=st.data(), steps=st.integers(0, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_pretraining_sampler(self, n, data, steps, seed):
        batch_size = data.draw(st.integers(1, n), label="batch_size")
        gen = rng_mod.stream(seed, "pretrain.shuffle")
        ref = rng_mod.stream(seed, "pretrain.shuffle")
        got = [b.tolist() for b in islice(_epochs(gen, n, batch_size), steps)]
        want = reference_pretrain_batches(ref, n, batch_size, steps)
        assert got == [[int(i) for i in b] for b in want]
        assert gen.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 30), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_calibration_makes_the_passes_of_the_reference(self, n, data, seed):
        batch_size = data.draw(st.integers(2, n), label="batch_size")
        pool = np.random.default_rng(seed).standard_normal((n, 6))
        found, expected = tiny_model(), tiny_model()
        calibrate_running_stats(found, pool, batch_size, seed)
        ref = rng_mod.stream(seed, "pretrain.calibrate")
        for take in reference_calibration_batches(ref, n, batch_size, _CALIBRATION_PASSES):
            train_forward(expected, pool[take])  # a GraphBuilder graph, moments committed
        assert {k: v.tobytes() for k, v in found.stats.items()} == {
            k: v.tobytes() for k, v in expected.stats.items()}
