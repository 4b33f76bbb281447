"""Named streams and the lockstep draws that reproduce them."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openset_ssl import rng
from openset_ssl.augment import AugmentConfig, augment_batch


def check_rows_match_stream(seed, label, step, block, count):
    """Row i of `stream_outputs` is `stream(seed, label, step, *block[i])`:
    its first `count` raw outputs, and its state after 1, count // 2 + 1
    and count of them."""
    raw, stepped = rng.stream_outputs(seed, label, step, block, count)
    assert raw.shape == (len(block), count) and raw.dtype == np.uint64
    keys = [[int(k) for k in row] for row in block]
    for row, out in zip(keys, raw):
        bitgen = rng.stream(seed, label, step, *row).bit_generator
        assert np.array_equal(out, bitgen.random_raw(count)), row
    rows = np.arange(len(keys))
    for draws in sorted({1, count // 2 + 1, count}):
        for row, state in zip(keys, stepped(rows, np.full(len(rows), draws))):
            bitgen = rng.stream(seed, label, step, *row).bit_generator
            bitgen.random_raw(draws)
            assert state == bitgen.state, (row, draws)


class TestStreamStates:
    """The streams `stream_outputs` seeds, in each seeding path, are the
    streams `rng.stream` builds."""

    @settings(max_examples=60, deadline=None)
    @given(
        head=st.lists(st.integers(0, 2**32 - 1), min_size=4, max_size=8),
        entropy=st.integers(0, 8).flatmap(lambda width: st.lists(
            st.lists(st.integers(0, 2**32 - 1), min_size=width, max_size=width),
            min_size=1, max_size=6))
    )
    def test_generate_state_matches_seed_sequence(self, head, entropy):
        words = np.array(entropy, dtype=np.uint32).reshape(len(entropy), -1)
        got = rng._generate_state(words, head)
        assert got.dtype == np.uint64
        for row, out in zip(words.tolist(), got):
            expected = np.random.SeedSequence(np.array(head + row, dtype=np.uint32))
            assert np.array_equal(out, expected.generate_state(4, np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**70),
        label=st.sampled_from(["augment", "pretrain.augment", "train.augment", ""]),
        step=st.integers(0, 2**40),
        ids=st.lists(st.integers(0, 2**100), max_size=5),
    )
    # keys either side of 2^32 take the two seeding paths in one call
    @example(seed=9, label="augment", step=4, ids=[2**32 - 1, 2**32, 1, 2**32])
    def test_states_match_stream(self, seed, label, step, ids):
        block = rng.key_array(ids).reshape(-1, 1)
        check_rows_match_stream(seed, label, step, block, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**70),
        label=st.sampled_from(["augment", "pretrain.augment", ""]),
        step=st.integers(0, 2**40),
        block=st.integers(1, 3).flatmap(lambda k: st.lists(
            st.lists(st.one_of(st.integers(0, 2**100),
                               st.sampled_from([0, 2**32 - 1, 2**32, 2**63, 2**64])),
                     min_size=k, max_size=k),
            min_size=1, max_size=6)),
    )
    # a key of 2^32 or more beside a narrow one, in one row and across rows
    @example(seed=9, label="augment", step=4,
             block=[[2**32 - 1, 2**32], [2**32 - 1, 0], [2**32, 2**32], [1, 2**32 - 1]])
    def test_block_states_match_stream_row_by_row(self, seed, label, step, block):
        check_rows_match_stream(seed, label, step, rng.key_array(block), 2)

    def test_uint64_block_keeps_keys_past_int64_exact(self):
        block = np.array([[2**63 + 5, 0], [1, 2**64 - 1]], dtype=np.uint64)
        check_rows_match_stream(1, "x", 2, block, 2)

    def test_loaded_state_reproduces_draws(self):
        _, stepped = rng.stream_outputs(3, "x", 7, rng.key_array([[2**33 + 5, 1]]), 4)
        (state,) = stepped(np.arange(1), np.array([4]))
        bitgen = np.random.PCG64()
        bitgen.state = state
        expected = rng.stream(3, "x", 7, 2**33 + 5, 1)
        expected.bit_generator.random_raw(4)
        assert np.array_equal(np.random.Generator(bitgen).standard_normal(50),
                              expected.standard_normal(50))

    def test_negative_key_rejected(self):
        for block, bad in [([[1], [-2]], -2), ([[1, 2], [3, -4]], -4), ([[2**64], [-1]], -1)]:
            with pytest.raises(ValueError) as err:
                rng.stream_outputs(0, "x", 0, rng.key_array(block), 1)
            assert str(err.value) == f"stream keys must be nonnegative integers, got {bad}"
        with pytest.raises(ValueError):
            rng.stream_outputs(-1, "x", 0, rng.key_array([[1]]), 1)

    def test_short_head_rows_seeded_on_their_own(self, monkeypatch):
        """A label digest below 2^32 with a seed below 2^32 gives a head of
        three words, short of the pool: every row is seeded by its own
        `SeedSequence`, as `stream` seeds it."""
        monkeypatch.setattr(rng, "_label_entropy", lambda label: 0x9E3779B9)
        block = rng.key_array([[0, 0], [2**32 - 1, 1], [5, 2**32], [7, 1]])
        built = []
        seed_sequence = np.random.SeedSequence

        def counted(*args, **kwargs):
            built.append(args)
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(rng.np.random, "SeedSequence", counted)
        rng.stream_outputs(3, "augment", 2, block, 1)
        assert len(built) == len(block)
        monkeypatch.setattr(rng.np.random, "SeedSequence", seed_sequence)
        check_rows_match_stream(3, "augment", 2, block, 5)

    def test_pretrain_shape_builds_no_seed_sequence_per_row(self, monkeypatch):
        """At the pretraining workload's shape (128 ids x 2 views, dim 16)
        every key is below 2^32, so every row is seeded in the vectorized
        pass: the one `SeedSequence` a call builds is the shared head's,
        and a second one raises."""
        batch = np.random.default_rng(0).standard_normal((128, 16))
        ids = np.arange(4_000, 4_128)
        config = AugmentConfig(stream="pretrain.augment")
        expected = augment_batch(batch, ids, config, 1, 7, (0, 1))
        built = []
        seed_sequence = np.random.SeedSequence

        def first_only(*args, **kwargs):
            if built:
                raise AssertionError("a row was seeded on its own")
            built.append(args)
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(rng.np.random, "SeedSequence", first_only)
        got = augment_batch(batch, ids, config, 1, 7, (0, 1))
        assert len(built) == 1 and got.tobytes() == expected.tobytes()


KEYS_PAST_WORDS = [0, 2**32 - 1, 2**32, 2**63, 2**64, 2**70]


class TestLockstepOutputs:
    @pytest.mark.parametrize("count", [1, 2, 17, 65])
    def test_outputs_and_stepped_states_match_the_stream(self, count):
        block = rng.key_array([[key, 1] for key in KEYS_PAST_WORDS])
        check_rows_match_stream(5, "augment", 3, block, count)

    def test_crafted_state_outputs_the_word(self):
        bitgen = np.random.PCG64()
        for word in [0, 1, 2**63 + 12345, 2**64 - 1]:
            bitgen.state = rng._crafted(word)
            assert int(bitgen.random_raw()) == word


def _draw_from_word(word):
    """Generator.standard_normal from a generator whose next output is
    `word`, and whether it drew that output alone."""
    bitgen = np.random.PCG64()
    bitgen.state = rng._crafted(word)
    x = np.random.Generator(bitgen).standard_normal()
    after = int(bitgen.random_raw())
    bitgen.state = rng._crafted(word)
    return x, after == int(bitgen.random_raw(2)[1])


class TestZigguratTables:
    """The tables read back from numpy reproduce its `standard_normal` on
    crafted words: rabs = 1 draws +-wi[idx], and every rabs below the
    bound is accepted alone, its largest included."""

    @pytest.mark.parametrize("sign", [0, 1])
    def test_tables_reproduce_the_generator(self, sign):
        wi, bound = rng._ziggurat()
        assert wi.shape == bound.shape == (512,)
        assert bound[1] == 0 and (bound[2:256] > 0).all() and bound[0] > 0
        words, expected = [], []
        for idx in range(256):
            layer = idx | sign << 8
            assert bound[layer] == bound[idx] and wi[layer] == (-1) ** sign * wi[idx]
            if not bound[idx]:  # idx 1: even rabs = 1 leaves the one-output path
                assert not _draw_from_word(1 << 9 | layer)[1]
                continue
            for rabs in {1, int(bound[idx]) - 1}:
                word = rabs << 9 | layer
                x, alone = _draw_from_word(word)
                assert alone and x == (-1) ** sign * rabs * wi[idx], (idx, rabs)
                words.append(word)
                expected.append(x)
        x, accepted = rng.standard_normals(np.array(words, dtype=np.uint64))
        assert accepted.all() and np.array_equal(x, expected)

    def test_idx_0_bound_is_exact(self):
        _, bound = rng._ziggurat()
        assert _draw_from_word(int(bound[0]) - 1 << 9)[1]
        assert not _draw_from_word(int(bound[0]) << 9)[1]
