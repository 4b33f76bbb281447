"""Named streams and the vectorized seeding that reproduces them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openset_ssl import rng


class TestStreamStates:
    @settings(max_examples=60, deadline=None)
    @given(
        entropy=st.integers(1, 12).flatmap(lambda width: st.lists(
            st.lists(st.integers(0, 2**32 - 1), min_size=width, max_size=width),
            min_size=1, max_size=6))
    )
    def test_generate_state_matches_seed_sequence(self, entropy):
        words = np.array(entropy, dtype=np.uint32)
        got = rng._generate_state(words)
        assert got.dtype == np.uint64
        for row, out in zip(words, got):
            assert np.array_equal(out, np.random.SeedSequence(row).generate_state(4, np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**70),
        label=st.sampled_from(["augment", "pretrain.augment", "train.augment", ""]),
        head=st.lists(st.integers(0, 2**40), max_size=2),
        ids=st.lists(st.integers(0, 2**100), max_size=5),
        tail=st.lists(st.integers(0, 2**40), max_size=2),
    )
    def test_states_match_stream(self, seed, label, head, ids, tail):
        states = rng.stream_states(seed, label, *head, ids, *tail)
        assert len(states) == len(ids)
        for sid, state in zip(ids, states):
            assert state == rng.stream(seed, label, *head, sid, *tail).bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**70),
        label=st.sampled_from(["augment", "pretrain.augment", ""]),
        head=st.lists(st.integers(0, 2**40), max_size=2),
        block=st.integers(1, 3).flatmap(lambda k: st.lists(
            st.lists(st.one_of(st.integers(0, 2**100),
                               st.sampled_from([0, 2**32 - 1, 2**32, 2**63, 2**64])),
                     min_size=k, max_size=k),
            max_size=6)),
        tail=st.lists(st.integers(0, 2**40), max_size=2),
    )
    def test_block_states_match_stream_row_by_row(self, seed, label, head, block, tail):
        states = rng.stream_states(seed, label, *head, block, *tail)
        assert len(states) == len(block)
        for row, state in zip(block, states):
            assert state == rng.stream(seed, label, *head, *row, *tail).bit_generator.state

    def test_uint64_block_keeps_keys_past_int64_exact(self):
        block = np.array([[2**63 + 5, 0], [1, 2**64 - 1]], dtype=np.uint64)
        for row, state in zip(block.tolist(), rng.stream_states(1, "x", 2, block)):
            assert state == rng.stream(1, "x", 2, *row).bit_generator.state

    def test_loaded_state_reproduces_draws(self):
        (state,) = rng.stream_states(3, "x", 7, [2**33 + 5], 1)
        bitgen = np.random.PCG64()
        bitgen.state = state
        expected = rng.stream(3, "x", 7, 2**33 + 5, 1).standard_normal(50)
        assert np.array_equal(np.random.Generator(bitgen).standard_normal(50), expected)

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            rng.stream_states(0, "x", [1, -2])
        with pytest.raises(ValueError):
            rng.stream_states(0, "x", [[1, 2], [3, -4]])
        with pytest.raises(ValueError):
            rng.stream_states(0, "x", [2**64, -1])
        with pytest.raises(ValueError):
            rng.stream_states(-1, "x", [1])

    def test_exactly_one_sequence_subkey(self):
        with pytest.raises(ValueError):
            rng.stream_states(0, "x", 1, 2)
        with pytest.raises(ValueError):
            rng.stream_states(0, "x", [1], [2])


KEYS_PAST_WORDS = [0, 2**32 - 1, 2**63, 2**64, 2**70]


class TestLockstepOutputs:
    @pytest.mark.parametrize("count", [1, 2, 17, 65])
    def test_outputs_and_stepped_states_match_the_stream(self, count):
        def bitgen(key):
            return rng.stream(5, "augment", 3, key, 1).bit_generator

        states = rng.stream_states(5, "augment", 3, KEYS_PAST_WORDS, 1)
        raw, stepped = states.outputs(count)
        assert raw.shape == (len(KEYS_PAST_WORDS), count) and raw.dtype == np.uint64
        for key, out in zip(KEYS_PAST_WORDS, raw):
            assert np.array_equal(out, bitgen(key).random_raw(count)), key
        rows = np.arange(len(KEYS_PAST_WORDS))
        for draws in sorted({1, count // 2 + 1, count}):
            for key, state in zip(KEYS_PAST_WORDS, stepped(rows, np.full(len(rows), draws))):
                stream = bitgen(key)
                stream.random_raw(draws)
                assert state == stream.state, (key, draws)

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
