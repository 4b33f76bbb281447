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
