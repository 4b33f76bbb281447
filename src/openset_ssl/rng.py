"""Named, reproducible random streams derived from one master seed.

Every source of randomness in the package is a child stream keyed by the
master seed plus a string label (and optional integer subkeys).  Streams
are mutually independent, and drawing from one never shifts another, so
enabling or disabling a pipeline stage cannot perturb the stages around it.

`stream_states` computes the starting states of many streams that differ
in one subkey, or in a block of consecutive subkeys, in a single
vectorized pass: the entropy words of every stream are assembled as one
uint32 array.  It re-implements NumPy's documented `SeedSequence` entropy
mixing and PCG64 seeding, so a state it returns is bit-identical to
`stream(...).bit_generator.state`.
"""

import hashlib

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _label_entropy(label):
    # stable 64-bit digest of the label, independent of PYTHONHASHSEED
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stream(master_seed, label, *subkeys):
    """Return a Generator for the stream named (label, *subkeys).

    The same (master_seed, label, subkeys) always yields the same stream.
    """
    entropy = (int(master_seed), _label_entropy(label)) + tuple(
        int(k) for k in subkeys
    )
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _words(n):
    """The uint32 words SeedSequence reads from one entropy integer."""
    n = int(n)
    if n < 0:
        raise ValueError(f"stream keys must be nonnegative integers, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


class _HashMix:
    """SeedSequence's `hashmix`, whose multiplier advances on every use.

    The multiplier sequence does not depend on the data, so one call can
    hash a whole array against `k` consecutive multipliers (last axis).
    """

    def __init__(self, init, mult):
        self.h, self.mult = init, mult

    def __call__(self, values, k):
        h = [self.h]
        for _ in range(k):
            h.append(h[-1] * self.mult & _MASK32)
        self.h = h[-1]
        h = np.array(h, dtype=np.uint32)
        values = (values ^ h[:-1]) * h[1:]  # xor with h, multiply by the advanced h
        return values ^ (values >> np.uint32(16))


def _mix(x, y):
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> np.uint32(16))


def _generate_state(entropy):
    """`SeedSequence(row).generate_state(4, np.uint64)` for each row.

    `entropy` is an (n, L) uint32 array of assembled entropy words, one
    stream per row; the result is (n, 4) uint64.
    """
    n, length = entropy.shape
    if length < _POOL_SIZE:  # the pool hashes zeros past the entropy
        entropy = np.hstack([entropy, np.zeros((n, _POOL_SIZE - length), np.uint32)])
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = hashmix(entropy[:, :_POOL_SIZE], _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[:, dst] = _mix(pool[:, dst], hashmix(pool[:, src:src + 1], _POOL_SIZE - 1))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        pool = _mix(pool, hashmix(entropy[:, src:src + 1], _POOL_SIZE))
    words = _HashMix(_INIT_B, _MULT_B)(np.tile(pool, 2), 2 * _POOL_SIZE).astype(np.uint64)
    return words[:, 0::2] | (words[:, 1::2] << np.uint64(32))  # little-endian pairs


def key_array(keys):
    """Stream keys as an integer array: int64 where they all fit, else an
    object array of exact Python ints (numpy alone would promote a mix of
    keys past int64 and small ones to float64 and round them)."""
    arr = np.asarray(keys)
    if arr.dtype.kind == "i":
        return arr
    arr = np.asarray(keys, dtype=object)
    if not all(isinstance(k, (int, np.integer)) for k in arr.flat):
        raise ValueError("stream keys must be integers")
    return arr


def _key_words(keys):
    """The words SeedSequence reads from each of a column of keys.

    Returns an (n, w) uint32 array of every key's little-endian 32-bit
    words, zero past its top word, and the (n,) count of words it reads
    (at least one).  Keys past int64 arrive as an object array of Python
    ints, which the same shifts and masks split.
    """
    negative = keys < 0
    if negative.any():
        raise ValueError(f"stream keys must be nonnegative integers, got {keys[negative][0]}")
    words = []
    counts = np.ones(len(keys), dtype=np.intp)
    while True:
        words.append((keys & _MASK32).astype(np.uint32))
        keys = keys >> 32
        more = keys != 0
        if not more.any():
            return np.stack(words, axis=1), counts
        counts[more] = len(words) + 1


def stream_states(master_seed, label, *subkeys):
    """Starting PCG64 states of a batch of streams, without building them.

    Exactly one subkey is a sequence: a 1-D sequence of integers, or a 2-D
    (n, k) block whose rows stand in for k consecutive subkeys.  Entry i
    of the result is the `bit_generator.state` dict of the stream whose
    subkeys take row i of that sequence in its place, e.g.
    `stream_states(s, "aug", step, ids, view)[i] ==
    stream(s, "aug", step, ids[i], view).bit_generator.state` and
    `stream_states(s, "aug", step, [[id, view], ...])[i] ==
    stream(s, "aug", step, id_i, view_i).bit_generator.state`.
    Assigning it to a PCG64's `state` reproduces that stream bit for bit.
    """
    batched = [i for i, k in enumerate(subkeys) if not isinstance(k, (int, np.integer))]
    if len(batched) != 1:
        raise ValueError("exactly one subkey must be a sequence of integers")
    (pos,) = batched
    block = key_array(subkeys[pos])
    if block.ndim == 1:
        block = block[:, None]
    if block.ndim != 2:
        raise ValueError(f"the sequence subkey must be 1-D or 2-D, got shape {block.shape}")
    if not len(block):
        return []
    head = _words(master_seed) + _words(_label_entropy(label))
    for k in subkeys[:pos]:
        head += _words(k)
    tail = [w for k in subkeys[pos + 1:] for w in _words(k)]
    # every key's words side by side, and which of them SeedSequence reads
    columns = [_key_words(block[:, c]) for c in range(block.shape[1])]
    words = np.hstack([w for w, _ in columns])
    read = np.hstack([np.arange(w.shape[1]) < c[:, None] for w, c in columns])
    lengths = read.sum(axis=1)
    states = [None] * len(block)
    # SeedSequence consumes a varying number of words per row: group rows by it
    for length in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        keys = words[rows][read[rows]].reshape(len(rows), length)
        entropy = np.hstack([
            np.broadcast_to(np.array(head, dtype=np.uint32), (len(rows), len(head))),
            keys,
            np.broadcast_to(np.array(tail, dtype=np.uint32), (len(rows), len(tail))),
        ])
        for r, (s_hi, s_lo, i_hi, i_lo) in zip(rows.tolist(), _generate_state(entropy).tolist()):
            # pcg64_set_seed: inc = 2*initseq + 1; state = (inc + initstate) * M + inc
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            states[r] = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
    return states
