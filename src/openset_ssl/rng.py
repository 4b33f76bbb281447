"""Named, reproducible random streams derived from one master seed.

Every source of randomness in the package is a child stream keyed by the
master seed plus a string label (and optional integer subkeys).  Streams
are mutually independent, and drawing from one never shifts another, so
enabling or disabling a pipeline stage cannot perturb the stages around it.

`stream_outputs` draws the first k 64-bit outputs of a batch of streams,
`stream(seed, label, step, *keys[i])` for each row of an (n, k) block of
keys, in lockstep, as array code.  Rows whose keys are all below 2^32
give SeedSequence one entropy word per key, so they all read the same
number of words: the shared head (seed, label digest, step), which fills
SeedSequence's pool, is mixed once, and the rows' words are mixed in one
vectorized pass, as NumPy's `SeedSequence` mixes them.  A row with a key
of 2^32 or more, or every row when the head is shorter than the pool, is
seeded by `SeedSequence` itself, as `stream` seeds it.

PCG64 is a 128-bit LCG s' = M·s + inc followed by the XSL-RR output
function (O'Neill, "PCG", 2014), so the state after t steps has the
closed form
    s_t = M^t·s_0 + (M^(t-1) + ... + M + 1)·inc   (mod 2^128),
and with `pcg64_set_seed`'s s_0 = (init + inc)·M + inc and
inc = 2·initseq + 1, every s_t is one constant combination of the seed's
16-bit limbs.  One float64 matrix product forms every 32-bit column of
every s_t exactly (no partial sum reaches 2^53); a carry pass and XSL-RR
finish them.

`standard_normals` takes `Generator.standard_normal`'s one-output path on
each word: numpy's ziggurat (Marsaglia & Tsang, 2000) splits a word into
a layer idx, a sign and a 52-bit rabs, and returns ±rabs·wi[idx] at once
when rabs < ki[idx].  The tables are numpy's own, read back once per
process from the installed numpy (`_ziggurat`) by drawing from crafted
states, whose next output is a chosen word.  A word off that path must be
finished by a real `Generator` from the state before it.
"""

import functools
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
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)


def _label_entropy(label):
    # stable 64-bit digest of the label, independent of PYTHONHASHSEED
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _seed_sequence(master_seed, label, subkeys):
    return np.random.SeedSequence((int(master_seed), _label_entropy(label), *map(int, subkeys)))


def stream(master_seed, label, *subkeys):
    """Return a Generator for the stream named (label, *subkeys).

    The same (master_seed, label, subkeys) always yields the same stream.
    """
    return np.random.Generator(np.random.PCG64(_seed_sequence(master_seed, label, subkeys)))


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


def _generate_state(entropy, head):
    """`SeedSequence(head + row).generate_state(4, np.uint64)` for each row.

    `entropy` is an (n, L) uint32 array of entropy words, one stream per
    row, that follow `head`, the at least four words every row starts
    with; the result is (n, 4) uint64.  The head fills the pool, so it is
    mixed once, by `SeedSequence` itself: it hashes the first words into
    the pool, cross-mixes the pool and mixes each further word into every
    pool word, four hashmix calls per word in all.
    """
    pool = np.tile(np.random.SeedSequence(np.array(head, dtype=np.uint32)).pool, (len(entropy), 1))
    hashmix = _HashMix(_INIT_A * pow(_MULT_A, _POOL_SIZE * len(head), 1 << 32) & _MASK32, _MULT_A)
    for src in range(entropy.shape[1]):
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


def stream_outputs(master_seed, label, step, keys, count):
    """The first `count` outputs of a batch of streams, drawn in lockstep,
    without building the streams.

    `keys` is an (n, k) block of subkeys: row i stands for the stream
    `stream(master_seed, label, step, *keys[i])`.  Returns `(raw, stepped)`:
    raw[i, j] is output j of stream i, as its `bit_generator.random_raw`
    gives it, and `stepped(rows, draws)` is the list of
    `bit_generator.state` dicts of streams `rows`, each after its first
    `draws` outputs (1 <= draws <= count), from which a `Generator`
    continues the stream bit for bit.
    """
    block = key_array(keys)
    negative = block < 0
    if negative.any():
        raise ValueError(f"stream keys must be nonnegative integers, got {block[negative][0]}")
    head = [w for k in (master_seed, _label_entropy(label), step) for w in _words(k)]
    # a key below 2^32 is one word, so these rows all read as many words
    narrow = (block <= _MASK32).all(axis=1) & (len(head) >= _POOL_SIZE)
    seeds = np.empty((len(block), 4), dtype=np.uint64)
    if narrow.any():
        seeds[narrow] = _generate_state(block[narrow].astype(np.uint32), head)
    for row in np.flatnonzero(~narrow).tolist():
        row_keys = (step, *block[row].tolist())
        seeds[row] = _seed_sequence(master_seed, label, row_keys).generate_state(4, np.uint64)
    # seeds[i] is `pcg64_set_seed`'s initstate (high, low), then its initseq
    n = len(seeds)
    limbs = np.empty((17, n))  # the seed words' 16-bit limbs, low first, and a 1
    limbs[:16] = seeds.astype("<u8", copy=False).view("<u2").T
    limbs[16] = 1.0
    # (4, count, n): 32-bit column q of the state after output t of stream i
    cols = (_jump_matrix(count) @ limbs).astype(np.int64).view(np.uint64).reshape(4, count, n)
    w1 = cols[1] + (cols[0] >> 32)
    w2 = cols[2] + (w1 >> 32)
    lo = (cols[0] & _MASK32) | (w1 << 32)
    hi = (w2 & _MASK32) | ((cols[3] + (w2 >> 32)) << 32)

    def stepped(rows, draws):
        states = zip(hi[draws - 1, rows].tolist(), lo[draws - 1, rows].tolist(),
                     seeds[rows, 2].tolist(), seeds[rows, 3].tolist())
        # pcg64_set_seed: inc = 2 * initseq + 1
        return [_state_dict(s_hi << 64 | s_lo, ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128)
                for s_hi, s_lo, i_hi, i_lo in states]

    xored, rot = hi ^ lo, hi >> 58  # XSL-RR: rotate hi ^ lo right by the top 6 bits
    raw = (xored >> rot) | (xored << ((64 - rot) & 63))
    return np.ascontiguousarray(raw.T), stepped


def _state_dict(state, inc):
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


@functools.cache
def _jump_matrix(count):
    """(4 * count, 17) float64 coefficients of s_1 .. s_count: row (q, t)
    gives 32-bit column q of s_(t+1) from the 16-bit limbs of the seed
    words (`generate_state`'s uint64 words, high and low halves of
    initstate then of initseq, each low limb first) and a constant 1.

    s_t = A·initstate + 2D·initseq + D with A = M^(t+1) and
    D = M^(t+1) + ... + M + 1.  Limb a of an operand times coefficient K
    lands in column q as x_a·(K_(2q-a) + 2^16·K_(2q+1-a)), K's 16-bit
    limbs; each term is below 2^48 and a column sums at most 17 of them,
    so the float64 product is exact.
    """

    def columns(k):
        def limb(b):
            return (k >> 16 * b) & 0xFFFF if 0 <= b < 8 else 0

        coef = [[limb(2 * q - a) + (limb(2 * q + 1 - a) << 16) for q in range(4)]
                for a in range(8)]
        return coef[4:] + coef[:4]  # the high word's limbs come first

    out = np.empty((4, count, 17))
    a, d = _PCG_MULT, _PCG_MULT + 1  # s_0
    for t in range(count):
        a, d = a * _PCG_MULT & _MASK128, (d * _PCG_MULT + 1) & _MASK128
        out[:, t, :8] = np.transpose(columns(a))
        out[:, t, 8:16] = np.transpose(columns(2 * d & _MASK128))
        out[:, t, 16] = columns(d)[4]  # limb 0 of the low word
    out = out.reshape(4 * count, 17)
    out.flags.writeable = False
    return out


def standard_normals(raw):
    """`Generator.standard_normal` on every 64-bit word of `raw`, where the
    ziggurat accepts the word alone.

    Returns `(x, accepted)`: where `accepted`, x is the normal that a
    generator whose next output is that word returns, having drawn only
    that word; elsewhere x is meaningless and the draw needs the stream.
    """
    wi, bound = _ziggurat()
    layer = (raw & 0x1FF).astype(np.intp)  # idx, and the sign bit above it
    rabs = ((raw >> 9) & 0xFFFFFFFFFFFFF).view(np.int64)
    return rabs * wi.take(layer), rabs < bound.take(layer)


def _crafted(word):
    """A PCG64 state dict whose next output is `word`: XSL-RR outputs the
    low half of a stepped state whose high half is 0, and one LCG step
    back (inc 1) gives the state before it."""
    return _state_dict((word - 1) * _PCG_MULT_INV & _MASK128, 1)


@functools.cache
def _ziggurat():
    """numpy's ziggurat tables, read back from the installed numpy, indexed
    by a word's low 9 bits, layer idx and then the sign: (wi, bound), with
    rabs < bound[j] only where numpy accepts the word alone, as
    rabs·wi[j] (wi negated for sign 1).  bound 0 means always fall back.

    wi[idx] is the draw at rabs = 1.  For idx >= 2, ki[idx] is close to
    2^52·wi[idx-1]/wi[idx]; that less 64 is taken as the bound once a
    draw just below it is seen to take one output, which proves it, as
    one-output acceptance is exactly rabs < ki[idx].  idx 0 is bisected to
    its exact ki; idx 1 (ki = 0) always falls back.
    """
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)

    def draw(idx, rabs):
        """The normal drawn from the word (idx, sign 0, rabs), and how many
        outputs it took: 1, 2, or None for more."""
        word = rabs << 9 | idx
        bitgen.state = _crafted(word)
        x = gen.standard_normal()
        after = bitgen.state["state"]["state"]
        return x, {word: 1, (word * _PCG_MULT + 1) & _MASK128: 2}.get(after)

    # a draw that took 2 outputs was accepted by its wedge test: still rabs·wi
    wi = np.array([x if taken else np.nan for x, taken in (draw(i, 1) for i in range(256))])
    bound = np.zeros(256, dtype=np.int64)

    def one_output(idx, rabs):
        x, taken = draw(idx, rabs)
        return taken == 1 and x == rabs * wi[idx]

    if one_output(0, 1):
        lo, hi = 1, 1 << 52  # accepted at lo, and rabs < 2^52
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if one_output(0, mid) else (lo, mid)
        bound[0] = hi
    for idx in range(2, 256):
        ratio = wi[idx - 1] / wi[idx]
        if np.isfinite(ratio):
            lb = min(round(2.0**52 * ratio) - 64, 1 << 52)
            if lb > 1 and one_output(idx, lb - 1):
                bound[idx] = lb
    wi, bound = np.concatenate([wi, -wi]), np.tile(bound, 2)
    wi.flags.writeable = bound.flags.writeable = False
    return wi, bound
