"""Stochastic views of feature vectors: scale jitter, Gaussian noise,
coordinate masking.

Contract: a view is a function of (seed, stream, step, sample id, view
index) only, never of the sample's position in the batch, of the batch
around it or of the other views drawn in the same call.  Its numbers are
drawn bit for bit from the generator
`rng.stream(seed, config.stream, step, sample_id, view)`, in this order:
one `uniform(lo, hi)` jitter factor, `standard_normal(dim)` noise, then
`choice(dim, floor(mask_fraction * dim), replace=False)` coordinates to
zero.  A null config (sigma 0, range [1, 1], mask 0) reproduces the
input bit-exactly.

Every row's stream is drawn in lockstep, as array code: the first
1 + dim outputs of all streams at once (`rng.stream_outputs`), the
jitter factor as `Generator.uniform` forms it from the first,
lo + (hi - lo)·((r >> 11)·2^-53), and each normal by the ziggurat's
one-output accept path (`rng.standard_normals`).  A row is finished by a
real `Generator` loaded with its stream's state at the first draw that
array code does not cover: a normal the ziggurat does not accept from
its word alone, or the masked coordinates, which `choice` draws.
"""

from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod


@dataclass(frozen=True)
class AugmentConfig:
    noise_sigma: float = 0.5
    jitter_range: tuple = (0.8, 1.2)
    mask_fraction: float = 0.1
    stream: str = "augment"

    def __post_init__(self):
        object.__setattr__(self, "jitter_range", tuple(float(v) for v in self.jitter_range))
        lo, hi = self.jitter_range
        if not (0.0 < lo <= hi) or not np.isfinite(hi):
            raise ValueError(f"jitter_range must satisfy 0 < lo <= hi, got {self.jitter_range}")
        if self.noise_sigma < 0 or not np.isfinite(self.noise_sigma):
            raise ValueError("noise_sigma must be finite and nonnegative")
        if not 0.0 <= self.mask_fraction < 1.0:
            raise ValueError("mask_fraction must lie in [0, 1)")

    def scaled_noise(self, factor):
        """Same family with the noise level multiplied (strong views)."""
        return AugmentConfig(
            noise_sigma=self.noise_sigma * factor,
            jitter_range=self.jitter_range,
            mask_fraction=self.mask_fraction,
            stream=self.stream,
        )


def augment_batch(batch, ids, config, seed, step, view):
    """Row-wise views of an (n, dim) batch, each keyed by its own sample id.

    `view` is one view index, giving (n, dim) rows, or a sequence of k
    view indices, giving (k * n, dim) rows view-major: all n rows of the
    first view, then all n of the next.  The streams of every (id, view)
    pair are drawn in lockstep by one `rng.stream_outputs` call over a
    (k * n, 2) block of subkeys.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ValueError(f"augment_batch expects an (n, dim) batch, got shape {batch.shape}")
    if len(ids) != len(batch):
        raise ValueError(f"{len(ids)} ids for a batch of {len(batch)} rows")
    views = rng_mod.key_array(view).reshape(-1)
    n, dim = batch.shape
    keys = np.column_stack([np.tile(rng_mod.key_array(ids), len(views)), np.repeat(views, n)])
    raw, stepped = rng_mod.stream_outputs(seed, config.stream, step, keys, 1 + dim)
    lo, hi = config.jitter_range
    factors = lo + (hi - lo) * ((raw[:, 0] >> 11) * 2.0**-53)
    noise, accepted = rng_mod.standard_normals(raw[:, 1:])
    # each row's first normal off the one-output path, dim where there is none
    first = np.hstack([accepted, np.zeros((len(raw), 1), dtype=bool)]).argmin(axis=1)
    n_mask = int(config.mask_fraction * dim)
    masked = np.empty((len(raw), n_mask), dtype=np.intp)
    bitgen = np.random.PCG64(0)  # seeded once: every row loads its own state
    gen = np.random.Generator(bitgen)
    rows = np.arange(len(raw)) if n_mask else np.flatnonzero(first < dim)
    starts = first[rows]
    for row, start, state in zip(rows.tolist(), starts.tolist(), stepped(rows, 1 + starts)):
        bitgen.state = state
        gen.standard_normal(out=noise[row, start:])
        if n_mask:  # the stream's last draw: skipping an empty one changes nothing
            masked[row] = gen.choice(dim, size=n_mask, replace=False)
    out = np.tile(batch, (len(views), 1)) * factors[:, None]
    out += config.noise_sigma * noise
    if n_mask:
        out[np.arange(len(raw))[:, None], masked] = 0.0
    return out
