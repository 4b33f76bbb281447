"""Synthetic open-set benchmarks: seeded Gaussian clusters with a
controlled fraction of out-of-class samples in the unlabeled pool.

Cluster means are placed so that the pairwise distance between class
means is `separation` within-cluster standard deviations: along rotated
orthonormal directions when the feature dimension allows, and along
random directions of matching expected length otherwise.  In `related`
mode each out-class mean sits half the class separation away from an
anchor in-class mean, displaced toward a neighboring class, so the novel
cluster resembles two known classes at once; in `independent` mode
out-class means are placed like fresh classes.

Ground-truth class and origin ride along in the files for evaluation
only; training code paths consume features and labels exclusively.
"""

import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import rng as rng_mod
from .artifacts import (
    INT, REAL, TEXT, one_of, read_json, read_table, real_columns, write_json, write_table,
)

UNLABELED = -1


@dataclass(frozen=True)
class BenchmarkSpec:
    dim: int = 16
    in_classes: int = 8
    out_classes: int = 8
    separation: float = 6.0  # units of within_sigma, between class means
    within_sigma: float = 1.0
    correlation_mode: str = "independent"  # or "related"
    total_unlabeled: int = 5000
    out_proportion: float = 0.8
    labels_per_class: int = 25
    test_per_class: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.in_classes < 2 or self.out_classes < 0:
            raise ValueError("need >= 2 in-classes and >= 0 out-classes")
        if self.correlation_mode not in ("independent", "related"):
            raise ValueError(f"unknown correlation mode {self.correlation_mode!r}")
        if not 0.0 <= self.out_proportion <= 1.0:
            raise ValueError("out_proportion must lie in [0, 1]")
        if self.dim < 1 or self.within_sigma <= 0 or self.separation < 0:
            raise ValueError("invalid geometry")
        if self.labels_per_class < 1 or self.test_per_class < 0 or self.total_unlabeled < 0:
            raise ValueError("invalid sample counts")


@dataclass
class Dataset:
    """Parallel-array sample collection; one row per sample."""

    ids: np.ndarray  # int64
    x: np.ndarray  # (n, dim) float64
    label: np.ndarray  # int64, 1..C or UNLABELED
    truth: np.ndarray  # int64, 1..C+M (evaluation only)
    origin: np.ndarray  # '<U3', 'in' or 'out'

    def __len__(self):
        return len(self.ids)

    @property
    def dim(self):
        return self.x.shape[1]

    @classmethod
    def empty(cls, dim):
        return cls(
            ids=np.empty(0, dtype=np.int64),
            x=np.empty((0, dim)),
            label=np.empty(0, dtype=np.int64),
            truth=np.empty(0, dtype=np.int64),
            origin=np.empty(0, dtype="<U3"),
        )

    @classmethod
    def concat(cls, parts):
        return cls(
            ids=np.concatenate([p.ids for p in parts]),
            x=np.concatenate([p.x for p in parts]),
            label=np.concatenate([p.label for p in parts]),
            truth=np.concatenate([p.truth for p in parts]),
            origin=np.concatenate([p.origin for p in parts]),
        )


@dataclass
class Benchmark:
    spec: BenchmarkSpec
    labeled: Dataset
    unlabeled: Dataset
    test: Dataset


def round_half_up(value):
    """round(x) with .5 going up, the documented counting rule."""
    return int(np.floor(value + 0.5))


def _class_means(spec):
    """Means for classes 1..C+M; in-class geometry is p-independent."""
    gen = rng_mod.stream(spec.seed, "bench.means")
    scale = spec.separation * spec.within_sigma / np.sqrt(2.0)
    total = spec.in_classes + spec.out_classes
    independent = spec.correlation_mode == "independent"
    n_fresh = total if independent else spec.in_classes

    if n_fresh <= spec.dim:
        raw = gen.standard_normal((spec.dim, n_fresh))
        q, r = np.linalg.qr(raw)
        q = q * np.sign(np.diag(r))  # fix QR sign ambiguity for determinism
        directions = q.T
    else:
        raw = gen.standard_normal((n_fresh, spec.dim))
        directions = raw / np.sqrt(spec.dim)

    means = list(scale * directions)
    if not independent:
        offset = spec.separation * spec.within_sigma / 2.0
        for j in range(spec.out_classes):
            anchor_idx = j % spec.in_classes
            neighbor_idx = (anchor_idx + 1 + j // spec.in_classes) % spec.in_classes
            anchor = means[anchor_idx]
            toward = means[neighbor_idx] - anchor
            u = toward / np.linalg.norm(toward)
            means.append(anchor + offset * u)
    return means  # index c-1 -> mean of class c


def _split_counts(total, parts):
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _draw(spec, mean, count, stream_label, *keys):
    gen = rng_mod.stream(spec.seed, stream_label, *keys)
    return mean + spec.within_sigma * gen.standard_normal((count, spec.dim))


def generate(spec):
    """Seeded benchmark: labeled set, mixed unlabeled pool, in-class test set."""
    n_out = round_half_up(spec.out_proportion * spec.total_unlabeled)
    n_in = spec.total_unlabeled - n_out
    if n_out > 0 and spec.out_classes == 0:
        raise ValueError("out_proportion > 0 requires at least one out-class")

    means = _class_means(spec)
    next_id = 0

    def block(count, truth_class, label, origin, stream_label):
        nonlocal next_id
        x = _draw(spec, means[truth_class - 1], count, stream_label, truth_class)
        ids = np.arange(next_id, next_id + count, dtype=np.int64)
        next_id += count
        return Dataset(
            ids=ids,
            x=x,
            label=np.full(count, label, dtype=np.int64),
            truth=np.full(count, truth_class, dtype=np.int64),
            origin=np.full(count, origin, dtype="<U3"),
        )

    labeled = Dataset.concat(
        [
            block(spec.labels_per_class, c, c, "in", "bench.labeled")
            for c in range(1, spec.in_classes + 1)
        ]
    )
    unl_parts = []
    for c, count in zip(
        range(1, spec.in_classes + 1), _split_counts(n_in, spec.in_classes)
    ):
        if count:
            unl_parts.append(block(count, c, UNLABELED, "in", "bench.unlabeled"))
    if n_out:
        for j, count in zip(range(spec.out_classes), _split_counts(n_out, spec.out_classes)):
            if count:
                truth_class = spec.in_classes + j + 1
                unl_parts.append(block(count, truth_class, UNLABELED, "out", "bench.unlabeled"))
    unlabeled = Dataset.concat(unl_parts) if unl_parts else Dataset.empty(spec.dim)
    test = Dataset.concat(
        [
            block(spec.test_per_class, c, c, "in", "bench.test")
            for c in range(1, spec.in_classes + 1)
        ]
    ) if spec.test_per_class else Dataset.empty(spec.dim)
    return Benchmark(spec=spec, labeled=labeled, unlabeled=unlabeled, test=test)


# ----------------------------------------------------------------------
# dataset files: CSV with header id, f0..f{dim-1}, label, truth, origin;
# label -1 encodes UNLABELED.
# ----------------------------------------------------------------------


def write_dataset(path, dataset):
    header = ["id", *(f"f{i}" for i in range(dataset.dim)), "label", "truth", "origin"]
    formats = [INT] + [REAL] * dataset.dim + [INT, INT, TEXT]
    columns = (dataset.ids, dataset.x, dataset.label, dataset.truth, dataset.origin)
    rows = zip(*(column.tolist() for column in columns))
    write_table(path, header, formats, ((i, *x, lab, tru, ori) for i, x, lab, tru, ori in rows))


def read_dataset(path):
    converters = {"id": int, "label": int, "truth": int, "origin": one_of("in", "out")}
    cols = read_table(path, converters, default=float)
    # copies, so that the table read is freed with `cols`
    return Dataset(ids=cols["id"].copy(), x=real_columns(path, cols, list(cols)[1:-3]),
                   label=cols["label"].copy(), truth=cols["truth"].copy(),
                   origin=cols["origin"].astype("<U3"))


def write_benchmark(dirpath, bench):
    os.makedirs(dirpath, exist_ok=True)
    write_dataset(os.path.join(dirpath, "labeled.csv"), bench.labeled)
    write_dataset(os.path.join(dirpath, "unlabeled.csv"), bench.unlabeled)
    write_dataset(os.path.join(dirpath, "test.csv"), bench.test)
    write_json(os.path.join(dirpath, "spec.json"), asdict(bench.spec))


def read_benchmark(dirpath):
    path = os.path.join(dirpath, "spec.json")
    doc = read_json(path)
    names = {f.name for f in fields(BenchmarkSpec)}
    for kind, keys in (("unknown", set(doc) - names), ("missing", names - set(doc))):
        if keys:
            raise ValueError(f"{path}: {kind} BenchmarkSpec keys: {', '.join(sorted(keys))}")
    return Benchmark(
        spec=BenchmarkSpec(**doc),
        labeled=read_dataset(os.path.join(dirpath, "labeled.csv")),
        unlabeled=read_dataset(os.path.join(dirpath, "unlabeled.csv")),
        test=read_dataset(os.path.join(dirpath, "test.csv")),
    )
