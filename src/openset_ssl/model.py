"""Encoder, projection header, classifier head, and dual-branch batch norm.

The encoder is a stack of dense layers (no bias; the following batch-norm
shift makes one redundant), each followed by batch normalization and relu.
On the tape a layer is three nodes: `matmul`, `batch-norm` and
`affine-relu` (the batch-norm scale and shift, then the relu).  One
argument routes a pass through batch norm: eval mode (`train=None`)
normalizes by the main branch's running statistics, which the
`batch-norm` node holds as constants, so they get no gradient; train mode
(`train="main"` or `"aux"`) normalizes by the batch's own moments, which
the graph builder records for that branch.  Batch-norm scale/shift
parameters are shared between the *main* and the *auxiliary* statistics
branch; each branch keeps its own running mean/variance and is only ever
touched by the moments of batches routed to it, once a fitting step
commits them with `commit_batch_stats`.

The projection header is a two-layer perceptron over the embedding; the
classifier head is a single dense layer over the embedding (the linear-
evaluation convention).  A forward pass builds only the heads its caller
asks for: contrastive pretraining and detection read the projection,
fine-tuning and evaluation the logits, labeling and statistics
calibration the embedding alone.  A head that is not built puts no node
on the tape, so its parameters get no gradient and an optimizer step
leaves them be.

The plain `forward` returns one head of an eval-mode pass and moves no
parameter or statistic.  It runs even blocks of at most `_EVAL_ROWS`
rows, one graph each, so the working set is one block's tape whatever
the batch size: eval-mode rows are independent of each other.
"""

import json
import numbers
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import rng as rng_mod
from .artifacts import from_dict, parse_json, replacing
from .autodiff import DiffGraph

CHECKPOINT_VERSION = 1

BRANCHES = ("main", "aux")
HEADS = ("embedding", "projection", "logits")

_EVAL_ROWS = 512


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    hidden_dims: tuple = ()
    embed_dim: int = 32
    proj_dim: int = 16
    num_classes: int = 2
    bn_epsilon: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):
        if not all(isinstance(d, numbers.Integral) and not isinstance(d, bool)
                   for d in self.hidden_dims):
            raise ValueError(f"hidden_dims must be integers, got {list(self.hidden_dims)}")
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        if self.input_dim < 1 or self.embed_dim < 1 or self.proj_dim < 1:
            raise ValueError("dimensions must be positive")
        if any(d < 1 for d in self.hidden_dims):
            raise ValueError("hidden dimensions must be positive")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if not 0.0 < self.bn_momentum < 1.0:
            raise ValueError("bn_momentum must lie in (0, 1)")
        if not self.bn_epsilon > 0.0:  # nan too
            raise ValueError("bn_epsilon must be positive")

    @property
    def encoder_dims(self):
        """Per-layer (in, out) sizes of the encoder stack."""
        sizes = (self.input_dim,) + self.hidden_dims + (self.embed_dim,)
        return list(zip(sizes[:-1], sizes[1:]))


@dataclass
class Model:
    config: ModelConfig
    params: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def copy(self):
        return Model(
            config=self.config,
            params={k: v.copy() for k, v in self.params.items()},
            stats={k: v.copy() for k, v in self.stats.items()},
        )


def _layout(config):
    """(name, kind, shape) of every array of a model of `config`: the
    params, then the running statistics, each in `build_model`'s order."""
    params, stats = [], []
    for i, (fan_in, fan_out) in enumerate(config.encoder_dims):
        row = (1, fan_out)
        params += [(f"enc{i}.w", (fan_in, fan_out)), (f"enc{i}.bn.scale", row),
                   (f"enc{i}.bn.shift", row)]
        stats += [(f"enc{i}.bn.{b}.{s}", row) for b in BRANCHES for s in ("mean", "var")]
    e = config.embed_dim
    for head, width in (("proj0", e), ("proj1", config.proj_dim), ("head", config.num_classes)):
        params += [(f"{head}.w", (e, width)), (f"{head}.b", (1, width))]
    return [(n, "param", s) for n, s in params] + [(n, "stat", s) for n, s in stats]


def build_model(config, seed):
    """Seeded uniform fan-in init; BN scale 1, shift 0, running stats (0, 1)."""
    gen = rng_mod.stream(seed, "model.init")
    model = Model(config=config)
    for name, kind, shape in _layout(config):
        if name.endswith(".w"):
            bound = 1.0 / np.sqrt(shape[0])
            value = gen.uniform(-bound, bound, size=shape)
        else:
            value = np.ones(shape) if name.endswith((".scale", ".var")) else np.zeros(shape)
        (model.params if kind == "param" else model.stats)[name] = value
    return model


class GraphBuilder:
    """One differentiable pass: owns a graph, lazily created param nodes,
    and `batch_stats`, the (layer, branch, mu, var) batch moments of its
    train-mode layers in the order they were built."""

    def __init__(self, model):
        self.model = model
        self.graph = DiffGraph()
        self._param_nodes = {}
        self.batch_stats = []

    def param(self, name):
        if name not in self._param_nodes:
            self._param_nodes[name] = self.graph.input(self.model.params[name])
        return self._param_nodes[name]

    def const(self, value):
        return self.graph.input(value)

    @property
    def param_nodes(self):
        return dict(self._param_nodes)

    # ------------------------------------------------------------------

    def forward(self, x_id, train=None, heads=HEADS):
        """Encoder -> {head: node id}: the embedding always, of the other
        heads only those named in `heads`.

        `train=None` is eval mode over the main branch's running
        statistics; `train="main"` or `"aux"` is train mode on that branch,
        whose batch moments land in `batch_stats` for a fitting step to
        commit (see `commit_batch_stats`).
        """
        if train is not None and train not in BRANCHES:
            raise ValueError(f"unknown branch: {train!r}")
        unknown = set(heads) - set(HEADS)
        if unknown:
            raise ValueError(f"unknown heads: {sorted(unknown)}")
        g = self.graph
        cfg = self.model.config
        stats = self.model.stats
        _check_batch(g.value(x_id), cfg)
        h = x_id
        for i in range(len(cfg.encoder_dims)):
            h = g.apply("matmul", [h, self.param(f"enc{i}.w")])
            running = None
            if train is None:
                running = (stats[f"enc{i}.bn.main.mean"], stats[f"enc{i}.bn.main.var"])
            h = g.apply("batch-norm", [h], eps=cfg.bn_epsilon, running=running)
            if train is not None:
                mu, _, var, _ = g.residuals(h)
                self.batch_stats.append((f"enc{i}", train, mu, var))
            scale, shift = self.param(f"enc{i}.bn.scale"), self.param(f"enc{i}.bn.shift")
            h = g.apply("affine-relu", [h, scale, shift])
        nodes = {"embedding": h}
        if "projection" in heads:
            p = g.apply("matmul", [h, self.param("proj0.w")])
            p = g.apply("relu", [g.apply("add", [p, self.param("proj0.b")])])
            p = g.apply("matmul", [p, self.param("proj1.w")])
            nodes["projection"] = g.apply("add", [p, self.param("proj1.b")])
        if "logits" in heads:
            logits = g.apply("matmul", [h, self.param("head.w")])
            nodes["logits"] = g.apply("add", [logits, self.param("head.b")])
        return nodes


def commit_batch_stats(model, batch_stats):
    """Fold a train-mode pass's batch moments into the running statistics."""
    m = model.config.bn_momentum
    for layer, branch, mu, var in batch_stats:
        mean_key = f"{layer}.bn.{branch}.mean"
        var_key = f"{layer}.bn.{branch}.var"
        model.stats[mean_key] = (1.0 - m) * model.stats[mean_key] + m * mu
        model.stats[var_key] = (1.0 - m) * model.stats[var_key] + m * var


def _check_batch(batch, config):
    if batch.ndim != 2 or batch.shape[1] != config.input_dim:
        raise ValueError(
            f"forward: batch shape {batch.shape} does not match input_dim {config.input_dim}"
        )


def _block_head(model, block, head):
    """`head`'s values of one eval-mode graph over `block`; the graph and
    its other intermediates die on return."""
    builder = GraphBuilder(model)
    return builder.graph.value(builder.forward(builder.const(block), heads=(head,))[head])


def forward(model, batch, head="embedding"):
    """The values of `head` (one of `HEADS`, by default the embedding) over
    `batch`: eval mode, a pure function of (parameters, running
    statistics, input) row by row.  It runs at most `_EVAL_ROWS` rows per
    graph, so its working set stays one block's tape however many rows the
    batch has."""
    batch = np.asarray(batch, dtype=np.float64)
    _check_batch(batch, model.config)
    n = len(batch)
    # as even as possible: a one-row remainder block would go through
    # numpy's vector-matrix product, which rounds differently
    out, start = None, 0
    for block in np.array_split(batch, max(-(-n // _EVAL_ROWS), 1)):
        values = _block_head(model, block, head)
        if out is None:
            out = np.empty((n, values.shape[1]))
        out[start : start + len(block)] = values
        start += len(block)
    return out


def cosine_similarity(a, b):
    """Cosine matrix of the rows of `a` (n, d) and `b` (m, d): entry (i, j)
    is a_i.b_j / (|a_i||b_j|), and 0 where either norm is below 1e-12.  A
    1-D argument is one row.

    Every dot product and squared norm is one `np.vecdot` inner product,
    the loop `u @ v` and `np.linalg.norm(u)` run per pair, so each entry
    is the float the per-pair formula gives; `a @ b.T` and
    `np.linalg.norm(a, axis=1)` round differently.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(
            f"cosine_similarity: dimensions disagree: {a.shape} vs {b.shape}"
        )
    dots = np.vecdot(a[:, None, :], b[None])
    na = np.sqrt(np.vecdot(a, a))
    nb = np.sqrt(np.vecdot(b, b))
    zero = (na < 1e-12)[:, None] | (nb < 1e-12)
    return np.divide(dots, na[:, None] * nb, out=np.zeros_like(dots), where=~zero)


# ----------------------------------------------------------------------
# checkpoint format: uint32 little-endian manifest length, JSON manifest
# (format version, model config, named array list with shapes), then the
# arrays as little-endian float64 in manifest order.
# ----------------------------------------------------------------------


def save_checkpoint(path, model):
    names = list(model.params) + list(model.stats)
    arrays = [
        model.params[n] if n in model.params else model.stats[n] for n in names
    ]
    kinds = ["param"] * len(model.params) + ["stat"] * len(model.stats)
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "arrays": [
            {"name": n, "shape": list(a.shape), "kind": k}
            for n, a, k in zip(names, arrays, kinds)
        ],
    }
    blob = json.dumps(manifest, sort_keys=True, allow_nan=False).encode("utf-8")
    with replacing(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; a short, overlong or malformed file, or an array
    list that is not the layout `_layout` gives its config, raises
    ValueError naming the path and the part or field that does not fit."""
    with open(path, "rb") as fh:
        data = fh.read()
    (length,) = struct.unpack_from("<I", data.ljust(4, b"\0"))
    end = 4 + length  # beyond a file shorter than the length field itself
    if len(data) < end:
        raise ValueError(f"checkpoint {path}: truncated manifest")
    try:  # a byte that is not UTF-8, or text that is not JSON, is a ValueError
        manifest = parse_json("manifest", data[4:end].decode("utf-8"))
        if manifest["format_version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {manifest['format_version']}")
        model = Model(config=from_dict(ModelConfig, manifest["config"], prefix="config."))
        arrays = [(a["name"], tuple(a["shape"]), a["kind"]) for a in manifest["arrays"]]
        layout = {name: (kind, shape) for name, kind, shape in _layout(model.config)}
        for name, shape, kind in arrays:
            if name not in layout:  # a name the model lacks, or one listed twice
                raise ValueError(f"array {name!r} is unexpected")
            want_kind, want_shape = layout.pop(name)
            if kind != want_kind:
                raise ValueError(f"array {name!r} has kind {kind!r}, expected {want_kind!r}")
            if shape != want_shape or not all(type(d) is int for d in shape):  # no real, no bool
                raise ValueError(
                    f"array {name!r} has shape {list(shape)}, expected {list(want_shape)}"
                )
        if layout:
            raise ValueError(f"array {next(iter(layout))!r} is missing")
    except KeyError as exc:
        raise ValueError(f"checkpoint {path}: manifest has no field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from exc
    offset = end
    for name, shape, kind in arrays:
        count = int(np.prod(shape)) if shape else 1
        if offset + count * 8 > len(data):
            raise ValueError(
                f"checkpoint {path}: array {name!r} truncated "
                f"({len(data) - offset} of {count * 8} bytes)"
            )
        raw = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
        arr = raw.astype(np.float64).reshape(shape)
        offset += count * 8
        if kind == "param":
            model.params[name] = arr
        else:
            model.stats[name] = arr
    if offset != len(data):
        raise ValueError(f"checkpoint {path}: {len(data) - offset} trailing bytes")
    return model
