"""Every layer name the benchmark wraps or requires resolves in the package.

`perfbench/tracing.py` wraps the methods in `METHODS` and counts the
bytes and rows of the functions in `BYTES` and `ROWS`; each workload in
`perfbench/workloads.py` requires its `traced_layers` to be called in a
traced run.  A name that no longer resolves breaks `--trace 1` only when
the benchmark runs, so this test reads the name lists from the source
text (nothing under `perfbench/` is imported) and resolves each one the
way the tracer does.  The tracer also reads `builder.graph`,
`builder.param_nodes` and `node` from every `GraphLoss` whose gradients
it takes, so a real loss of each fitting loop is checked for them too.
"""

import ast
import importlib
import inspect
import os

import numpy as np
import pytest

from openset_ssl.autodiff import DiffGraph
from openset_ssl.contrastive import ContrastiveConfig, simclr_batch_loss
from openset_ssl.model import ModelConfig, build_model
from openset_ssl.train import SSLConfig, StepPlan, build_step_loss, one_hot

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _assignments(filename):
    """(target name, value node) of every simple assignment in the file."""
    with open(os.path.join(PERFBENCH, filename)) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                yield target.id, node.value


def _literal(value):
    """A tuple literal, or a `frozenset({...})` call, as a tuple."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "frozenset":
        value = value.args[0]
    return tuple(ast.literal_eval(value))


def bench_names():
    names = set()
    for name, value in _assignments("tracing.py"):
        if name in ("METHODS", "BYTES", "ROWS"):
            names.update(_literal(value))
    for name, value in _assignments("workloads.py"):
        if name == "traced_layers":
            names.update(_literal(value))
    return sorted(names)


def test_the_name_lists_are_found():
    names = bench_names()
    assert len(names) >= 30
    assert "contrastive.GraphLoss.parameter_gradients" in names
    assert "train.prepare_consistency" in names


@pytest.mark.parametrize("name", bench_names())
def test_name_resolves_as_the_tracer_wraps_it(name):
    module, *path = name.split(".")
    mod = importlib.import_module(f"openset_ssl.{module}")
    if len(path) == 1:  # a public function defined in that module
        fn = getattr(mod, path[0], None)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name
    else:  # a method in the class's own namespace
        cls_name, method = path
        assert method in vars(getattr(mod, cls_name)), name


def _simclr_loss(model, x):
    return simclr_batch_loss(model, x, ContrastiveConfig(batch_size=4))


def _step_loss(model, x):
    plan = StepPlan(labeled_x=x, labeled_q=one_hot(np.array([1, 2, 1, 2]), 2),
                    out_x=x[::-1], out_q=np.full((4, 2), 0.5))
    return build_step_loss(model, plan, SSLConfig(batch_size=4, lam=0.5, aux_bn=True))


@pytest.mark.parametrize("make_loss", [_simclr_loss, _step_loss],
                         ids=["simclr_batch_loss", "build_step_loss"])
def test_graph_loss_holds_what_the_tracer_reads(make_loss):
    model = build_model(ModelConfig(input_dim=3, hidden_dims=(4,)), seed=0)
    loss = make_loss(model, np.random.default_rng(0).standard_normal((4, 3)))
    assert isinstance(loss.builder.graph, DiffGraph)
    param_nodes = loss.builder.param_nodes
    assert type(param_nodes) is dict and param_nodes
    assert all(type(node) is int for node in param_nodes.values())
    assert type(loss.node) is int
