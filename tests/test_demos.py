"""The demos import only names the package has, call them as their
signatures allow, and run to the end.

The fast checks only parse a demo: they resolve every `from
openset_ssl.x import y`, and bind each call of an imported name to that
name's `inspect.signature`, one placeholder per argument (a call with
`*args` or `**kwargs` is skipped).  Running the six demos takes tens of
seconds, so that check is marked `slow`; it catches what a demo reads
from a result, which no signature shows.  Run a demo with `python3
demos/<name>.py` to see its output.
"""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def package_imports(path):
    """(module, name, line) of each name the demo imports from the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.module, alias.name, node.lineno)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "openset_ssl"
            for alias in node.names]


def package_calls(path):
    """(imported object, call node) of each call of a name the demo
    imports from the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {name: getattr(importlib.import_module(module), name)
                for module, name, _ in package_imports(path)}
    return [(imported[node.func.id], node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in imported]


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    imports = package_imports(path)
    assert imports, f"{path.name} imports nothing from openset_ssl"
    for module, name, line in imports:
        where = f"{path.name}:{line}: {module}.{name}"
        assert hasattr(importlib.import_module(module), name), where


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_calls_bind_to_the_signatures(path):
    calls = package_calls(path)
    assert calls, f"{path.name} calls nothing it imports from openset_ssl"
    for target, call in calls:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords
        ):
            continue
        try:
            inspect.signature(target).bind(*call.args, **{k.arg: k for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{path.name}:{call.lineno}: {call.func.id}: {exc}")


@pytest.mark.slow
@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_to_the_end(path, tmp_path):
    src = str(path.parent.parent / "src")
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}  # its run directories in tmp_path
    done = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, f"{path.name} exited {done.returncode}:\n{done.stderr}"
