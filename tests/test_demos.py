"""The demos import only names the package has.

Running the demos takes tens of seconds, so this suite only parses them
and resolves every `from openset_ssl.x import y`; run a demo with
`python3 demos/<name>.py` to see its output.
"""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def package_imports(path):
    """(module, name, line) of each name the demo imports from the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.module, alias.name, node.lineno)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "openset_ssl"
            for alias in node.names]


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    imports = package_imports(path)
    assert imports, f"{path.name} imports nothing from openset_ssl"
    for module, name, line in imports:
        where = f"{path.name}:{line}: {module}.{name}"
        assert hasattr(importlib.import_module(module), name), where
