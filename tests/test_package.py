"""Package hygiene: every export resolves and no module keeps a dead import."""

import ast
from pathlib import Path

import pytest

import matpowlab
import matpowlab.harness

_MODULES = sorted(Path(matpowlab.__file__).parent.rglob("*.py"))


@pytest.mark.parametrize("package", [matpowlab, matpowlab.harness],
                         ids=lambda package: package.__name__)
def test_every_exported_name_resolves(package):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing
    assert len(set(package.__all__)) == len(package.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from matpowlab import *", namespace)
    assert set(matpowlab.__all__) <= set(namespace)


def _unused_imports(tree):
    """Names a module imports but neither reads nor lists in __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    tree = ast.parse("import os\nfrom math import pi, tau\n__all__ = ['tau']\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "pi")]


@pytest.mark.parametrize("path", _MODULES,
                         ids=lambda path: str(path.relative_to(path.parents[1])))
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(ast.parse(path.read_text())) == []
