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


def _module_private_names(tree):
    """Single-underscore names a module binds at top level: defs, classes, assignments."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names[leaf.id] = node.lineno
    return {name: line for name, line in names.items()
            if name.startswith("_") and not name.startswith("__")}


def _names_read(tree):
    """Every name a module loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_unread_private_names_are_found():
    tree = ast.parse("_used = 1\n_dead = 2\ndef _helper(): return _used\n__all__ = []\n")
    private = _module_private_names(tree)
    assert sorted(set(private) - _names_read(tree)) == ["_dead", "_helper"]


def test_every_private_module_name_is_read_in_src():
    trees = {path: ast.parse(path.read_text()) for path in _MODULES}
    read = set().union(*map(_names_read, trees.values()))
    dead = [(str(path.relative_to(path.parents[1])), line, name)
            for path, tree in trees.items()
            for name, line in _module_private_names(tree).items() if name not in read]
    assert dead == []
