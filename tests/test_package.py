"""Package hygiene: every export resolves, no module keeps a dead import, every
public name has a user outside its definition, and every cap is scaled inside
its kernel by one budget argument."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import matpowlab
import matpowlab.harness

_MODULES = sorted(Path(matpowlab.__file__).parent.rglob("*.py"))
_REPO = Path(matpowlab.__file__).parents[2]


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


def _names_loaded(tree):
    """Names a module loads or reads as an attribute; a re-export import is no load."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def _names_read(tree):
    """Every name a module loads, reads as an attribute or imports."""
    return _names_loaded(tree) | {alias.name for node in ast.walk(tree)
                                  if isinstance(node, ast.ImportFrom) for alias in node.names}


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


def _public_definitions(tree):
    """Public functions and classes a module defines at top level, by name."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def test_names_loaded_skip_definitions_and_imports():
    tree = ast.parse("from .m import kept, gone\ndef f(): return kept(m.attr)\nclass C: pass\n")
    assert sorted(_public_definitions(tree)) == ["C", "f"]
    assert _names_loaded(tree) == {"kept", "m", "attr"}


def test_every_public_src_name_has_a_user():
    # a public function or class is called from src, or used by the bench, the
    # README or the acceptance criteria; a second path that only tests call
    # belongs in tests/oracles.py
    trees = {path: ast.parse(path.read_text()) for path in _MODULES}
    loaded = set().union(*map(_names_loaded, trees.values()))
    docs = [_REPO / "README.md", _REPO / "tests" / "test_acceptance.py",
            *sorted((_REPO / "bench").glob("*.py"))]
    named = set(re.findall(r"\w+", "\n".join(path.read_text() for path in docs)))
    unused = [(str(path.relative_to(path.parents[1])), line, name)
              for path, tree in trees.items()
              for name, line in _public_definitions(tree).items()
              if name not in loaded and name not in named]
    assert unused == []


_CAP_KEYWORDS = {"max_tau", "max_work", "max_space", "max_order", "max_dim"}


def test_every_capped_export_takes_a_budget_of_one_by_default():
    defaults = {}
    for name in matpowlab.__all__:
        obj = getattr(matpowlab, name)
        if inspect.isfunction(obj) and "budget" in inspect.signature(obj).parameters:
            defaults[name] = inspect.signature(obj).parameters["budget"].default
    assert set(defaults) == {
        "count_Q", "count_JK", "count_product_eq", "orbit_sum_distribution",
        "sumset_cover", "matrix_exp_sums", "matrix_exp_sum", "kloosterman_subgroup",
        "gauss_subgroup", "sum_moment", "count_points", "eigenbasis", "delta_Nf",
        "matrix_element_check"}
    assert set(defaults.values()) == {1.0}


def test_no_function_in_src_takes_a_cap_keyword():
    found = []
    for path in _MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                found += [(path.name, node.lineno, arg.arg) for arg in args
                          if arg.arg in _CAP_KEYWORDS]
    assert found == []


def _cap_imports(tree):
    return sorted(alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names if alias.name.endswith("_CAP"))


def test_cap_imports_are_found():
    tree = ast.parse("from .x import A_CAP, f\nfrom y import B_CAP\n")
    assert _cap_imports(tree) == ["A_CAP", "B_CAP"]


def test_the_harness_imports_no_cap():
    # each kernel scales its own cap by the budget the harness passes it
    path = Path(matpowlab.harness.__file__).parent / "experiments.py"
    assert _cap_imports(ast.parse(path.read_text())) == []


def test_every_budget_skip_is_built_by_the_one_helper():
    builders = [path.name for path in _MODULES
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "BudgetExceeded"]
    assert builders == ["errors.py"]
