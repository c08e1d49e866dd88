"""Every name one minorkern module takes from another is public: listed in
the exporting module's __all__."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "minorkern"
MODULES = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _exports(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _imported_names(tree):
    """(module, name) for every `from .module import name` and every
    `alias.name` where alias is bound by `from . import module [as alias]`."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None:
                    aliases[a.asname or a.name] = a.name
                else:
                    yield node.module, a.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield aliases[node.value.id], node.attr


def test_the_scan_sees_the_package():
    assert {"orthopoly", "kernel", "samplers", "rsklab", "cli"} <= set(MODULES)
    assert ("kernel", "kernel_F") in set(_imported_names(MODULES["scaling"]))
    assert ("orthopoly", "gauss_weight_nodes") in set(_imported_names(MODULES["cli"]))


@pytest.mark.parametrize("importer", sorted(MODULES))
def test_cross_module_names_are_exported(importer):
    missing = sorted({f"{mod}.{name}" for mod, name in _imported_names(MODULES[importer])
                      if name not in _exports(MODULES[mod])})
    assert not missing, f"{importer} takes names its source module does not export: {missing}"


def _defined(tree) -> set[str]:
    """Names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for t in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names |= {n.id for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


@pytest.mark.parametrize("module", sorted(MODULES))
def test_all_names_are_defined(module):
    stale = sorted(_exports(MODULES[module]) - _defined(MODULES[module]))
    assert not stale, f"{module}.__all__ lists names the module does not define: {stale}"


def test_package_imports_exist():
    missing = sorted({f"{mod}.{name}" for mod, name in _imported_names(MODULES["__init__"])
                      if name not in _defined(MODULES[mod])})
    assert not missing, f"minorkern/__init__.py imports names that do not exist: {missing}"
