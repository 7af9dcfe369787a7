"""Every name a module lists in __all__ resolves on that module and is
read somewhere in the package, every top-level function and class is
read or exported, and no module imports a name it never reads."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


MODULES = ("jetverify.jetalg", "jetverify.opcalc", "jetverify.catalog",
           "jetverify.verify", "jetverify.verify.suite")

# exports with no reader in the package yet: the exactness test a
# Hamiltonian-property check will need and the tests' expression
# generator
UNREAD_EXPORTS = {"is_total_derivative", "random_expr"}


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing


def package_reads():
    """Names and attributes loaded anywhere under src/, except inside
    the top-level definition that binds the same name."""
    read = set()

    def visit(node, owner):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id != owner:
                read.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load) and node.attr != owner):
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in (ROOT / "src").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = getattr(top, "name", None)
            if isinstance(top, ast.Assign) and len(top.targets) == 1:
                owner = getattr(top.targets[0], "id", None)
            visit(top, owner)
    return read


def test_every_export_has_a_reader():
    read = package_reads()
    unread = sorted(n for name in MODULES
                    for n in importlib.import_module(name).__all__
                    if n not in read and n not in UNREAD_EXPORTS)
    assert unread == []
    # an allowlisted name that gains a reader leaves the list
    assert sorted(UNREAD_EXPORTS & read) == []


def test_every_top_level_definition_has_a_reader():
    # a helper left behind by a deleted code path shows up here
    read = package_reads()
    exported = {n for name in MODULES
                for n in importlib.import_module(name).__all__}
    unread = sorted(
        "%s:%s" % (path.relative_to(ROOT).as_posix(), top.name)
        for path in (ROOT / "src").rglob("*.py")
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and top.name not in read and top.name not in exported)
    assert unread == []


def unread_imports(tree):
    """Names bound by an import and never read; a name listed in
    __all__ counts as read."""
    bound = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).partition(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


@pytest.mark.parametrize("path", sorted(
    str(p.relative_to(ROOT))
    for top in ("src", "tests") for p in (ROOT / top).rglob("*.py")))
def test_no_unread_imports(path):
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    assert unread_imports(tree) == []
