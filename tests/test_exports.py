"""Every name a module lists in __all__ resolves on that module, and
no module imports a name it never reads."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", (
    "jetverify.jetalg", "jetverify.opcalc", "jetverify.catalog",
    "jetverify.verify", "jetverify.verify.suite",
))
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing


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
