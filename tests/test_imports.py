"""Every name a library module imports is read by that module, and every
private module-level name is read somewhere in the package.

A stdlib ``ast`` scan stands in for a linter. ``__init__.py`` is skipped:
its imports are the package's re-exports. Quoted annotations are not read,
so a name used only inside one counts as unused.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "opvec"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((SRC / module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - read) == []


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level functions, classes and assigned constants named _x."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_no_orphaned_private_names():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    orphans = [f"{module}: {name}" for module, tree in trees.items()
               for name in sorted(_private_definitions(tree) - read)]
    assert orphans == []
