"""Every name a library module imports is used in that module, so an import
left behind by a deleted helper fails here rather than lingering."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cutbounds"

# Names imported on purpose without a use: perfbench's tests trace
# ``spanning.graph_girth``, an alias of ``graph.girth``.
KEPT = {("spanning.py", "graph_girth")}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported
            if name not in used and (path.name, name) not in KEPT]


# __init__.py imports in order to re-export.
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and ``_``-prefixed constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)
                     and t.id.startswith("_") and not t.id.startswith("__")]
        else:
            continue
        for name in names:
            yield name, node


def _reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded and attributes taken in ``tree``, outside ``skip``."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_private_helper_is_read():
    """Every module-level function and class, and every private constant, is
    read by some library module or re-exported by ``__init__.py``: code that
    only tests call belongs in ``tests/helpers.py``."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    exported = {a.asname or a.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    reads_elsewhere = {name: set().union(*(_reads(t) for n, t in trees.items() if n != name))
                       for name in trees}
    orphans = [f"{file}:{name}" for file, tree in sorted(trees.items())
               for name, node in _definitions(tree)
               if name not in exported | reads_elsewhere[file] | _reads(tree, skip=node)]
    assert orphans == []
