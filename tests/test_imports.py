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
