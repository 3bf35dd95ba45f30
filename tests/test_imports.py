"""Every imported name is used: no module under src/ or tests/ imports a
name that its code never mentions.  Package __init__ files are skipped,
since they import in order to re-export.  A stdlib stand-in for a linter's
unused-import rule."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, as 'name (line n)'.  A
    string in __all__ counts as a read; __future__ imports are skipped."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_checker_flags_unread_imports_only():
    source = (
        "import os.path\nimport json as j\nfrom dataclasses import astuple, dataclass\n"
        "from typing import NamedTuple\n__all__ = ['NamedTuple']\nos.path.join(j.dumps(1))\n"
    )
    assert unused_imports(source) == ["astuple (line 3)", "dataclass (line 3)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
