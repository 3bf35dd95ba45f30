"""Every imported name is used: no module under src/ or tests/ imports a
name that its code never mentions.  Package __init__ files are skipped,
since they import in order to re-export.  A stdlib stand-in for a linter's
unused-import rule.

Every definition in src/ runs: each function, class and public method
there is named by some code in src/ outside its own body, or is listed in
KEPT with the reason it stays.  Code that only tests call belongs in the
tests."""

import ast
from collections import Counter
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


SRC = sorted((ROOT / "src" / "contact_mf").glob("*.py"))

# 'module.name' of each definition in src/ that nothing there names, and why it stays
_TRACED = "bench/tracing.py traces it by name (TARGETS) until ROADMAP item 3"
KEPT = {
    "contact.estimate_survival": _TRACED,
    "contact.duality_check": _TRACED,
    "bcpp.first_moment_check": _TRACED,
    "bcpp.pair_moment_mc": "the bcpp side of acceptance criterion 10",
}


def _mentions(node: ast.AST) -> Counter:
    """How often each name is read below node, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def uncalled_definitions(sources: dict[str, str]) -> list[str]:
    """'module.name' of each top-level function or class, and each public
    method ('module.Class.name'), that no source names outside the
    definition's own body.  By name only: an attribute of the same name on
    any object counts as a use; a string in __all__ or an import does not.
    __init__ is searched but defines nothing of its own."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    mentions = sum(map(_mentions, trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if module == "__init__" or not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
            for name, definition in defs:
                leaf = name.rpartition(".")[2]
                if mentions[leaf] == _mentions(definition)[leaf]:
                    dead.append(f"{module}.{name}")
    return sorted(dead)


def test_checker_flags_definitions_named_only_in_their_own_body():
    sources = {
        "a": "def f(n):\n    return f(n - 1)\nclass C:\n    def used(self): pass\n"
             "    def spare(self): pass\n    def _private(self): pass\n__all__ = ['f']\n",
        "b": "from a import C\nC().used()\n",
    }
    assert uncalled_definitions(sources) == ["a.C.spare", "a.f"]


def test_every_definition_in_src_is_named_in_src():
    sources = {path.stem: path.read_text() for path in SRC}
    assert uncalled_definitions(sources) == sorted(KEPT)
