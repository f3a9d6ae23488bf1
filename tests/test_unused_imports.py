"""No module of the package or of its tests imports a name it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = (sorted((ROOT / "src" / "gridform").glob("*.py"))
         + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list:
    """``(line, name)`` of each name bound by an import and never read.
    ``__future__`` imports bind no name and are skipped."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_what_a_deletion_leaves_behind():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from dataclasses import dataclass\n"
              "from typing import Iterable, Optional as Opt\n"
              "def f(xs: Iterable) -> int:\n"
              "    return len(xs)\n")
    assert unused_imports(source) == [(2, "os"), (3, "dataclass"), (4, "Opt")]
