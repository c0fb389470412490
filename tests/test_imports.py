"""No module under `src/` or `tools/` imports a name it never uses.

A name counts as used when the module reads it anywhere (a bare name, or
the base of an attribute, such as `sys` in `sys.exit`) or lists it in
`__all__`.  Standard library only.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tools").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names that the import statements of `source` bind and that
    nothing else in it uses, sorted; `from __future__` imports bind none."""
    tree = ast.parse(source)
    bound = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(bound - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path, sys\n"
              "from json import dumps as to_text, loads\n"
              "from fractions import Fraction\n"
              "__all__ = ['Fraction']\n"
              "print(os.path.sep, loads)\n")
    assert unused_imports(source) == ["sys", "to_text"]
