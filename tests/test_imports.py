"""Every top-level import of a library module is used in that module.

No linter ships with the project, so this stdlib ``ast`` scan stands in for
one.  ``__init__.py`` is exempt: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "troplim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that nothing else in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


def test_the_scan_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom typing import Sequence\n"
              "def f(v: Sequence) -> float:\n    return math.pi\n")
    assert unused_imports(source) == ["line 3: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
