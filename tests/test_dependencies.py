"""numpy stays the only runtime dependency: every absolute import in the
package names a standard-library module, numpy, or armkit itself."""
import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "armkit"
ALLOWED = {"numpy", "armkit"}


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_numpy(path):
    for name in _absolute_imports(path):
        top = name.split(".")[0]
        assert top in sys.stdlib_module_names or top in ALLOWED, f"{path.name} imports {name}"


def _unread_imports(source):
    """Names bound by the module-level imports of ``source`` that the module
    never reads, except those on an import line marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if "# noqa: F401" not in lines[alias.lineno - 1]
    }
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_every_import_is_read(path):
    assert _unread_imports(path.read_text()) == [], f"{path.name} imports names it never reads"


def test_unread_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from math import (\n    inf,\n    pi,  # noqa: F401\n    tau,\n)\n"
        "from re import compile as rx\n"
        "def f(x: tau) -> None:\n    return os.path.join(x)\n"
    )
    assert _unread_imports(source) == ["inf", "json", "rx"]
