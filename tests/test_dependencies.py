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
