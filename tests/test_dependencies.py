"""The package imports only what pyproject.toml declares: numpy and the
standard library. Tests may also use pytest and their own conftest, and the
package itself is importable from tests and demos."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "src/pistr": {"numpy"},
    "tests": {"numpy", "pistr", "pytest", "conftest"},
    "demos": {"numpy", "pistr"},
}


def imported_modules(path: Path):
    """(line, top-level module) of every absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("tree", sorted(ALLOWED))
def test_imports_are_declared(tree):
    allowed = ALLOWED[tree] | set(sys.stdlib_module_names)
    files = sorted((ROOT / tree).rglob("*.py"))
    assert files, tree
    undeclared = [f"{path.relative_to(ROOT)}:{line}: {module}"
                  for path in files for line, module in imported_modules(path)
                  if module not in allowed]
    assert not undeclared, undeclared
