"""The package imports only what pyproject.toml declares: numpy and the
standard library. Tests may also use pytest and their own conftest, and the
package itself is importable from tests and demos. The names the package
exports are pinned."""

import ast
import sys
import types
from pathlib import Path

import pytest

import pistr

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


PUBLIC = [
    "BudgetExhausted", "CliqueCover", "ConstructionError", "ConstructionOutcome",
    "DispatchCase", "DocumentError", "EdgeLabeling", "FallbackBudgetError", "Graph",
    "IrregularityReport", "ProductDegree", "PsResult", "RowProfile",
    "UnsupportedCoverError", "add_cross_edge", "catalog_matrix", "check_matrix",
    "clique_cover", "complete_graph", "construct_labeling", "direct_sum",
    "disjoint_union", "emit_graph", "fixed_matrix", "fixed_matrix_names",
    "has_isolated_vertex_or_edge", "is_connected", "is_product_irregular",
    "label_cover", "labeled_graph_to_matrix", "m_matrix", "matrix_to_labeled_graph",
    "named_family", "parse_graph", "ps_exact", "ps_exact_disconnected", "row_profile",
    "theorem_id", "tilde_matrix",
]


def test_public_names_are_pinned():
    # every name pistr binds that is neither private nor a submodule, which
    # the import system binds once something imports it
    names = sorted(name for name, value in vars(pistr).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC
