"""Where the package imports numpy: only in the two modules that do bulk arithmetic."""

import ast
from pathlib import Path

import shiftdyn

SRC = Path(shiftdyn.__file__).parent


def _imports_numpy(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "numpy":
            return True
    return False


def test_numpy_is_imported_only_by_weights_and_criteria():
    users = {p.name for p in SRC.glob("*.py") if _imports_numpy(ast.parse(p.read_text(encoding="utf-8")))}
    assert users == {"weights.py", "criteria.py"}
