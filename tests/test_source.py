"""Checks on the library source itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "matsim"


def test_no_assert_statements():
    # `python -O` strips assert statements, so every check in the library
    # raises instead (errors.invariant for a defect of the library)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_imports_are_standard_library_only():
    # the runtime stays standard-library only: every absolute import names
    # a standard-library module or matsim itself (relative imports are matsim)
    allowed = sys.stdlib_module_names | {"matsim"}
    found = [
        f"{path.name}:{node.lineno}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in _imported(node)
        if name.partition(".")[0] not in allowed
    ]
    assert found == []


def _imported(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []
