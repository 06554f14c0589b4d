"""The layout of the test suite: the shared references live in ``refs.py``,
and no module under ``tests/`` imports a test module."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def imported_modules(path: Path) -> list[str]:
    """The top-level names of the modules that ``path`` imports."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module.split(".")[0])
    return names


def test_no_test_module_imports_another():
    imports = {
        path.name: [name for name in imported_modules(path) if name.startswith("test_")]
        for path in sorted(TESTS.glob("*.py"))
    }
    assert {name: found for name, found in imports.items() if found} == {}
