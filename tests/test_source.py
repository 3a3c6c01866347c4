"""Source-level guards on the package itself."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "twista"


def test_no_assert_statements_in_the_package():
    # runtime checks must raise typed errors: `python -O` strips asserts
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCE.is_dir() and not found, found
