"""Rules on the package source itself, checked with `ast`."""

import ast
from pathlib import Path

import sasbp

SRC = Path(sasbp.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so a postcondition written as one is not a
    # check; the package raises explicit errors instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) > 5
    assert found == []
