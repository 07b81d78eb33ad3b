"""No correctness check in the package may be an ``assert``: ``python -O``
strips them.  Checks raise an exception instead."""

import ast
from pathlib import Path

import leggettsim

PACKAGE = Path(leggettsim.__file__).resolve().parent


def test_no_assert_statements():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
