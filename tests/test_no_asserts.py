"""``python -O`` strips ``assert`` statements, so the package states its
invariants as named exceptions (``lattice.InvariantViolation``) and no
``assert`` statement may enter ``src/newtonzeta``."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "newtonzeta").glob("*.py"))


def test_package_sources_have_no_assert_statements():
    assert len(SOURCES) > 5
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
