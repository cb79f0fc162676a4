"""The tests import no package that the ``test`` extra of
``pyproject.toml`` does not declare, and the extra declares none that
they do not import.

Every ``import`` in ``tests/*.py`` and ``bench/tests/*.py`` is read with
``ast``; the standard library, ``newtonzeta``, ``__future__`` and the
modules that are files under ``tests/`` or ``bench/`` are left out."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_the_test_extra_is_what_the_tests_import():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    sources = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("bench/tests/*.py"))
    own = {path.stem for part in ("tests", "bench") for path in (ROOT / part).rglob("*.py")}
    imported = {name for path in sources for name in _imported(path)}
    third_party = imported - set(sys.stdlib_module_names) - own - {"newtonzeta", "__future__"}
    with open(ROOT / "pyproject.toml", "rb") as file:
        extra = tomllib.load(file)["project"]["optional-dependencies"]["test"]
    assert third_party == set(extra)
