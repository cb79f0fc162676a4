"""Every private name a ``src/newtonzeta`` module defines at top level is
used somewhere in the package, so a helper that a change left behind fails
here.  A private name has one leading underscore (dunders are skipped); a
use is a load of the name or an attribute of that name outside the
top-level statement that defines it, so a helper that only calls itself
is still unused."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "newtonzeta").glob("*.py"))


def _private_definitions(tree):
    """``(name, statement)`` for each private name bound at top level."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def _uses(stmt):
    """The names loaded, and the attribute names read, anywhere in ``stmt``."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _unused_private_names(modules):
    """``(module, line, name)`` for each private name of ``modules`` (a dict
    of module name to parsed tree) that no other top-level statement uses."""
    uses = [(stmt, _uses(stmt)) for tree in modules.values() for stmt in tree.body]
    return sorted((module, stmt.lineno, name)
                  for module, tree in modules.items()
                  for name, stmt in _private_definitions(tree)
                  if not any(name in used for other, used in uses if other is not stmt))


def test_package_uses_every_private_name_it_defines():
    assert len(SOURCES) > 5
    modules = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert _unused_private_names(modules) == []


def test_an_unused_private_name_is_found():
    a = ast.parse(
        "import os\n"
        "_LIMIT = 3\n"
        "_UNUSED: int = 4\n"
        "__version__ = '1'\n"
        "def _helper(x):\n"
        "    return x + _LIMIT\n"
        "def _loop(x):\n"
        "    return _loop(x - 1) if x else 0\n"
        "def _by_attribute():\n"
        "    pass\n"
        "def public(x):\n"
        "    return os.sep, _helper(x)\n")
    b = ast.parse("from . import a\n"
                  "class _Orphan:\n"
                  "    pass\n"
                  "def g():\n"
                  "    return a._by_attribute()\n")
    assert _unused_private_names({"a.py": a, "b.py": b}) == [
        ("a.py", 3, "_UNUSED"), ("a.py", 7, "_loop"), ("b.py", 2, "_Orphan")]
