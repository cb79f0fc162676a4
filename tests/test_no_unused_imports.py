"""Every name a ``src/newtonzeta`` module imports is used in that module,
so an import that a change left behind fails here.  ``__init__.py`` is
skipped: its imports are the package's public names."""

import ast
from pathlib import Path

SOURCES = sorted(path for path in
                 (Path(__file__).parents[1] / "src" / "newtonzeta").glob("*.py")
                 if path.name != "__init__.py")


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_package_modules_use_every_name_they_import():
    assert len(SOURCES) > 5
    found = [f"{path.name}:{line} {name}" for path in SOURCES
             for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_an_unused_import_is_found():
    tree = ast.parse("from os import path, sep\nimport json.decoder\nprint(sep)\n")
    assert _unused_imports(tree) == [(1, "path"), (2, "json")]
