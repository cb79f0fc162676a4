"""The import layers of ``src/newtonzeta``, pinned.

A module imports package modules only from the layers below its own:

    1. ``germ``, ``factored`` and ``lattice`` import no package module;
    2. ``nondegeneracy`` and ``diagram`` import from layer 1 alone, so
       never from each other;
    3. ``randomized``;
    4. ``cli``;
    5. ``__init__`` and ``__main__``.

``lattice`` alone builds polyhedra, walks their compact faces and their
coordinate faces and decides when points are saturated, so its
double-description engine and its saturation rule are named in no other
module, and ``compact_faces``, ``_walk`` and ``_records`` are defined
there alone.  A Newton polyhedron carries the points its masks index, so
no function takes both a ``points`` and a ``facets`` parameter, and the
builder reads a support itself; no public function takes a polyhedron
built outside, so none refuses another support's.  A diagram-facet
record names no index set, so no ``lattice`` function takes a ``label``
to stamp on it, and the coordinate-face walk returns its records, so
none takes a ``table`` to fill: ``coordinate_facets`` takes the
polyhedron alone and ``diagram._index_set_facets`` the germ alone.  Facet bitmasks are read by
``lattice`` only: ``nondegeneracy`` takes its faces from it, and ``diagram`` its
records, so neither names a mask reader, nor does ``diagram`` name the
determinant that measures a record.  ``germ`` alone reads and prints
germ text, so its tokens, its grammar and its rule for variable names
are named in no other module either; nor is ``factored``'s one reader of
factored text."""

import ast
import re
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "newtonzeta").glob("*.py"))

LAYERS = [{"germ", "factored", "lattice"}, {"nondegeneracy", "diagram"},
          {"randomized"}, {"cli"}, {"__init__", "__main__"}]

LATTICE_ONLY = ("_double_description", "_as_is")
MASK_READERS = ("_bits", "_face_facets", "_vertices", "_pulled_volume")
WALK = ("_walk", "_records")
GERM_ONLY = ("_TOKEN", "_OTHER", "_GRAMMAR", "_check_names")
FACTORED_ONLY = ("_FACTOR_RE",)


def _package_imports(tree):
    """The package modules that ``tree`` imports, relatively or by name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.update([node.module] if node.module
                             else [alias.name for alias in node.names])
            elif (node.module or "").startswith("newtonzeta."):
                found.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[2] for alias in node.names
                         if alias.name.startswith("newtonzeta."))
    return found


def _layer_breaks(modules):
    """``(module, imported)`` for each import of ``modules`` (a dict of
    module name to parsed tree) that is not from a layer below."""
    layer = {name: i for i, names in enumerate(LAYERS) for name in names}
    return sorted((name, imported) for name, tree in modules.items()
                  for imported in _package_imports(tree)
                  if layer.get(imported, len(LAYERS)) >= layer.get(name, -1))


def test_every_module_has_a_layer():
    assert {path.stem for path in SOURCES} == set().union(*LAYERS)


def test_modules_import_only_from_the_layers_below():
    modules = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert _layer_breaks(modules) == []


def _homes(names):
    """``(file, name)`` for each source file that names one of ``names``."""
    return {(path.name, name) for path in SOURCES for name in names
            if re.search(rf"\b{name}\b", path.read_text())}


def test_the_polyhedron_engine_is_named_in_lattice_alone():
    assert _homes(LATTICE_ONLY) == {("lattice.py", name) for name in LATTICE_ONLY}


def test_facet_masks_are_read_in_lattice_alone():
    assert _homes(MASK_READERS) == {("lattice.py", name) for name in MASK_READERS}


def test_diagram_names_no_determinant():
    assert ("diagram.py", "int_det") not in _homes(["int_det"])


def _definitions(names):
    """``(file, name)`` for each function of ``names`` that a source file defines."""
    return {(path.name, node.name) for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.FunctionDef) and node.name in names}


def test_compact_faces_is_defined_in_lattice_alone():
    assert _definitions(["compact_faces"]) == {("lattice.py", "compact_faces")}


def test_the_coordinate_face_walk_is_defined_in_lattice_alone():
    assert _definitions(WALK) == {("lattice.py", name) for name in WALK}


def test_no_function_takes_both_points_and_facets():
    both = {(path.name, node.name) for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.FunctionDef)
            and {"points", "facets"} <= {a.arg for a in ast.walk(node.args)
                                          if isinstance(a, ast.arg)}}
    assert both == set()


def _parameters(module):
    """``{function: parameter names}`` of the functions ``module`` defines."""
    (path,) = [path for path in SOURCES if path.stem == module]
    return {node.name: [a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)]
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.FunctionDef)}


def test_no_lattice_function_takes_a_label():
    assert {name for name, args in _parameters("lattice").items() if "label" in args} == set()


def test_no_lattice_function_takes_a_table():
    assert {name for name, args in _parameters("lattice").items() if "table" in args} == set()


def test_the_walk_takes_the_polyhedron_alone_and_the_table_the_germ_alone():
    assert _parameters("lattice")["coordinate_facets"] == ["facets"]
    assert _parameters("diagram")["_index_set_facets"] == ["F"]


def test_the_support_has_no_reader_but_the_builder():
    assert _homes(["_support_points"]) == set()


def test_the_germ_grammar_is_named_in_germ_alone():
    assert _homes(GERM_ONLY) == {("germ.py", name) for name in GERM_ONLY}


def test_factored_text_is_read_in_factored_alone():
    assert _homes(FACTORED_ONLY) == {("factored.py", name) for name in FACTORED_ONLY}


def test_a_layer_break_is_found():
    modules = {name: ast.parse(text) for name, text in {
        "germ": "import re\n",
        "lattice": "from .germ import support\n",
        "diagram": "from .nondegeneracy import compact_faces\nfrom .lattice import int_det\n",
        "nondegeneracy": "from newtonzeta.lattice import int_det\n",
        "randomized": "from . import cli, diagram\n",
        "cli": "import newtonzeta.randomized\nfrom .extra import thing\n",
    }.items()}
    assert _layer_breaks(modules) == [
        ("cli", "extra"), ("diagram", "nondegeneracy"), ("lattice", "germ"),
        ("randomized", "cli")]
