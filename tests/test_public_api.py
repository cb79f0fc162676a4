"""The package's public surface, pinned name by name.

A change to any list below is an API change: it moves ``__version__``
and the version in ``pyproject.toml`` together (``test_version`` checks
that the two agree)."""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import newtonzeta
from newtonzeta import diagram
from newtonzeta.factored import one
from newtonzeta.lattice import DiagramFacet
from newtonzeta.nondegeneracy import NondegeneracyReport
from newtonzeta.randomized import cayley_suite, cone_suite

# what a fresh ``import newtonzeta`` binds, its five eager submodules included
PACKAGE = [
    "COUNTEREXAMPLE", "DiagramFacet", "FaceVerdict", "FactoredZeta", "GermSeries",
    "IdentityInapplicable", "LatticePolytope", "NondegeneracyReport", "ParseError",
    "UNCHECKED", "VERIFIED", "cayley_mixed_volume_identity", "cone_reduction_identity",
    "convex_hull", "diagram", "diagram_facets", "euler_char_torus_hypersurface",
    "factor", "factored", "germ", "germ_from_json", "germ_to_json",
    "germ_to_string", "index_sets_with_zero", "lattice", "make_germ", "minkowski_sum",
    "mixed_volume", "nondegeneracy", "nondegeneracy_check", "normalized_volume",
    "normalized_volume_at", "one", "parse_factored", "parse_germ", "pencil_germ",
    "primitive", "product", "restrict_support", "saturation_basis",
    "smith_normal_form", "support", "suspend_germ", "zeta_classical",
    "zeta_full", "zeta_torus",
]


def _public(obj):
    return sorted(n for n in dir(obj) if not n.startswith("_"))


def test_public_surface_is_pinned():
    # a fresh interpreter: the tests import more submodules, which the
    # package then binds too
    src = Path(__file__).resolve().parents[1] / "src"
    names = subprocess.run(
        [sys.executable, "-c", "import newtonzeta\n"
         "print(*sorted(n for n in vars(newtonzeta) if not n.startswith('_')))"],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src))).stdout.split()
    assert (len(names), names) == (46, PACKAGE)
    assert _public(one()) == [
        "as_json_dict", "cyclotomic_signature", "degree", "factors", "pretty"]
    assert _public(NondegeneracyReport(())) == [
        "counterexamples", "faces", "status", "unchecked"]
    for suite in (cone_suite, cayley_suite):
        assert list(inspect.signature(suite).parameters) == ["seed"]


def test_a_diagram_facet_names_no_index_set():
    # its index set is the I asked of ``diagram_facets``, or its table key
    assert [f.name for f in dataclasses.fields(DiagramFacet)] == [
        "normal", "m", "vertices", "nvol"]


def test_diagram_takes_no_outside_polyhedron():
    # ``zeta`` shares its polyhedron with the check through private calls
    # alone, so no public function takes one built by the caller
    assert not hasattr(diagram, "zeta_torus_and_full")


def test_no_public_callable_takes_a_polyhedron():
    assert list(inspect.signature(newtonzeta.nondegeneracy_check).parameters) == ["F"]
    # the package's functions, its dataclasses and their public methods;
    # its two exception classes take a message alone
    bound = [getattr(newtonzeta, name) for name in PACKAGE]
    functions = [f for f in bound if inspect.isfunction(f)]
    classes = [c for c in bound if dataclasses.is_dataclass(c)]
    methods = [m for c in classes for name in _public(c) if callable(m := getattr(c, name))]
    assert (len(functions), len(classes)) == (30, 6)
    assert [f for f in functions + classes + methods
            if "facets" in inspect.signature(f).parameters] == []
