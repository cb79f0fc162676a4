"""The benchmark tracer's wrap list and count hooks fit the package.

``bench/tracing.py`` wraps functions by (module, attribute) name and its
hooks read each call's arguments and result, so a rename or a new return
shape in ``newtonzeta`` would break ``bench/run.py --trace 1``; this
catches it without running the benchmark's own slower test suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _resolve(module, path):
    owner = importlib.import_module(f"newtonzeta.{module}")
    for name in path.split("."):
        owner = getattr(owner, name)
    return owner


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    targets = [t for group in tracing.GROUPS.values() for t in group]
    targets += [(module, path) for module, path, _ in tracing.COUNT_ONLY]
    assert targets
    for module, path in targets:
        assert callable(_resolve(module, path)), f"newtonzeta.{module}.{path}"


def test_convex_hull_is_bound_in_diagram():
    from newtonzeta import diagram, lattice

    assert diagram.convex_hull is lattice.convex_hull


def test_records_measure_through_lattice_int_det(monkeypatch):
    from newtonzeta import diagram, lattice
    from newtonzeta.germ import parse_germ

    # a diagram facet that is a simplex, read off a polyhedron of more than
    # |I| points (z1^2 z2^2 lies above it), is measured by one determinant,
    # looked up as ``lattice.int_det``: the binding the tracer replaces
    calls = []
    det = lattice.int_det
    monkeypatch.setattr(lattice, "int_det", lambda rows: calls.append(rows) or det(rows))
    F = parse_germ("z1^2 + z2^3 + z1^2*z2^2 - s", ["s", "z1", "z2"])
    (facet,) = diagram.diagram_facets(F, (0, 1, 2))
    assert facet.nvol == 1
    assert calls == [list(facet.vertices)]


def test_the_tracer_sees_each_diagram_facets_polyhedron_and_determinant():
    """Under the tracer, each ``diagram_facets`` call on an index set whose
    restricted support holds more than |I| points shows one
    ``nondegeneracy.polyhedron`` span and at least one ``lattice.det`` span
    per record: every record read off the polyhedron is measured by
    ``int_det``, once for a simplex and once per simplex of a pulling
    triangulation otherwise.  A support of at most |I| points shows no
    polyhedron span."""
    from newtonzeta import diagram
    from newtonzeta.germ import index_sets_with_zero, parse_germ, restrict_support

    tracing = _load_tracing()
    for group in tracing.GROUPS.values():  # the tracer patches loaded modules
        for module, path in group:
            _resolve(module, path)
    tracer = tracing.Tracer()
    polyhedron = tracer.names.index("nondegeneracy.polyhedron")
    det = tracer.names.index("lattice.det")
    F = parse_germ("z1^3 + z1*z2^2 + z2^4 + s*z3 + s^2*z1 + s*z1*z2*z3",
                   ["s", "z1", "z2", "z3"])
    seen = set()
    tracer.install()
    try:
        for I in index_sets_with_zero(3):
            start = len(tracer.group)
            records = diagram.diagram_facets(F, I)
            spans = tracer.group[start:].tolist()
            size = len(restrict_support(F.terms, I)) - len(I)
            assert spans.count(polyhedron) == (size > 0), I
            if size > 0:
                assert spans.count(det) >= len(records), I
            seen.add((max(-1, min(size, 1)), bool(records)))
    finally:
        tracer.remove()
    # fewer than |I| points, exactly |I| and more
    assert seen == {(-1, False), (0, True), (1, True)}


def test_every_count_hook_reads_a_real_call():
    from newtonzeta import LatticePolytope, parse_germ
    from newtonzeta.lattice import newton_polyhedron_facets

    tracing = _load_tracing()
    F = parse_germ("z1^3 + z1*z2^2 + z2^4 - s", ["s", "z1", "z2"])
    S = sorted(F.terms)
    args = {
        "lattice.hull": ([(0, 0), (2, 0), (0, 2), (1, 1)],),
        "lattice.minkowski": (LatticePolytope.from_points([(0, 0), (1, 0)]),
                              LatticePolytope.from_points([(0, 0), (0, 1)])),
        "nondegeneracy.polyhedron": (S, 3),
        "diagram.facets": (F, (0, 1, 2)),
        "nondegeneracy.faces": (newton_polyhedron_facets(S, 3),),
    }
    assert set(args) == set(tracing.HOOKS)
    counts = dict.fromkeys(tracing.COUNT_NAMES, 0)
    for group, hook in tracing.HOOKS.items():
        for module, path in tracing.GROUPS[group]:
            hook(counts, args[group], _resolve(module, path)(*args[group]))
    for module, path, hook in tracing.COUNT_ONLY:
        hook(counts, (F,), _resolve(module, path)(F))
    assert all(counts.values()), counts
    # a lower-dimensional hull has no facets and counts nothing
    before = dict(counts)
    collinear = ([(0, 0), (1, 2), (3, 6)],)
    tracing.HOOKS["lattice.hull"](counts, collinear,
                                  _resolve("lattice", "convex_hull")(*collinear))
    assert counts == before
