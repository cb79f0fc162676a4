"""The double-description facet engine against the brute-force searches."""

import random
from math import gcd

import pytest

from helpers import (
    brute_facet_enum_full,
    brute_newton_polyhedron_facets,
    eliminated_newton_polyhedron_facets,
    random_point_set,
    rank_vertices,
    reference_cone_facets,
    two_elimination_cone_facets,
)
from newtonzeta import lattice
from newtonzeta.lattice import (
    InvariantViolation,
    _dot,
    cone_facets,
    convex_hull,
    coords_in_basis,
    mat_rank,
    newton_polyhedron_facets,
    saturation_basis,
)


def _full_dimensional(pts, d):
    return mat_rank([tuple(x - y for x, y in zip(p, pts[0]))
                     for p in pts[1:]]) == d


def _point_sets(rng, d, count, cases):
    """Full-dimensional sets: general, coplanar-heavy, collinear-heavy."""
    out = []
    shares = [(0.0, 0.0), (0.7, 0.0), (0.0, 0.6), (0.4, 0.4)]
    while len(out) < cases:
        flat, line = shares[len(out) % len(shares)]
        pts = random_point_set(rng, d, rng.randint(d + 1, count),
                               rng.choice([1, 2, 3]), flat, line)
        if _full_dimensional(pts, d):
            out.append(pts)
    return out


def _vertices_and_planes(pts):
    """Vertices and (inner normal, offset) facet pairs of a full-dimensional
    set, from ``convex_hull``."""
    verts, _, facets = convex_hull(pts)
    return verts, [(a, c) for a, c, _ in facets]


@pytest.mark.parametrize("d,count,cases",
                         [(1, 6, 30), (2, 14, 60), (3, 14, 60),
                          (4, 11, 30), (5, 9, 12)])
def test_hull_facets_and_vertices_match_brute_force(d, count, cases):
    rng = random.Random(1000 + d)
    for pts in _point_sets(rng, d, count, cases):
        verts, planes = _vertices_and_planes(pts)
        assert planes == brute_facet_enum_full(pts, d)
        assert verts == rank_vertices(pts, planes, d)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_lattice_boxes(d):
    # every lattice point of a box: most points lie on facets, few are
    # corners, and many facet pairs share long collinear zero sets
    rng = random.Random(7 + d)
    for _ in range(3):
        sides = [rng.randint(1, 2) for _ in range(d)]
        pts = [()]
        for s in sides:
            pts = [p + (x,) for p in pts for x in range(s + 1)]
        verts, planes = _vertices_and_planes(pts)
        units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        assert planes == sorted([(u, 0) for u in units]
                                + [(tuple(-x for x in u), -s)
                                   for u, s in zip(units, sides)])
        assert verts == rank_vertices(pts, planes, d)
        assert len(verts) == 2 ** d


@pytest.mark.parametrize("d,count,cases",
                         [(1, 8, 20), (2, 20, 40), (3, 20, 25),
                          (4, 20, 6), (5, 12, 4), (6, 9, 2)])
def test_newton_polyhedron_facets_match_brute_force(d, count, cases):
    rng = random.Random(2000 + d)
    for k in range(cases):
        flat, line = [(0.0, 0.0), (0.6, 0.0), (0.0, 0.5)][k % 3]
        pts = [tuple(abs(x) for x in p)
               for p in random_point_set(rng, d, rng.randint(1, count),
                                         rng.choice([2, 3, 5]), flat, line)]
        assert newton_polyhedron_facets(pts, d) == \
            brute_newton_polyhedron_facets(pts, d)


def test_the_polyhedron_carries_its_sorted_distinct_support():
    """``points`` is the sorted distinct support that bit i of each mask
    indexes, and the facets are still the plain list of triples."""
    rng = random.Random(2100)
    for _ in range(60):
        d = rng.randint(1, 4)
        S = [tuple(rng.randint(0, 4) for _ in range(d))
             for _ in range(rng.randint(1, 9))]
        S += rng.sample(S, len(S) // 2)  # repeated points, in no order
        rng.shuffle(S)
        P = newton_polyhedron_facets(S, d)
        assert P.points == sorted(set(S))
        assert isinstance(P, list) and P == brute_newton_polyhedron_facets(S, d)
        for a, c, zeros in P:
            assert zeros & (1 << len(P.points)) - 1 == sum(
                1 << i for i, p in enumerate(P.points) if _dot(a, p) == c)


@pytest.mark.parametrize("p", [(0, 3), (2, 0, 1), (1, 1, 1, 1)])
def test_single_point(p):
    d = len(p)
    facets = newton_polyhedron_facets([p], d)
    assert facets == brute_newton_polyhedron_facets([p], d)
    # the orthant at p: one facet x_i >= p_i per axis
    assert [(a, c) for a, c, _ in facets] == \
        sorted((tuple(int(i == j) for j in range(d)), p[i]) for i in range(d))
    assert convex_hull([p]) == ([p], 0, [])


def test_facet_at_infinity_is_dropped():
    rng = random.Random(3)
    for _ in range(40):
        d = rng.randint(1, 4)
        pts = [tuple(rng.randint(0, 4) for _ in range(d))
               for _ in range(rng.randint(1, 8))]
        pts = sorted(set(pts))
        units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        cone = [y for y, _ in cone_facets([(1,) + p for p in pts]
                                          + [(0,) + u for u in units])[1]]
        assert (1,) + (0,) * d in cone
        facets = newton_polyhedron_facets(pts, d)
        assert len(facets) == len(cone) - 1
        assert all(any(a) for a, _, _ in facets)


def _newton_supports(rng):
    """Seeded supports with d = 1..6 and their kind: single points, sets
    with points on the axes, sets holding the origin, and sets given with
    repeated points; every set is shuffled."""
    out = []
    for d in range(1, 7):
        for k in range(16):
            kind = ["point", "axes", "origin", "repeated"][k % 4]
            pts = [tuple(abs(x) for x in p)
                   for p in random_point_set(rng, d, rng.randint(1, 13 - d),
                                             rng.choice([1, 2, 3]), 0.3, 0.2)]
            if kind == "point":
                pts = pts[:1]
            elif kind == "axes":
                pts += [tuple(rng.randint(1, 4) * (i == j) for j in range(d))
                        for i in rng.sample(range(d), rng.randint(1, d))]
            elif kind == "origin":
                pts.append((0,) * d)
            else:
                pts += rng.choices(pts, k=rng.randint(1, 3))
            rng.shuffle(pts)
            out.append((kind, d, pts))
    return out


def test_closed_form_seed_takes_the_eliminated_steps(monkeypatch):
    # the rays written down for the recession axes and the lowest point
    # are those the elimination found, in its order, so the double
    # description ends with the very ray list of the eliminated engine
    runs = []
    grow = lattice._double_description
    monkeypatch.setattr(lattice, "_double_description",
                        lambda *args: runs.append(grow(*args)) or runs[-1])
    seen = set()
    for kind, d, pts in _newton_supports(random.Random(29)):
        runs.clear()
        got = newton_polyhedron_facets(pts, d)
        rays, want = eliminated_newton_polyhedron_facets(pts, d)
        assert got == want, (kind, d, pts)
        assert runs == [rays], (kind, d, pts)
        if d <= 4:
            assert got == brute_newton_polyhedron_facets(pts, d), (kind, d, pts)
        seen.add((kind, d))
        if pts != sorted(set(pts)):
            seen.add("unsorted")
    assert len(seen) == 4 * 6 + 1


def test_newton_polyhedron_facets_make_no_elimination(monkeypatch):
    calls = []
    eliminate = lattice._gauss_jordan
    monkeypatch.setattr(lattice, "_gauss_jordan",
                        lambda *args: calls.append(1) or eliminate(*args))
    for _, d, pts in _newton_supports(random.Random(31)):
        newton_polyhedron_facets(pts, d)
    assert calls == []
    # the counter sees the elimination: a bounded hull still takes one
    convex_hull([(0, 0), (1, 0), (0, 1)])
    assert calls == [1]


def test_cone_facets_zero_sets_and_primitivity():
    rng = random.Random(11)
    for _ in range(60):
        d = rng.randint(1, 4)
        gens = [(1,) + p for p in random_point_set(rng, d, rng.randint(1, 9), 2)]
        gens += [(0,) + tuple(int(i == j) for j in range(d)) for i in range(d)]
        for y, zeros in cone_facets(gens)[1]:
            assert gcd(*y) == 1
            values = [_dot(y, g) for g in gens]
            assert min(values) >= 0
            assert zeros == sum(1 << i for i, v in enumerate(values) if v == 0)


def test_cone_facets_rejects_only_all_zero_generators():
    with pytest.raises(InvariantViolation):
        cone_facets([(0, 0, 0), (0, 0, 0)])
    assert not issubclass(InvariantViolation, ValueError)
    # three collinear points span a plane: its cone has the endpoints as facets
    rank, facets = cone_facets([(1, 0, 0), (1, 1, 0), (1, 2, 0)])
    assert rank == 2
    assert sorted(z for _, z in facets) == [0b001, 0b100]


def _cone_inputs(rng):
    """Seeded generator sets with their kind: Newton polyhedra (points and
    unit rays, shuffled), lifted bounded hulls, and random integer cones
    with negative (or zero) generators; some of the cones do not span."""
    out = []
    for k in range(120):
        d = rng.randint(1, 5)
        if k % 3 == 0:
            pts = [tuple(abs(x) for x in p)
                   for p in random_point_set(rng, d, rng.randint(1, 10), 3,
                                             0.4, 0.3)]
            gens = [(1,) + p for p in sorted(set(pts))]
            gens += [(0,) + tuple(int(i == j) for j in range(d))
                     for i in range(d)]
            rng.shuffle(gens)
            out.append(("newton", gens))
        elif k % 3 == 1:
            pts = random_point_set(rng, d, rng.randint(d + 1, 11), 3, 0.4, 0.3)
            out.append(("hull", [(1,) + p for p in sorted(set(pts))]))
        else:
            out.append(("cone", [tuple(rng.randint(-3, 3) for _ in range(d + 1))
                                 for _ in range(rng.randint(1, 9))]))
    return out


def test_cone_facets_match_the_two_elimination_engine():
    # one elimination of the sorted generators seeds the double description
    # with another basis than the greedy one in input order; the facets and
    # their zero sets must not change.  Generators that do not span R^D
    # give normals defined modulo the orthogonal complement of their span,
    # so there only the masks are compared, with the old engine run in a
    # saturation basis of that span.
    rng = random.Random(4242)
    seen = set()
    for kind, gens in _cone_inputs(rng):
        rank, facets = cone_facets(gens)
        assert rank == mat_rank(gens), gens
        got = sorted(facets)
        for y, zeros in got:
            assert gcd(*y) == 1
            values = [_dot(y, g) for g in gens]
            assert min(values) >= 0
            assert zeros == sum(1 << i for i, v in enumerate(values) if v == 0)
        if mat_rank(gens) == len(gens[0]):
            assert got == sorted(two_elimination_cone_facets(gens)), gens
            seen.add(kind)
        else:
            B = saturation_basis(gens)
            coords = [coords_in_basis(B, g) for g in gens]
            assert sorted(z for _, z in got) == \
                sorted(z for _, z in two_elimination_cone_facets(coords)), gens
            seen.add("not spanning")
        if gens != sorted(gens):
            seen.add(kind + " unsorted")
        if kind == "cone" and any(x < 0 for g in gens for x in g):
            seen.add("cone negative")
    assert seen == {"newton", "newton unsorted", "hull", "cone", "cone unsorted",
                    "cone negative", "not spanning"}



def test_cone_facets_equal_the_reference_engine_in_order():
    # the trimmed engine returns the rank and the very ray list of the
    # engine it replaced: the same normals and masks in the same order;
    # each set also runs with some of its generators repeated
    rng = random.Random(4242)
    seen = set()
    for kind, gens in _cone_inputs(rng):
        repeated = gens + rng.sample(gens, min(3, len(gens)))
        rng.shuffle(repeated)
        for g in (gens, repeated):
            rank, rays = cone_facets(g)
            assert (rank, rays) == reference_cone_facets(g), g
            seen.add(kind if rank == len(g[0]) else "not spanning")
    assert seen == {"newton", "hull", "cone", "not spanning"}
    for gens in ([(0, 0, 0), (0, 0, 0)], [(0,)], [(0, 0)] * 4):
        with pytest.raises(InvariantViolation, match="all zero"):
            cone_facets(gens)
        with pytest.raises(InvariantViolation, match="all zero"):
            reference_cone_facets(gens)
