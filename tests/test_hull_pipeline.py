"""The one-step hull pipeline against the paths it replaced.

``convex_hull`` reads vertices and facets off one ``cone_facets`` call on
the lifted points as they are, ``_vertices`` reads them off the masks of a
Newton polyhedron too, and ``mixed_volume`` is one
inclusion-exclusion.  The oracles in ``tests/helpers.py`` are the old
dot-product incidences, the recursion into the saturation lattice, the
step that moved a lower-dimensional set into saturated coordinates first
and the two-body polarization.
"""

import random
from fractions import Fraction

import pytest

from helpers import (
    _vertices_from_facets,
    polarization_mixed_volume,
    random_point_set,
    recursive_convex_hull,
    saturated_hull_cone,
    simplex_nvol_oracle,
)
from newtonzeta import lattice
from newtonzeta.diagram import diagram_facets
from newtonzeta.germ import parse_germ
from newtonzeta.lattice import (
    LatticePolytope,
    _bits,
    _face_facets,
    _minimizers,
    _vertices,
    cone_facets,
    convex_hull,
    mat_rank,
    mixed_volume,
    newton_polyhedron_facets,
)


def _embed(rng, d, k):
    """A random d x k integer matrix of rank k, as its k column vectors."""
    while True:
        cols = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        if mat_rank(cols) == k:
            return cols


def _image(cols, shift, p):
    return tuple(s + sum(c[i] * x for c, x in zip(cols, p))
                 for i, s in enumerate(shift))


def _units(k):
    return [tuple(int(i == j) for j in range(k)) for i in range(k)]


def _with_duplicates(rng, pts):
    out = pts + [rng.choice(pts) for _ in range(rng.randint(0, 3))]
    rng.shuffle(out)
    return out


def test_hulls_match_the_recursive_hull():
    rng = random.Random(811)
    seen = {"full": 0, "lower": 0, "non-unimodular": 0, "duplicates": 0}
    for case in range(240):
        d = rng.randint(1, 4)
        if case % 2:
            k = rng.randint(0, d - 1)
            cols = _embed(rng, d, k)
            shift = tuple(rng.randint(-3, 3) for _ in range(d))
            pts = [_image(cols, shift, p) for p in
                   random_point_set(rng, max(k, 1), rng.randint(1, 8), 2)]
            if k and simplex_nvol_oracle([shift] + [_image(cols, shift, e)
                                         for e in _units(k)]) > 1:
                seen["non-unimodular"] += 1
        else:
            pts = random_point_set(rng, d, rng.randint(1, 10), 2)
        pts = _with_duplicates(rng, pts)
        result = convex_hull(pts)
        assert result == recursive_convex_hull(pts)
        # the dimension is the same on the vertices as on every distinct
        # point, non-vertices included
        P = LatticePolytope.from_points(pts)
        assert convex_hull(P.vertices)[1] == result[1]
        assert convex_hull(set(pts))[1] == result[1]
        seen["full" if result[1] == d else "lower"] += 1
        seen["duplicates"] += len(set(pts)) < len(pts)
    assert all(seen.values()), seen
    with pytest.raises(ValueError, match="a polytope needs at least one vertex"):
        LatticePolytope(())
    with pytest.raises(ValueError, match="vertex dimension mismatch"):
        LatticePolytope(((0, 0), (1, 0, 0)))


def test_no_hull_or_volume_calls_mat_rank(monkeypatch):
    # the facet engine's elimination is the rank of every hull, diagram
    # facet and Minkowski sum, and building a LatticePolytope ranks nothing
    calls = []
    rank = lattice.mat_rank
    monkeypatch.setattr(lattice, "mat_rank",
                        lambda rows: calls.append(1) or rank(rows))
    square = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
    segment = [(0, 0, 0), (1, 2, 3), (2, 4, 6)]
    bodies = [LatticePolytope.from_points(b) for b in
              ([(0, 0), (1, 0), (0, 1)], [(0, 0), (2, 1)],
               [(0, 0), (1, 0)], [(0, 0), (3, 0)])]
    assert calls == []
    cusp = parse_germ("z1^2+z2^3-s", ["s", "z1", "z2"])
    calls.clear()
    assert convex_hull(square)[1] == 2
    assert convex_hull(segment)[1] == 1
    assert [(f.m, f.nvol) for f in diagram_facets(cusp, (0, 1, 2))] == [(6, 1)]
    # a triangle and a segment: the segment alone is a lower-dimensional sum
    assert mixed_volume(bodies[:2]) == Fraction(3, 2)
    assert mixed_volume(bodies[2:]) == 0
    assert LatticePolytope.from_points(square).vertices == ((0, 0), (0, 2), (2, 0), (2, 2))
    assert calls == []


def _embedded_set(rng, d, k):
    """Up to 8 points of a random k-dimensional lattice set mapped into Z^d
    by a random rank-k matrix (not always unimodular onto its image) and
    a random shift."""
    cols = _embed(rng, d, k)
    shift = tuple(rng.randint(-3, 3) for _ in range(d))
    return [_image(cols, shift, p)
            for p in random_point_set(rng, max(k, 1), rng.randint(1, 8), 2)]


def test_lifted_hull_masks_match_the_saturated_hull():
    rng = random.Random(814)
    dims = set()
    for _ in range(300):
        d = rng.randint(1, 5)
        pts = sorted(set(_embedded_set(rng, d, rng.randint(0, d))))
        dim, _, cone = saturated_hull_cone(pts)
        rank, facets = cone_facets([(1,) + p for p in pts])
        masks = [z for _, z in facets]
        assert rank == dim + 1, pts
        assert sorted(masks) == sorted(z for _, z in cone), pts
        verts = [pts[i] for i in _vertices((1 << len(pts)) - 1, masks)]
        assert convex_hull(pts)[:2] == (verts, dim)
        dims.add(dim)
    assert dims == set(range(6))


def test_lower_dimensional_hulls_need_no_saturation(monkeypatch):
    rng = random.Random(815)
    cases = []
    for _ in range(60):
        d = rng.randint(2, 5)
        pts = _embedded_set(rng, d, rng.randint(0, d - 1))
        alpha = tuple(rng.randint(1, 3) for _ in range(d))
        cases.append((pts, alpha, recursive_convex_hull(pts),
                      recursive_convex_hull(_minimizers(pts, alpha)[1])[0]))

    def refuse(*args):
        raise AssertionError("a hull computed saturated coordinates")

    monkeypatch.setattr(lattice, "saturation_basis", refuse)
    monkeypatch.setattr(lattice, "smith_normal_form", refuse)
    for pts, alpha, hull, face in cases:
        assert convex_hull(pts) == hull
        assert hull[1] < len(pts[0])
        assert list(LatticePolytope.from_points(pts).vertices) == hull[0]
        face_pts = _minimizers(pts, alpha)[1]
        assert list(LatticePolytope.from_points(face_pts).vertices) == face


def test_newton_polyhedron_vertices_match_the_incidence_rule():
    rng = random.Random(812)
    inner = 0
    for _ in range(150):
        d = rng.randint(1, 4)
        S = sorted({tuple(abs(x) for x in p)
                    for p in random_point_set(rng, d, rng.randint(1, 12), 3)})
        facets = newton_polyhedron_facets(S, d)
        verts = [S[i] for i in _vertices((1 << len(S)) - 1, [z for _, _, z in facets])]
        assert verts == _vertices_from_facets(S, [(a, c) for a, c, _ in facets])
        inner += len(verts) < len(S)
    assert inner



def test_face_vertices_are_the_support_vertices_on_the_face():
    # each facet's vertices, read off its own points on the polyhedron's
    # masks or on the masks of its own facets, are the whole support's
    # vertices on it
    rng = random.Random(816)
    faces = 0
    for _ in range(150):
        d = rng.randint(1, 4)
        S = sorted({tuple(abs(x) for x in p)
                    for p in random_point_set(rng, d, rng.randint(1, 12), 3)})
        masks = [z for _, _, z in newton_polyhedron_facets(S, d)]
        points = (1 << len(S)) - 1
        whole = set(_vertices(points, masks))
        for z in masks:
            want = [i for i in _bits(z & points) if i in whole]
            assert _vertices(z & points, masks) == want, (S, z)
            if (z & points).bit_count() > 1:
                assert _vertices(z & points, _face_facets(z, masks)) == want, (S, z)
                faces += len(want) < (z & points).bit_count()
    assert faces

def _bodies(rng, m, distinct, rank):
    """m bodies, ``distinct`` of them different up to translation, inside
    one rank-dimensional direction space of Z^D, each translated on its
    own."""
    D = rng.randint(m, m + 1)
    cols = _embed(rng, D, rank)
    shapes = []
    while len(shapes) < distinct:
        verts = convex_hull(random_point_set(rng, rank, rng.randint(2, 4), 1))[0]
        shape = [tuple(x - y for x, y in zip(v, verts[0])) for v in verts]
        if shape not in shapes:
            shapes.append(shape)
    picks = shapes + [rng.choice(shapes) for _ in range(m - distinct)]
    rng.shuffle(picks)
    out = []
    for shape in picks:
        shift = tuple(rng.randint(-2, 2) for _ in range(D))
        out.append(LatticePolytope.from_points(
            [_image(cols, shift, p) for p in shape]))
    return out


def test_mixed_volumes_match_the_polarization():
    rng = random.Random(813)
    seen = set()
    for case in range(120):
        m = case % 4 + 1
        distinct = rng.randint(1, min(3, m))
        deficient = m > 1 and case % 5 == 0
        bodies = _bodies(rng, m, distinct, m - 1 if deficient else m)
        value = mixed_volume(bodies)
        assert value == polarization_mixed_volume(bodies)
        if deficient:
            assert value == 0
        seen.add((m, distinct, deficient))
    assert {m for m, _, deficient in seen if not deficient} == {1, 2, 3, 4}
    assert any(deficient for _, _, deficient in seen)
    for distinct in (2, 3):
        assert any(k == distinct < m for m, k, _ in seen), distinct
