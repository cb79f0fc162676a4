"""The facet-bitmask face walk against the paths it replaced.

``normalized_volume`` (a pulling triangulation on the zero-set masks of one
``cone_facets`` call) is compared with the recursive fan triangulation, and
``compact_faces`` (a top-down walk whose level is the dimension) with the
pairwise-intersection closure plus a rank per face, and with the walk that
cuts every face, simplicial ones too, by all facet masks; the oracles live
in ``tests/helpers.py``.  The triangulation's scans and the sizes of the
scale-recipe germs (``helpers.scale_support``) are pinned here too.
"""

from itertools import chain
from math import factorial, gcd, prod
from random import Random

import pytest

import helpers
from helpers import (
    closure_compact_faces,
    fan_normalized_volume,
    full_scan_compact_faces,
    random_unimodular,
)
from newtonzeta import lattice
from newtonzeta.germ import parse_germ, support
from newtonzeta.lattice import (
    LatticePolytope,
    _face_facets,
    compact_faces,
    convex_hull,
    mat_rank,
    newton_polyhedron_facets,
    normalized_volume,
)


def _embed(rng, pts, d):
    """The points (in Z^l) placed in Z^d by a random affine map x -> b + xM
    with an integer l x d matrix M of rank l, not necessarily saturated."""
    l = len(pts[0])
    while True:
        M = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(l)]
        if mat_rank(M) == l:
            break
    b = [rng.randint(-3, 3) for _ in range(d)]
    return [tuple(b[j] + sum(p[i] * M[i][j] for i in range(l)) for j in range(d))
            for p in pts]


def _volume_cases(rng):
    """(kind, points, known volume or None) of dimension 1..5."""
    for l in range(1, 6):
        sides = [rng.randint(1, 3) for _ in range(l)]
        corners = [tuple(s * (k >> i & 1) for i, s in enumerate(sides))
                   for k in range(1 << l)]
        yield "box", corners, factorial(l) * prod(sides)
        for _ in range(3):
            d = rng.randint(1, 5)
            v = [rng.randint(-3, 3) for _ in range(d)]
            if not any(v):
                v[0] = 1
            k = rng.randint(2, 5)
            p = [rng.randint(-4, 4) for _ in range(d)]
            yield "segment", [tuple(p), tuple(x + k * y for x, y in zip(p, v))], \
                k * gcd(*v)
        for _ in range(4):
            count = rng.randint(l + 1, l + 6)
            pts = [tuple(rng.randint(-2, 2) for _ in range(l)) for _ in range(count)]
            if mat_rank([tuple(x - y for x, y in zip(p, pts[0])) for p in pts]) < l:
                continue
            yield "full", pts, None
            yield "embedded", _embed(rng, pts, rng.randint(l + 1, 6)), None
        if l <= 4:
            grid = [tuple(k // 3 ** i % 3 for i in range(l)) for k in range(3 ** l)]
            M = random_unimodular(rng, l)
            yield "grid", [tuple(sum(p[i] * M[i][j] for i in range(l))
                                 for j in range(l)) for p in grid], None


def test_pulled_volume_matches_fan_triangulation():
    rng = Random(20260601)
    kinds = set()
    for kind, pts, expected in _volume_cases(rng):
        P = LatticePolytope.from_points(pts)
        want = fan_normalized_volume(pts)
        assert normalized_volume(P) == want, (kind, pts)
        if expected is not None:
            assert want == expected
        # every input point kept, non-vertices included: the pulled point
        # need not be a vertex
        distinct = tuple(sorted(set(pts)))
        raw = LatticePolytope(distinct)
        assert convex_hull(raw.vertices)[1] == convex_hull(P.vertices)[1], (kind, pts)
        assert normalized_volume(raw) == want, (kind, pts)
        # the triangulation itself, on the saturated points lifted to
        # height one, non-vertices included
        r, (sat,) = lattice._saturate([distinct])
        lifted = [(1,) + p for p in sat]
        masks = [z for _, z in lattice.cone_facets(lifted)[1]]
        full = (1 << len(lifted)) - 1
        assert lattice._pulled_volume(full, r, lifted, masks, ()) == want, (kind, pts)
        if len(distinct) > len(P.vertices):
            kinds.add("non-vertex points")
        kinds.add(kind)
    assert kinds == {"box", "segment", "full", "embedded", "grid",
                     "non-vertex points"}


def test_pulled_volume_cuts_each_level_on_the_facets_above(monkeypatch):
    # the 4-cube's 8 facets are handed over; each of its 3-cubes is cut on
    # them, each square on the 6 facets of its 3-cube, not on all 8, and
    # each edge, a simplex, is measured uncut
    handed = []

    def counted(mask, facet_masks):
        handed.append(len(facet_masks))
        return _face_facets(mask, facet_masks)

    monkeypatch.setattr(lattice, "_face_facets", counted)
    cube = tuple(tuple(k >> i & 1 for i in range(4)) for k in range(16))
    assert normalized_volume(LatticePolytope(cube)) == factorial(4)
    assert sorted(handed) == [6] * 12 + [8] * 4
    # the same cuts when the cube, lifted to height one, is pulled directly
    handed.clear()
    lifted = [(1,) + p for p in cube]
    masks = [z for _, z in lattice.cone_facets(lifted)[1]]
    assert lattice._pulled_volume((1 << 16) - 1, 4, lifted, masks, ()) == factorial(4)
    assert sorted(handed) == [6] * 12 + [8] * 4


def _support_cases(rng):
    """(kind, points, d) with d = 2..6, nonnegative exponents."""
    for d in range(2, 7):
        few = 10 - d // 2
        for _ in range(8):
            pts = {tuple(rng.randint(1, 6) if j == i else 0 for j in range(d))
                   for i in range(d)}
            pts |= {tuple(rng.randint(0, 4) for _ in range(d))
                    for _ in range(rng.randint(0, few - d // 2))}
            yield "convenient", sorted(pts), d
            pts = {tuple(rng.randint(0, 4) for _ in range(d))
                   for _ in range(rng.randint(2, few))}
            yield "not convenient", sorted(pts), d
        yield "point", [tuple(rng.randint(0, 3) for _ in range(d))], d
        v = [rng.randint(0, 2) for _ in range(d)]
        v[rng.randrange(d)] = 1
        p = [rng.randint(0, 3) for _ in range(d)]
        yield "collinear", [tuple(x + k * y for x, y in zip(p, v))
                            for k in rng.sample(range(6), 4)], d
        axes = rng.sample(range(d), rng.randint(1, d))
        yield "axes", sorted({tuple(k if j == i else 0 for j in range(d))
                              for i in axes for k in rng.sample(range(1, 7), 2)}), d


def _faces(points, d):
    """``compact_faces`` handed the polyhedron of the same support."""
    return compact_faces(newton_polyhedron_facets(points, d))


def test_compact_faces_match_closure():
    rng = Random(20260602)
    kinds = set()
    for kind, pts, d in _support_cases(rng):
        faces = _faces(pts, d)
        assert faces == closure_compact_faces(pts, d), (kind, pts)
        assert faces, (kind, pts)
        kinds.add(kind)
    assert len(kinds) == 5


def test_compact_faces_of_a_point_and_of_a_segment():
    assert _faces([(2, 1, 0)], 3) == [(((2, 1, 0),), 0)]
    # the cusp z1^2 + z2^3: two vertices and the edge between them; the
    # point (1, 2) lies above the edge
    assert _faces([(2, 0), (0, 3), (1, 2)], 2) == [
        (((0, 3),), 0), (((2, 0),), 0), (((0, 3), (2, 0)), 1)]


def _sparse_cases(rng):
    """(kind, points, d) with d = 2..7: a few points with one or two
    nonzero coordinates, rarely convenient, so that many noncompact faces
    are simplicial cones."""
    for d in range(2, 8):
        for _ in range(6):
            pts = set()
            for _ in range(rng.randint(2, d + 3)):
                p = [0] * d
                for j in rng.sample(range(d), rng.randint(1, 2)):
                    p[j] = rng.randint(1, 5)
                pts.add(tuple(p))
            yield "sparse", sorted(pts), d


def _counting(monkeypatch, module):
    """Count the calls ``module`` makes to ``_face_facets``: each mask it
    cuts, and how many facet masks it hands that cut."""
    cut, handed = [], []

    def counted(mask, facet_masks):
        cut.append(mask)
        handed.append(len(facet_masks))
        return _face_facets(mask, facet_masks)

    monkeypatch.setattr(module, "_face_facets", counted)
    return cut, handed


def test_compact_faces_split_simplicial_faces(monkeypatch):
    """Equal to the full-scan walk; no simplicial face (as many mask bits
    as generators of rank dim + 1) is cut by the facet masks, and the
    split replaces scans on compact and noncompact faces alike."""
    walk, _ = _counting(monkeypatch, lattice)
    oracle, _ = _counting(monkeypatch, helpers)
    rng = Random(20261019)
    skipped = {"compact": 0, "noncompact": 0}
    for kind, pts, d in chain(_support_cases(rng), _sparse_cases(rng)):
        walk.clear()
        oracle.clear()
        faces = _faces(pts, d)
        assert faces == full_scan_compact_faces(pts, d), (kind, pts)
        pts = sorted(set(pts))
        n = len(pts)
        gens = [(1,) + p for p in pts] + [
            (0,) * j + (1,) + (0,) * (d - j) for j in range(1, d + 1)]

        def simplicial(m):
            return m.bit_count() == mat_rank([g for i, g in enumerate(gens) if m >> i & 1])

        assert not any(map(simplicial, walk)), (kind, pts)
        # both walks expand one face per point part of each level
        assert len(walk) <= len(oracle), (kind, pts)
        for m in oracle:
            if simplicial(m):
                skipped["noncompact" if m >> n else "compact"] += 1
    assert all(skipped.values()), skipped


def test_scans_on_a_named_germ(monkeypatch):
    # the Brieskorn-Pham suspension's polyhedron: a compact tetrahedron and
    # four coordinate facets, each through three points and three recession
    # axes; the walk starts at the tetrahedron alone, the one facet whose
    # normal is not a unit vector, and splits it down to its vertices with
    # no cut; the full-scan walk cuts 29 faces
    walk, _ = _counting(monkeypatch, lattice)
    F = parse_germ("z1^2+z2^3+z3^5 - s", ["s", "z1", "z2", "z3"])
    assert len(newton_polyhedron_facets(support(F), 4)) == 5
    assert len(_faces(support(F), 4)) == 15
    assert len(walk) == 0


@pytest.mark.parametrize("F", [
    parse_germ("z1^2+z2^3+z3^5 - s", ["s", "z1", "z2", "z3"]),
    helpers.scale_support(6, 65),
], ids=["brieskorn-pham", "scale-6-65"])
def test_walk_of_a_convenient_germ_reads_compact_faces_alone(monkeypatch, F):
    # a convenient polyhedron's facets with a normal that is not a unit
    # vector are its compact facets, so the walk reads no mask that holds a
    # recession axis (a bit from n up) and reads each compact face once
    P = newton_polyhedron_facets(support(F), F.num_vars)
    read, bits = [], lattice._bits
    monkeypatch.setattr(lattice, "_bits", lambda m: read.append(m) or bits(m))
    faces = compact_faces(P)
    n = len(P.points)
    assert all(m >> n == 0 for m in read)
    assert sorted(read) == sorted(sum(1 << P.points.index(p) for p in face)
                                  for face, _ in faces)


def _seed_rule_cases(rng):
    """(kind, points, d): supports on both sides of the walk's seed rule,
    which starts at the facets whose normal has at least two nonzero
    entries and, when there are none, at all facets of the orthant
    p + R_+^d."""
    # an orthant; a compact edge in no facet with a strictly positive
    # normal; compact faces in facets whose offset is not positive
    yield "named", [(2, 3)], 2
    yield "named", [(0, 1, 3), (0, 3, 2), (1, 0, 1), (3, 0, 0)], 3
    yield "named", [(-2, 1, 0, -1), (-1, 3, 2, -2), (1, 1, -1, 2)], 4
    for d in range(1, 6):
        for _ in range(20):
            yield "point", [tuple(rng.randint(-3, 3) for _ in range(d))], d
            yield "origin", [(0,) * d] + [tuple(rng.randint(-1, 4) for _ in range(d))
                                          for _ in range(rng.randint(0, 4))], d
            yield "negative", [tuple(rng.randint(-3, 3) for _ in range(d))
                               for _ in range(rng.randint(2, 8))], d
            # about half the coordinates zero: some compact faces lie only
            # in facets that hold a recession axis
            yield "unbounded", [tuple(rng.choice((0, rng.randint(1, 4))) for _ in range(d))
                                for _ in range(rng.randint(2, 7))], d
            yield "convenient", [tuple(rng.randint(1, 6) if j == i else 0 for j in range(d))
                                 for i in range(d)] + [
                tuple(rng.randint(0, 4) for _ in range(d))
                for _ in range(rng.randint(0, 5))], d


def test_compact_faces_seed_rule():
    rng = Random(20261020)
    orthants = walked = 0
    for kind, pts, d in _seed_rule_cases(rng):
        P = newton_polyhedron_facets(pts, d)
        faces = compact_faces(P)
        assert faces == full_scan_compact_faces(pts, d), (kind, pts)
        assert faces == closure_compact_faces(pts, d), (kind, pts)
        if all(sum(map(bool, a)) == 1 for a, _, _ in P):
            orthants += 1
            assert faces == [((P.points[0],), 0)], (kind, pts)
        else:
            walked += 1
    assert orthants and walked


@pytest.mark.parametrize("n,points,facets,faces", [(6, 65, 159, 6331), (7, 64, 143, 11599)])
def test_scale_recipe_germs(n, points, facets, faces):
    # the germ sizes that timings at scale are quoted on
    F = helpers.scale_support(n, points)
    assert len(F.terms) == points
    assert len(newton_polyhedron_facets(support(F), n + 1)) == facets
    assert len(_faces(support(F), n + 1)) == faces


@pytest.mark.parametrize("n,points", [(6, 65), (7, 64)])
def test_compact_faces_cut_on_the_parent_facets_at_scale(monkeypatch, n, points):
    # each face that is not a simplicial cone is cut on the facets of the
    # face it was split from: the same faces as the full-scan walk, which
    # hands every cut all of the polyhedron's facets, from fewer masks, and
    # fewer than its own cuts would take on all of them
    walk, handed = _counting(monkeypatch, lattice)
    _, oracle_handed = _counting(monkeypatch, helpers)
    S = support(helpers.scale_support(n, points))
    assert _faces(S, n + 1) == full_scan_compact_faces(S, n + 1)
    assert sum(handed) < sum(oracle_handed)
    assert sum(handed) < len(walk) * len(newton_polyhedron_facets(S, n + 1))


def test_compact_faces_read_each_mask_once(monkeypatch):
    # a compact face is listed and, when it is a simplicial cone, split
    # from one read of its bits: no mask is read twice
    read = []
    S = support(helpers.scale_support(6, 65))
    P = newton_polyhedron_facets(S, 7)
    bits = lattice._bits
    monkeypatch.setattr(lattice, "_bits", lambda m: read.append(m) or bits(m))
    faces = compact_faces(P)
    assert faces == full_scan_compact_faces(S, 7)
    assert len(read) == len(set(read)) >= len(faces)
