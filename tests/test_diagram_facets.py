"""Diagram facets read off the Newton polyhedron against the bounded-hull path,
and every index set's facets read off the germ's one polyhedron against the
polyhedron of each restricted support and against the reader that cut every
index set's face by all of the polyhedron's facets; a restricted support of
at most |I| points, read with no polyhedron, against the bounded-hull path."""

import collections
import itertools
import random

import pytest

import helpers
from helpers import (
    apply_matrix,
    contribution_product,
    engine_measure,
    hull_diagram_facets,
    per_index_set_zeta,
    random_convenient_germ,
    random_deformation_germ,
    random_lattice_simplex,
    random_point_set,
    random_unimodular,
    random_z_germ,
    reader_diagram_facets,
    reader_index_set_facets,
    reference_pulled_volume,
    reference_records,
    scale_support,
)
from newtonzeta import diagram, lattice
from newtonzeta.diagram import (
    DiagramFacet,
    _index_set_facets,
    _zeta_torus_and_full,
    diagram_facets,
    zeta_full,
    zeta_torus,
)
from newtonzeta.factored import factor, product
from newtonzeta.germ import (
    index_sets_with_zero,
    make_germ,
    parse_germ,
    pencil_germ,
    restrict_support,
    support,
    suspend_germ,
)
from newtonzeta.lattice import (
    _dot,
    _face_facets,
    _measure,
    _sub,
    compact_faces,
    convex_hull,
    mat_rank,
    newton_polyhedron_facets,
    primitive,
)
from test_face_walk import _support_cases


def _shape(F, I):
    """How the restricted support sits in R^I."""
    S = sorted(restrict_support(support(F), I))
    if not S:
        return "empty"
    dim = mat_rank([_sub(p, S[0]) for p in S[1:]])
    d = len(I)
    if dim == 0:
        return "point"
    if dim == d:
        return "full"
    if dim == d - 1:
        return "codimension one"
    return "collinear" if dim == 1 else "lower"


def _homogeneous_germ(rng, n):
    """Monomials of one total degree in z, less a power of sigma: the
    facets through the z-part hold many points, often not a simplex."""
    D = rng.randint(2, 4)
    degree_D = [e for e in itertools.product(range(D + 1), repeat=n) if sum(e) == D]
    chosen = rng.sample(degree_D, rng.randint(min(3, len(degree_D)), len(degree_D)))
    return make_germ(n + 1, [((0,) + e, rng.randint(1, 5)) for e in chosen]
                     + [((rng.randint(1, 3),) + (0,) * n, -1)])


def _germs(rng, n, count):
    """Deformations with and without sigma terms, convenient or not, then
    ``count // 4`` homogeneous ones."""
    out = []
    for k in range(count):
        kind = k % 4
        if kind == 0:
            out.append(random_deformation_germ(rng, n, terms_count=rng.randint(1, 6)))
        elif kind == 1:
            out.append(suspend_germ(random_convenient_germ(
                rng, n, max_exp=5, extra_terms=rng.randint(0, 4))))
        elif kind == 2:
            out.append(suspend_germ(random_z_germ(rng, n, max_terms=4)))
        else:
            out.append(pencil_germ(random_z_germ(rng, n, max_terms=3),
                                   random_z_germ(rng, n, max_terms=2)))
    return out + [_homogeneous_germ(rng, n) for _ in range(count // 4)]


@pytest.mark.parametrize("n,count", [(1, 40), (2, 60), (3, 60), (4, 30), (5, 8)])
def test_records_match_the_hull_oracle(n, count):
    rng = random.Random(500 + n)
    shapes = set()
    facets = non_vertex = thick = 0
    for F in _germs(rng, n, count):
        for I in index_sets_with_zero(n):
            got = diagram_facets(F, I)
            assert got == hull_diagram_facets(F, I), (F, I)
            shapes.add(_shape(F, I))
            facets += len(got)
            S = restrict_support(support(F), I)
            for f in got:
                c = _dot(f.normal, f.vertices[0])
                # a support point on the facet that is not a vertex: the
                # pyramid walk runs on masks that hold it
                non_vertex += sum(1 for p in S if _dot(f.normal, p) == c) \
                    > len(f.vertices)
                # the origin at lattice height >= 2 under a facet that the
                # walk must triangulate
                thick += c >= 2 and len(f.vertices) > len(I)
    assert facets > 0
    assert {"empty", "point", "codimension one", "full"} <= shapes
    if n >= 2:
        assert "collinear" in shapes
        assert non_vertex > 0
    if n >= 3:
        assert thick > 0


@pytest.mark.parametrize("n,count", [(1, 40), (2, 60), (3, 60), (4, 30), (5, 8)])
def test_one_polyhedron_gives_every_index_set(n, count):
    rng = random.Random(600 + n)
    germs = _germs(rng, n, count) + [
        pencil_germ(random_convenient_germ(rng, n, max_exp=4, extra_terms=2),
                    random_z_germ(rng, n, max_terms=3))
        for _ in range(count // 4)]
    cases = set()
    for F in germs:
        table = _index_set_facets(F)
        index_sets = list(table)
        assert index_sets == index_sets_with_zero(n)
        assert index_sets[-1] == tuple(range(n + 1))
        for I, got in table.items():
            assert got == diagram_facets(F, I) == hull_diagram_facets(F, I), (F, I)
            if not restrict_support(support(F), I):
                cases.add("empty")
            elif not got:
                cases.add("factor 1")
            elif I == (0,):
                cases.add("deformation axis")
            elif I == index_sets[-1]:
                # the full index set: the polyhedron's own compact facets
                cases.add("full index set")
        facets = newton_polyhedron_facets(support(F), F.num_vars)
        assert _zeta_torus_and_full(F, facets) == per_index_set_zeta(F), F
    assert cases == {"empty", "factor 1", "deformation axis", "full index set"}


V3 = ["s", "z1", "z2"]


@pytest.mark.parametrize("text,I,shape", [
    ("z1^2 - s", (0, 1), "codimension one"),   # segment with a positive normal
    ("z1^2 - s*z1^2", (0, 1), "codimension one"),   # normals +-(0, 1): none
    ("z1*z2 - s", (0, 1, 2), "collinear"),
    ("z1*z2 - s*z1^2*z2^2 + s^2*z1^3*z2^3", (0, 1, 2), "collinear"),
    ("z1^2 - s", (0, 2), "point"),
    ("z1^2 + z2^3", (0, 1), "point"),
    ("z1^2 - s*z2", (0, 1), "point"),
    ("z1^2 + z2^3 - s*z1*z2", (0,), "empty"),
    ("z1^2 + z2^3 - s", (0, 1, 2), "codimension one"),
    ("z1^2 + z2^3 - s*z1 - s*z2", (0, 1, 2), "full"),
])
def test_shapes_of_the_restricted_support(text, I, shape):
    F = parse_germ(text, V3)
    assert _shape(F, I) == shape
    assert diagram_facets(F, I) == hull_diagram_facets(F, I)


def test_pure_deformation_powers():
    # I = (0,): the Newton polyhedron of s^a + ... is the ray [a, oo)
    F = make_germ(3, [((3, 0, 0), 1), ((5, 0, 0), -2), ((0, 2, 0), 1),
                      ((2, 0, 1), 1)])
    (facet,) = diagram_facets(F, (0,))
    assert facet == DiagramFacet((1,), 1, ((3,),), 1)
    for I in index_sets_with_zero(2):
        assert diagram_facets(F, I) == hull_diagram_facets(F, I)
    rng = random.Random(509)
    for _ in range(30):
        n = rng.randint(1, 3)
        exps = [(rng.randint(1, 6),) + (0,) * n]
        exps += [tuple(rng.randint(0, 3) for _ in range(n + 1))
                 for _ in range(rng.randint(0, 3))]
        F = make_germ(n + 1, [(e, rng.randint(1, 5)) for e in exps if any(e)])
        for I in index_sets_with_zero(n):
            assert diagram_facets(F, I) == hull_diagram_facets(F, I)


def _sign(I):
    return -1 if (len(I) - 2) % 2 else 1


@pytest.mark.parametrize("text", [
    "z1^2 + z2^3 - s",
    "z1^3 + z1*z2^2 + z2^5 - s",
    "z1^2*z2 + z2^4 - s*z1 - s*z2^2",
    "z1^4 + z2^4 + z1^2*z2^2 - s^2 - s*z1*z2",
])
def test_zeta_full_is_the_oracle_product(text):
    F = parse_germ(text, V3)
    expected = factor(1, 1) * product(
        factor(f.m, _sign(I) * f.nvol)
        for I in index_sets_with_zero(2) for f in hull_diagram_facets(F, I))
    assert zeta_full(F) == expected


def test_walk_equals_the_reader_oracle():
    """The subset-lattice walk gives the reader's table, in its order, on
    the face-walk point sets (as germs with unit coefficients; a germ
    vanishes at 0, so the origin is left out) and on two scale germs;
    ``diagram_facets``, which cuts no face, gives the reader's records of
    each restricted polyhedron read as its full index set."""
    germs = [(kind, make_germ(d, [(p, 1) for p in pts if any(p)]))
             for kind, pts, d in _support_cases(random.Random(20261101))
             if any(map(any, pts))]
    germs += [("scale", scale_support(n, points)) for n, points in ((6, 65), (7, 64))]
    for kind, F in germs:
        index_sets, read = reader_index_set_facets(F)
        table = _index_set_facets(F)
        assert list(table) == index_sets, kind
        assert table == {I: read(I) for I in index_sets}, (kind, F)
        # every restricted polyhedron, the scale germs' full one only
        for I in index_sets[-1:] if kind == "scale" else index_sets:
            assert diagram_facets(F, I) == reader_diagram_facets(F, I), (kind, F, I)
        # no two entries, empty ones included, are one shared list
        assert all(a is not b for a, b in itertools.combinations(table.values(), 2))
    assert {kind for kind, _ in germs} == {
        "convenient", "not convenient", "point", "collinear", "axes", "scale"}


def test_records_are_the_compact_faces_of_full_coordinate_dimension():
    """Both ways: the ``(I, vertices)`` pairs of every ``_index_set_facets``
    record are the compact faces G of P (``compact_faces``) whose
    coordinate support J holds 0 and has dim G = |J| - 1, with J for I and
    G's vertices (``convex_hull``) projected to J; on seeded germs and on
    the n = 6 / 40 scale germ."""
    rng = random.Random(2037)
    germs = [F for n in (1, 2, 3, 4) for F in _germs(rng, n, 16)]
    germs.append(scale_support(6, 40))
    total = 0
    for F in germs:
        S, d = sorted(support(F)), F.num_vars
        want = []
        for pts, dim in compact_faces(newton_polyhedron_facets(S, d)):
            J = tuple(j for j in range(d) if any(p[j] for p in pts))
            if J[:1] == (0,) and dim == len(J) - 1:
                want.append((J, tuple(tuple(v[j] for j in J) for v in convex_hull(pts)[0])))
        got = [(I, f.vertices)
               for I, records in _index_set_facets(F).items() for f in records]
        assert sorted(got) == sorted(want), F
        total += len(got)
    assert total > 800


def _scans(monkeypatch, *modules):
    """The facet masks handed to ``_face_facets`` through each module's
    binding, one entry per call."""
    handed = []

    def counted(mask, facet_masks):
        facet_masks = list(facet_masks)
        handed.append(len(facet_masks))
        return _face_facets(mask, facet_masks)

    for module in modules:
        monkeypatch.setattr(module, "_face_facets", counted)
    return handed


@pytest.mark.parametrize("text,names", [
    ("z1^2+z2^3-s", ["s", "z1", "z2"]),
    ("z1^2+z2^3+z3^5-s", ["s", "z1", "z2", "z3"]),
])
def test_diagram_facets_cuts_no_face(monkeypatch, text, names):
    # the polyhedron's one compact facet is a simplex, and its own facets
    # are the polyhedron's: nothing is left to scan
    handed = _scans(monkeypatch, lattice)
    (facet,) = diagram_facets(parse_germ(text, names), range(len(names)))
    assert facet.nvol == 1
    assert handed == []


def test_walk_scans_fewer_masks_than_the_reader(monkeypatch):
    # each cut scans the facets of the nearest face above it that was cut,
    # and each pulling level the facets of the face it was cut from
    handed = _scans(monkeypatch, lattice, helpers)
    F = parse_germ("z1^3+z2^3+z3^3+z1*z2*z3+z1^2*z2-s", ["s", "z1", "z2", "z3"])
    table = _index_set_facets(F)
    walk = sum(handed)
    handed.clear()
    index_sets, read = reader_index_set_facets(F)
    assert table == {I: read(I) for I in index_sets}
    assert 0 < walk < sum(handed)


def _collinear_germ(rng):
    """Three collinear support points a, a + e, a + 2e in R^I, for an I of
    three coordinates that holds 0, and one to three points off R^I: I's
    face holds exactly those |I| dependent points, and now and then a
    facet above meets it in exactly them."""
    n = rng.randint(3, 4)
    I = (0, *sorted(rng.sample(range(1, n + 1), 2)))
    while True:
        a = [rng.randint(0, 3) if j in I else 0 for j in range(n + 1)]
        e = [rng.randint(-1, 1) if j in I else 0 for j in range(n + 1)]
        line = [tuple(x + k * y for x, y in zip(a, e)) for k in range(3)]
        if any(e) and all(min(p) >= 0 and any(p) for p in line):
            break
    terms, size = dict.fromkeys(line, 1), rng.randint(4, 6)
    while len(terms) < size:
        p = tuple(rng.randint(0, 3) for _ in range(n + 1))
        if any(p[j] for j in range(n + 1) if j not in I):
            terms[p] = 1
    return make_germ(n + 1, terms.items())


# (germ, variables, I, I's records): coordinate faces of exactly |I| points
# that give no record
EXACT_FACES = [
    # s^2, s z1, z1^2: dependent, and cut out of I's face by the facet
    # (1, 1, 1, 0) of P, which z2^2 z3 lies on too
    ("s^2 + s*z1 + z1^2 + z2^2*z3", ["s", "z1", "z2", "z3"], (0, 1, 2), []),
    # s and s^2 z1^3 = s + (1, 3) are independent, but no face: no facet
    # of P meets I's face in exactly them
    ("s + s^2*z1^3 + z2", V3, (0, 1), []),
]


def test_faces_of_exactly_I_points_are_read_off_the_cut_above(monkeypatch):
    """A coordinate face of exactly |I| support points is not cut and not
    read by ``_records``: its one possible diagram facet, the simplex of
    those points, is kept iff a facet of the face above meets it in
    exactly them and their volume is not 0.  The walk's table equals the
    reader's on seeded germs and on named ones, where such faces are a
    diagram facet, dependent points (some cut out by a facet above, so
    read and dropped) or independent points that are not a face."""
    records, det = lattice._records, lattice.int_det
    cut, dropped = [], []

    def kept(coords, pts, masks):
        cut.append(coords)
        return records(coords, pts, masks)

    def measured(rows):
        # the walk's one zero determinant: dependent points that a mask
        # above cuts out of a face of exactly |I| points, read and dropped
        volume = det(rows)
        if not volume:
            dropped.append(rows)
        return volume

    monkeypatch.setattr(lattice, "_records", kept)
    monkeypatch.setattr(lattice, "int_det", measured)
    rng = random.Random(2042)
    germs = [F for n in (1, 2, 3, 4) for F in _germs(rng, n, 8)]
    germs += [_collinear_germ(rng) for _ in range(40)]
    kinds = collections.Counter()
    for F in germs + [parse_germ(text, names) for text, names, _, _ in EXACT_FACES]:
        S, d = sorted(support(F)), F.num_vars
        index_sets, reader = reader_index_set_facets(F)
        cut.clear()
        table = _index_set_facets(F)
        assert table == {I: reader(I) for I in index_sets}, F
        for I in index_sets:
            rows = [[p[j] for j in I] for p in S
                    if not any(p[j] for j in range(d) if j not in I)]
            if len(rows) == len(I):
                assert I not in cut, (F, I)
                kinds["facet" if table[I] else
                      "independent" if mat_rank(rows) == len(I) else "dependent"] += 1
    for text, names, I, records_of_I in EXACT_FACES:
        assert _index_set_facets(parse_germ(text, names))[I] == records_of_I, text
    assert min(kinds["facet"], kinds["independent"], kinds["dependent"]) >= 5, kinds
    assert len(dropped) >= 5, dropped  # the named germ's and seeded ones


def test_brieskorn_pham_table_cuts_no_face(monkeypatch):
    # every coordinate face of z1^a1 + ... + z6^a6 - s holds exactly |I|
    # points, s and the z_i^a_i of i in I, whose simplex is its one
    # diagram facet: the 64 records come with no cut, and all but the
    # top one inherit their volume from the face above
    handed = _scans(monkeypatch, lattice)
    det, dets = lattice.int_det, []
    monkeypatch.setattr(lattice, "int_det", lambda rows: dets.append(rows) or det(rows))
    names = ["s"] + [f"z{i}" for i in range(1, 7)]
    table = _index_set_facets(parse_germ("z1^2+z2^3+z3^5+z4^7+z5^11+z6^13 - s", names))
    assert len(table) == 64 and all(len(records) == 1 for records in table.values())
    assert handed == []
    assert len(dets) == 1


def _brieskorn_pham_plus(rng, n):
    """A Brieskorn-Pham germ z1^a1 + ... + zn^an - s plus one or two terms
    that mix two to n variables, sigma among them now and then."""
    terms = {(1,) + (0,) * n: -1}
    for i in range(1, n + 1):
        terms[tuple(rng.randint(2, 7) if j == i else 0 for j in range(n + 1))] = 1
    for _ in range(rng.randint(1, 2)):
        mixed = rng.sample(range(0 if rng.random() < 0.3 else 1, n + 1), rng.randint(2, n))
        terms[tuple(rng.randint(1, 4) if j in mixed else 0 for j in range(n + 1))] = 1
    return make_germ(n + 1, terms.items())


def test_inherited_simplices_match_the_reader(monkeypatch):
    """A face of exactly |I| points below a diagram facet of exactly |I|,
    which loses one point p on the way down, takes the facet's normal and
    its volume over p_j from it, with no scan and no determinant.  On
    seeded sparse germs, n = 2..6, the walk's table equals the reader's,
    which cuts every index set's face by all of the polyhedron's facets,
    and such faces are read; and on seeded germs of other shapes, where
    faces below a simplex facet also lose two points or more."""
    walk, inherited = lattice._walk, []

    def counted(pts, off, I, face, cut, top, simplex=None):
        if simplex:
            inherited.append(I)
        return walk(pts, off, I, face, cut, top, simplex)

    monkeypatch.setattr(lattice, "_walk", counted)
    rng = random.Random(4049)
    germs = [_brieskorn_pham_plus(rng, n) for n in (2, 3, 4, 5, 6) for _ in range(6)]
    germs += [F for n in (2, 3, 4) for F in _germs(rng, n, 8)]
    for F in germs:
        index_sets, read = reader_index_set_facets(F)
        assert _index_set_facets(F) == {I: read(I) for I in index_sets}, F
    assert len(inherited) >= 200, len(inherited)


def test_each_facet_is_read_off_its_own_facets(monkeypatch):
    """``_records`` hands the vertex read and the pulling triangulation of
    each diagram facet G that is not a simplex one list, G's own facets
    found once (``_face_facets(G, cut)``), never the masks of G's whole
    face; on seeded germs and on the n = 6 / 65 scale germ."""
    records, vertices, pulled = lattice._records, lattice._vertices, lattice._pulled_volume
    cuts, handed = [], {"_vertices": [], "_pulled_volume": []}

    def kept(coords, pts, cut):
        cuts.append(cut)
        return records(coords, pts, cut)

    def read(mask, masks):
        handed["_vertices"].append((mask, masks, cuts[-1]))
        return vertices(mask, masks)

    def pull(mask, dim, pts, facets, apexes):
        if not apexes:  # a call of ``_records``, not a pulling level below it
            handed["_pulled_volume"].append((mask, facets, cuts[-1]))
        return pulled(mask, dim, pts, facets, apexes)

    monkeypatch.setattr(lattice, "_records", kept)
    monkeypatch.setattr(lattice, "_vertices", read)
    monkeypatch.setattr(lattice, "_pulled_volume", pull)
    rng = random.Random(2036)
    germs = [F for n in (1, 2, 3, 4) for F in _germs(rng, n, 12)]
    germs.append(scale_support(6, 65))
    for F in germs:
        _index_set_facets(F)
        diagram_facets(F, range(F.num_vars))
    assert len(handed["_vertices"]) > 100  # facets that are not simplices
    for (g, masks, cut), (h, facets, _) in zip(*handed.values(), strict=True):
        assert g == h and masks is facets, g
        assert masks == _face_facets(g, cut), g
        assert len(masks) < len(cut), g


def test_pulled_volume_equals_the_subtracting_oracle(monkeypatch):
    """Every compact facet that the walk and ``diagram_facets`` measure,
    simplices included, on seeded suspensions and pencils, homogeneous
    germs and the n = 6 / 65 scale germ, has ``c * nvol`` equal to its
    volume coned from the origin with one subtraction per row
    (``helpers.reference_pulled_volume``), ``c`` its offset; and
    ``_measure``, which pulls a point set lifted to height one, equals
    ``helpers.engine_measure``, which pulls it as it is, on full simplices
    with extra points in dimensions 1-5 and on their unimodular images."""
    records = lattice._records
    measured = []

    def checked(coords, pts, cut):
        out = records(coords, pts, cut)
        by_normal = {f.normal: f for f in out}
        proj = [tuple(p[j] for j in coords) for p in pts]
        origin = ((0,) * len(coords),)
        compact = [(g, y) for g, y in cut.items() if not g >> len(pts)]
        for g, y in compact:
            a = primitive(tuple(y[j] for j in coords))
            c = _dot(a, proj[(g & -g).bit_length() - 1])
            want = reference_pulled_volume(g, len(coords) - 1, proj, cut, origin)
            assert c * by_normal[a].nvol == want, (coords, g, pts)
            measured.append(g.bit_count() > len(coords))
        assert len(by_normal) == len(out) == len(compact)
        return out

    monkeypatch.setattr(lattice, "_records", checked)
    rng = random.Random(2030)
    germs = [F for n in (1, 2, 3, 4) for F in _germs(rng, n, 16)]
    germs.append(scale_support(6, 65))
    for F in germs:
        _index_set_facets(F)
        diagram_facets(F, range(F.num_vars))
    assert len(measured) > 1000
    assert sum(measured) > 100  # facets that are not simplices

    sizes = set()
    for m in range(1, 6):
        for _ in range(12):
            pts = set(random_lattice_simplex(rng, m, m, 3))
            pts |= set(random_point_set(rng, m, rng.randint(1, 6), 3))
            pts = sorted(pts)
            M = random_unimodular(rng, m)
            image = [apply_matrix(M, p) for p in pts]
            want = engine_measure(pts, m)
            assert want > 0, pts
            assert _measure(pts, m) == want == engine_measure(image, m), pts
            assert _measure(image, m) == want, (M, pts)
            sizes.add((m, len(pts) > m + 1))
    assert sizes == {(m, True) for m in range(1, 6)}


def test_records_equal_the_builder_that_pulled_every_facet(monkeypatch):
    """``_index_set_facets`` and ``diagram_facets`` give the records of the
    builder that read each facet's mask twice and pulled simplices too
    (``helpers.reference_records``), on seeded germs and on the n = 6 / 65
    scale germ, whose facets are not all simplices."""
    rng = random.Random(2032)
    germs = [F for n in (1, 2, 3, 4) for F in _germs(rng, n, 12)]
    germs.append(scale_support(6, 65))

    def every_call(F):
        I = range(F.num_vars)
        below = [J for J in index_sets_with_zero(F.num_vars - 1) if len(J) < 5]
        return _index_set_facets(F), [diagram_facets(F, J) for J in [*below, I]]

    pulled, pull = [], lattice._pulled_volume

    def counted(mask, dim, pts, facets, apexes):
        if not apexes:  # a call of ``_records``, not a pulling level below it
            pulled.append(mask)
        return pull(mask, dim, pts, facets, apexes)

    monkeypatch.setattr(lattice, "_pulled_volume", counted)
    got = [every_call(F) for F in germs]
    assert len(pulled) > 100  # facets with more points than a simplex
    monkeypatch.setattr(lattice, "_records", reference_records)
    assert got == [every_call(F) for F in germs]


def test_one_map_equals_the_product_of_contributions():
    """The torus and affine zeta functions summed into one map equal the
    product of one factor per record and one product per index set, on
    seeded germs, one of them with empty index sets; the torus part is
    ``zeta_torus``."""
    rng = random.Random(2031)
    germs = [F for n in (1, 2, 3, 4) for F in _germs(rng, n, 12)]
    # z1^2 + z2^3 - s z1 z2: nothing on the s-axis, so I = (0,) is empty
    germs.append(parse_germ("z1^2 + z2^3 - s*z1*z2", V3))
    empty = 0
    for F in germs:
        table = _index_set_facets(F)
        empty += not all(table.values())
        torus, affine = _zeta_torus_and_full(
            F, newton_polyhedron_facets(support(F), F.num_vars))
        assert (torus, affine) == contribution_product(table), F
        assert torus == zeta_torus(F), F
    assert empty > 0


def _sparse_germ(rng, n):
    """One to n + 2 terms, each coordinate 1 to 3 or, half the time, 0:
    most restricted supports hold at most |I| points."""
    terms = {}
    size = rng.randint(1, n + 2)
    while len(terms) < size:
        e = tuple(rng.randint(1, 3) if rng.random() < 0.5 else 0 for _ in range(n + 1))
        if any(e):
            terms[e] = 1
    return make_germ(n + 1, terms.items())


def _branch(S, d):
    """Which path ``lattice.support_facets`` takes on the support S in R^d,
    and, for d points, what its one elimination of ``[rows | 1]`` finds."""
    if len(S) != d:
        return "fewer" if len(S) < d else "more"
    pivots, a, p = lattice._gauss_jordan([[*row, 1] for row in sorted(S)], d)
    if len(pivots) < d:
        return "dependent"
    y = [row[d] if p > 0 else -row[d] for row in a]
    if all(x > 0 for x in y):
        return "kept, negative pivot" if p < 0 else "kept"
    return "zero entry" if 0 in y else "mixed signs"


def _sparse_germs():
    rng = random.Random(2043)
    counts = ((1, 60), (2, 80), (3, 60), (4, 30), (5, 10))
    return [_sparse_germ(rng, n) for n, count in counts for _ in range(count)]


def test_supports_of_at_most_I_points_match_the_hull_oracle():
    """``diagram_facets``, which reads a support of at most |I| points with
    no polyhedron, equals the hull oracle on every index set of 240 seeded
    sparse germs, n = 1..5; every path of ``lattice.support_facets`` is
    reached at least five times: fewer than |I| points, exactly |I| that
    are dependent, whose y has a zero entry, mixed signs or all entries
    positive (their simplex kept), the last also after a negative pivot,
    and more than |I| points."""
    kinds = collections.Counter()
    for F in _sparse_germs():
        for I in index_sets_with_zero(F.num_vars - 1):
            kinds[_branch(restrict_support(support(F), I), len(I))] += 1
            assert diagram_facets(F, I) == hull_diagram_facets(F, I), (F, I)
        full = tuple(range(F.num_vars))
        assert zeta_torus(F) == diagram._zeta({full: hull_diagram_facets(F, full)}, {}), F
    assert len(kinds) == 7 and min(kinds.values()) >= 5, kinds


def test_supports_of_at_most_I_points_build_no_polyhedron(monkeypatch):
    """``diagram_facets`` on a support of at most |I| points, and
    ``zeta_torus`` on a Brieskorn-Pham germ, whose support has exactly one
    point per variable, build no Newton polyhedron; one of more points
    builds one."""
    built, build = [], newton_polyhedron_facets

    def counted(points, d):
        built.append(d)
        return build(points, d)

    for module in (diagram, lattice):
        monkeypatch.setattr(module, "newton_polyhedron_facets", counted)
    read = 0
    for F in _sparse_germs():
        for I in index_sets_with_zero(F.num_vars - 1):
            if len(restrict_support(support(F), I)) <= len(I):
                read += bool(diagram_facets(F, I))
    assert built == [] and read > 50
    names = ["s"] + [f"z{i}" for i in range(1, 7)]
    F = parse_germ("z1^2+z2^3+z3^5+z4^7+z5^11+z6^13 - s", names)
    # one facet, normal 30030 / (1, 2, 3, 5, 7, 11, 13), |det| 30030, nvol 1
    assert zeta_torus(F) == factor(30030, -1)
    assert built == []
    diagram_facets(parse_germ("z1^2 + z2^3 + z1^2*z2^2 - s", V3), (0, 1, 2))
    assert built == [3]
