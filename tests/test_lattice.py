import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    apply_matrix,
    dilate,
    engine_measure,
    euclid_smith_normal_form,
    nvol_boundary_recursion,
    orthocomplement_line,
    random_lattice_simplex,
    random_point_set,
    random_unimodular,
    simplex_nvol_oracle,
    two_step_saturate,
)
from newtonzeta import lattice
from newtonzeta.lattice import (
    LatticePolytope,
    _add,
    _as_is,
    _dot,
    _measure,
    _minimizers,
    _saturate,
    convex_hull,
    coords_in_basis,
    int_det,
    mat_rank,
    minkowski_sum,
    mixed_volume,
    normalized_volume,
    normalized_volume_at,
    primitive,
    saturation_basis,
    smith_normal_form,
)


# ---------------------------------------------------------------------------
# primitive covectors

def test_primitive_examples():
    assert primitive((4, 6)) == (2, 3)
    assert primitive((1, 0, 0)) == (1, 0, 0)
    assert primitive((-3, -6)) == (-1, -2)


def test_primitive_zero_rejected():
    with pytest.raises(ValueError):
        primitive((0, 0))


# ---------------------------------------------------------------------------
# Smith normal form

def _matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def _check_snf(M):
    U, D, V = smith_normal_form(M)
    k, d = len(M), len(M[0]) if M else 0
    if k and d:
        assert _matmul(_matmul(U, D), V) == [list(r) for r in M]
    assert abs(int_det(U)) == 1
    assert abs(int_det(V)) == 1
    diag = [D[i][i] for i in range(min(k, d))]
    for i in range(k):
        for j in range(d):
            if i != j:
                assert D[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


def test_snf_identity():
    U, D, V = smith_normal_form([[1, 0], [0, 1]])
    assert D == [[1, 0], [0, 1]]
    assert U == [[1, 0], [0, 1]]
    assert V == [[1, 0], [0, 1]]


def test_snf_diag_2_3():
    diag = _check_snf([[2, 0], [0, 3]])
    assert diag == [1, 6]


def test_snf_zero_matrix():
    diag = _check_snf([[0, 0, 0], [0, 0, 0]])
    assert diag == [0, 0]


def test_snf_random():
    rng = random.Random(7)
    for _ in range(150):
        k = rng.randint(1, 4)
        d = rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(k)]
        _check_snf(M)


def _random_matrix(rng, k, d, bound):
    M = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(k)]
    if rng.random() < 0.3:
        M[rng.randrange(k)] = [0] * d
    if rng.random() < 0.3:
        j = rng.randrange(d)
        for row in M:
            row[j] = 0
    return M


def test_snf_matches_euclid_oracle():
    rng = random.Random(14)
    for bound in (9, 1000):
        for _ in range(300):
            M = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6), bound)
            diag = _check_snf(M)
            D = euclid_smith_normal_form(M)[1]
            assert diag == [D[i][i] for i in range(len(diag))], M
    # on one row both loops make the same column operations, so the
    # unimodular completions of edge directions keep their witnesses
    for _ in range(2000):
        row = _random_matrix(rng, 1, rng.randint(1, 8), rng.choice((3, 9, 1000)))
        assert smith_normal_form(row) == euclid_smith_normal_form(row), row


def test_snf_ragged_matrix_rejected():
    with pytest.raises(ValueError, match="ragged"):
        smith_normal_form([[1, 2], [3]])


# ---------------------------------------------------------------------------
# saturation lattices

def test_saturation_of_doubled_axis():
    assert saturation_basis([(2, 0)]) == [(1, 0)]


def test_saturation_triangle_edges():
    vecs = [(-1, 2, 0), (-1, 0, 3)]
    B = saturation_basis(vecs)
    assert len(B) == 2
    for v in vecs:
        coords_in_basis(B, v)  # must be an exact integer combination
    # index of the edge lattice in its saturation is 1 here: the gcd of the
    # 2x2 minors of the edge matrix is gcd(2, -3, 6) = 1
    minors = [int_det([[-1, 2], [-1, 0]]),
              int_det([[-1, 0], [-1, 3]]),
              int_det([[2, 0], [0, 3]])]
    from math import gcd
    assert gcd(gcd(abs(minors[0]), abs(minors[1])), abs(minors[2])) == 1


def test_saturation_empty():
    assert saturation_basis([]) == []


def test_saturation_contains_all_integer_span_points():
    rng = random.Random(11)
    for _ in range(60):
        d = rng.randint(1, 4)
        k = rng.randint(1, 3)
        vecs = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(k)]
        B = saturation_basis(vecs)
        for v in vecs:
            coords_in_basis(B, v)


def _saturate_cases(rng, count):
    """``count`` tuples of 1 to 3 point sets in one Z^D, each with the
    kinds it holds: single points, one point repeated (rank 0), and sets
    in the span of k <= D shared integer vectors, scaled so that they
    often generate less than the saturation of their span."""
    for _ in range(count):
        D = rng.randint(1, 5)
        gens = []
        for _ in range(rng.randint(0, D)):
            f = rng.choice([1, 1, 2, 3])
            gens.append([f * rng.randint(-3, 3) for _ in range(D)])
        sets = []
        for _ in range(rng.randint(1, 3)):
            base = [rng.randint(-4, 4) for _ in range(D)]
            size = rng.choice([1, rng.randint(2, 6)])
            repeated = rng.random() < 0.2
            pts = []
            for _ in range(size):
                c = [0 if repeated else rng.randint(-2, 2) for _ in gens]
                pts.append(tuple(b + sum(ci * g[j] for ci, g in zip(c, gens))
                                 for j, b in enumerate(base)))
            sets.append(pts)
        diffs = [tuple(x - y for x, y in zip(p, ps[0]))
                 for ps in sets for p in ps[1:]]
        rank = mat_rank(diffs)
        smith_D = euclid_smith_normal_form(diffs)[1] if diffs else []
        kinds = {"single point" for ps in sets if len(ps) == 1}
        kinds |= {"rank 0" for ps in sets if len(ps) > 1 and len(set(ps)) == 1}
        kinds.add("several sets" if len(sets) > 1 else "one set")
        kinds.add("full rank" if rank == D else "lower rank" if rank else "all rank 0")
        if any(i < len(row) and row[i] > 1 for i, row in enumerate(smith_D)):
            kinds.add("coarser than the saturation")
        yield sets, kinds


def test_saturate_matches_the_two_step_saturation():
    # one Smith normal form answers what saturation_basis and then
    # coords_in_basis of each difference gave
    seen = set()
    for sets, kinds in _saturate_cases(random.Random(26), 2400):
        assert _saturate(sets) == two_step_saturate(sets), sets
        seen |= kinds
    assert seen == {"single point", "rank 0", "several sets", "one set",
                    "full rank", "lower rank", "all rank 0",
                    "coarser than the saturation"}


def test_saturate_makes_one_smith_normal_form_and_no_elimination(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        return lambda *args, **kwargs: calls.update([name]) or fn(*args, **kwargs)

    monkeypatch.setattr(lattice, "smith_normal_form",
                        counted("smith_normal_form", lattice.smith_normal_form))
    monkeypatch.setattr(lattice, "_gauss_jordan",
                        counted("_gauss_jordan", lattice._gauss_jordan))
    for sets, _ in _saturate_cases(random.Random(27), 200):
        calls.clear()
        _saturate(sets)
        assert calls == {"smith_normal_form": 1}, sets


# ---------------------------------------------------------------------------
# convex hulls

def test_hull_degenerate_segment():
    verts, dim, facets = convex_hull([(1, 0), (0, 2)])
    assert dim == 1
    assert sorted(verts) == [(0, 2), (1, 0)]
    assert facets == []


def test_hull_degenerate_triangle_in_3d():
    verts, dim, facets = convex_hull([(1, 0, 0), (0, 2, 0), (0, 0, 3)])
    assert dim == 2
    assert facets == []


def test_hull_single_point():
    verts, dim, facets = convex_hull([(5, 7)])
    assert (verts, dim, facets) == ([(5, 7)], 0, [])


def test_hull_square_with_interior_point():
    pts = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
    verts, dim, facets = convex_hull(pts)
    assert dim == 2
    assert verts == [(0, 0), (0, 2), (2, 0), (2, 2)]
    assert len(facets) == 4
    uniq = sorted(set(pts))
    for a, c, zeros in facets:
        assert zeros == sum(1 << i for i, p in enumerate(uniq) if _dot(a, p) == c)
        assert not zeros >> uniq.index((1, 1)) & 1  # interior point on no facet


def test_hull_properties_randomized():
    rng = random.Random(23)
    sizes = {1: 40, 2: 40, 3: 30, 4: 18, 5: 12}
    for d, npts in sizes.items():
        for _ in range(6):
            pts = [tuple(rng.randint(0, 7) for _ in range(d))
                   for _ in range(rng.randint(1, npts))]
            verts, dim, facets = convex_hull(pts)
            assert 0 <= dim <= d
            assert set(verts) <= set(pts)
            uniq = sorted(set(pts))
            for a, c, zeros in facets:
                vals = [_dot(a, p) for p in uniq]
                assert all(v >= c for v in vals)
                on = [p for i, p in enumerate(uniq) if zeros >> i & 1]
                assert zeros == sum(1 << i for i, v in enumerate(vals) if v == c)
                assert all(_dot(a, p) == c for p in on)
                if dim == d:
                    base = on[0]
                    assert mat_rank([tuple(x - y for x, y in zip(p, base))
                                     for p in on[1:]]) == dim - 1


# ---------------------------------------------------------------------------
# minimizing faces: the hull of the points where a covector is minimal

def _minimizing_face(points, alpha):
    return LatticePolytope.from_points(_minimizers(points, alpha)[1])


def test_minimizing_face_tie():
    face = _minimizing_face([(1, 0), (0, 2)], (2, 1))
    assert face.vertices == ((0, 2), (1, 0))
    assert convex_hull(face.vertices)[1] == 1


def test_minimizing_face_unique():
    face = _minimizing_face([(1, 0), (0, 2)], (1, 1))
    assert face.vertices == ((1, 0),)
    assert convex_hull(face.vertices)[1] == 0


def test_minimizing_face_value_six():
    face = _minimizing_face([(3, 0), (0, 2)], (2, 3))
    assert face.vertices == ((0, 2), (3, 0))


def test_minimizing_face_rejects_nonpositive():
    with pytest.raises(ValueError):
        _minimizers([(1, 0)], (1, 0))
    with pytest.raises(ValueError):
        _minimizers([(1, 0)], (-1, 2))


# ---------------------------------------------------------------------------
# normalized volumes

def test_volume_primitive_segment():
    P = LatticePolytope.from_points([(1, 0), (0, 2)])
    assert normalized_volume(P) == 1


def test_volume_triangle_in_3d():
    P = LatticePolytope.from_points([(1, 0, 0), (0, 2, 0), (0, 0, 3)])
    assert normalized_volume(P) == 1


def test_volume_point_and_empty():
    pt = LatticePolytope.from_points([(4, 5)])
    assert normalized_volume(pt) == 1
    assert normalized_volume_at(pt, 0) == 1
    assert normalized_volume_at(pt, 1) == 0
    # there is no empty polytope to measure: it is refused when built
    with pytest.raises(ValueError, match="a polytope needs at least one vertex"):
        LatticePolytope(())


def test_volume_imprimitive_segment():
    P = LatticePolytope.from_points([(2, 0), (0, 2)])
    assert normalized_volume(P) == 2


def test_volume_simplices_against_minor_gcd_oracle():
    rng = random.Random(31)
    for _ in range(200):
        d = rng.randint(1, 5)
        l = rng.randint(1, d)
        pts = random_lattice_simplex(rng, d, l)
        P = LatticePolytope.from_points(pts)
        assert convex_hull(pts)[1] == l
        assert normalized_volume(P) == simplex_nvol_oracle(pts)


def _small_sets(rng):
    """Seeded sets of at most m + 1 distinct points of Z^k, k <= m, with
    their kind: full simplices, flat ones (collinear or coplanar, moved by
    a unimodular map), m + 1 points of Z^k with k < m, and fewer than
    m + 1 points."""
    out = [("simplex", [()], 0)]
    for i in range(400):
        kind = ("simplex", "flat", "low", "few")[i % 4]
        m = rng.randint(2 if kind in ("flat", "low") else 1, 5)
        if kind == "simplex":
            pts = random_lattice_simplex(rng, m, m, 4)
        elif kind == "flat":
            # in the plane x_m = 0 or on one line
            shares = rng.choice([(1.0, 0.0), (0.0, 1.0)])
            M = random_unimodular(rng, m)
            pts = [apply_matrix(M, p)
                   for p in random_point_set(rng, m, m + 1, 3, *shares)]
        elif kind == "low":
            pts = random_point_set(rng, rng.randint(1, m - 1), m + 1, 3)
        else:
            pts = random_point_set(rng, m, rng.randint(1, m), 3)
        rng.shuffle(pts)
        out.append((kind, pts, m))
    return out


def test_measure_takes_small_sets_without_the_facet_engine(monkeypatch):
    calls = []
    engine = lattice.cone_facets
    monkeypatch.setattr(lattice, "cone_facets",
                        lambda gens: calls.append(1) or engine(gens))
    for kind, pts, m in _small_sets(random.Random(53)):
        got = _measure(pts, m)
        assert got == engine_measure(pts, m), (kind, pts, m)
        if len(pts) == m + 1:
            assert got == simplex_nvol_oracle(pts), (kind, pts, m)
        assert (got > 0) == (kind == "simplex"), (kind, pts, m)
    assert calls == []
    # the counter sees the engine: m + 2 points still take one call
    assert _measure([(0, 0), (2, 0), (0, 2), (1, 1)], 2) == 4
    assert calls == [1]


def _simplex_sets(rng):
    """Seeded sets of m + 1 distinct points of Z^k, k = m - 1, m or m + 1,
    with their kind: full simplices, and flat sets (points of Z^r, r < m,
    padded with zeros and moved by a unimodular map of Z^k); single
    points at m = 0 in Z^0 and Z^1."""
    out = [("point", [()], 0), ("point", [(3,)], 0)]
    for _ in range(300):
        m = rng.randint(1, 5)
        k = m + rng.randint(-1 if m > 1 else 0, 1)
        if m == 1 or (k >= m and rng.random() < 0.5):
            out.append(("simplex", random_lattice_simplex(rng, k, m, 4), m))
            continue
        r = rng.randint(1, min(k, m - 1))
        M = random_unimodular(rng, k)
        out.append(("flat", [apply_matrix(M, p + (0,) * (k - r))
                             for p in random_point_set(rng, r, m + 1, 3)], m))
    return out


def test_measure_takes_simplices_by_the_gcd_of_their_maximal_minors():
    # m + 1 points of Z^k, k <= m + 1, are measured as they are: the same
    # volume as the minor-gcd oracle and as the saturated coordinates, and
    # unchanged under a unimodular map
    rng = random.Random(28)
    seen = set()
    for kind, pts, m in _simplex_sets(rng):
        got = _measure(pts, m)
        _, (coords,) = two_step_saturate([pts])
        assert got == simplex_nvol_oracle(pts) == _measure(coords, m), (kind, pts, m)
        assert (got > 0) == (kind != "flat"), (kind, pts, m)
        M = random_unimodular(rng, len(pts[0])) if pts[0] else []
        assert _measure([apply_matrix(M, p) for p in pts], m) == got, (kind, pts, m)
        seen.add((kind, len(pts[0]) - m))
    assert seen == {("point", 0), ("point", 1), ("simplex", 0), ("simplex", 1),
                    ("flat", -1), ("flat", 0), ("flat", 1)}


def _polytopes(rng):
    """Seeded polytopes of affine dimension 0..4 in Z^1..Z^5: simplices
    (lower-dimensional ones too), simplices with a point added, and
    vertex tuples that are not vertices (collinear or repeated points)."""
    for _ in range(150):
        d = rng.randint(1, 5)
        l = rng.randint(0, d)
        pts = random_lattice_simplex(rng, d, l, 4)
        yield LatticePolytope(tuple(pts))
        yield LatticePolytope.from_points(
            pts + [tuple(rng.randint(-4, 4) for _ in range(d))])
        a, b = pts[0], pts[-1]
        yield LatticePolytope((a, b, tuple(2 * y - x for x, y in zip(a, b))))
        yield LatticePolytope((a, a) + tuple(pts[1:]))


def test_volumes_equal_the_saturating_path():
    rng = random.Random(29)
    for P in _polytopes(rng):
        r, (coords,) = two_step_saturate([P.vertices])
        assert normalized_volume(P) == _measure(coords, r), P
        for l in range(r, len(P.vertices) + 1):
            assert normalized_volume_at(P, l) == _measure(coords, l), (P, l)
        if r:
            with pytest.raises(ValueError, match="exceeds the requested dimension"):
                normalized_volume_at(P, r - 1)


def _higher_sets(rng):
    """Seeded sets of Z^k, k = m + 1 .. m + 3, with their rank r and
    whether a point repeats: m + 1 to m + 5 distinct points drawn in Z^r,
    r <= m + 1 (r = m + 1 with at least m + 2 points), padded with zeros,
    moved by a unimodular map of Z^k and shifted, and one or two of them
    again for a share of the sets; r < m makes them flat, r > m too high
    for dimension m."""
    for _ in range(250):
        m = rng.randint(1, 4)
        k = m + rng.randint(1, 3)
        r = rng.randint(1, m + 1)
        if r <= m:
            count = m + 1 if rng.random() < 0.5 else m + rng.randint(2, 5)
            low = random_point_set(rng, r, count, 3)
        else:
            low = random_lattice_simplex(rng, r, r, 3)
            low = sorted(set(low) | set(random_point_set(rng, r, rng.randint(1, 3), 3)))
        M = random_unimodular(rng, k, steps=12)
        shift = tuple(rng.randint(-3, 3) for _ in range(k))
        pts = [_add(apply_matrix(M, p + (0,) * (k - r)), shift) for p in low]
        repeated = rng.random() < 0.3
        if repeated:
            pts += rng.choices(pts, k=rng.randint(1, 2))
        rng.shuffle(pts)
        yield m, r, repeated, pts


def test_measure_saturates_sets_above_its_dimension():
    # points of Z^k, k > m, are moved into their saturation lattice by
    # _measure itself: the same volume as the two-step saturation, as
    # normalized_volume at rank m and as the set without its repeats; a
    # rank above m is refused
    seen = set()
    for m, r, repeated, pts in _higher_sets(random.Random(2033)):
        if r > m:
            with pytest.raises(ValueError, match="exceeds the requested dimension"):
                _measure(pts, m)
            seen.add(("refused", repeated))
            continue
        got = _measure(pts, m)
        rank, (coords,) = two_step_saturate([pts])
        assert got == _measure(coords, m), (m, pts)
        assert got == _measure(sorted(set(pts)), m), (m, pts)
        assert (got > 0) == (rank == m), (m, pts)
        if rank == m:
            assert got == normalized_volume(LatticePolytope(tuple(pts))), (m, pts)
        seen.add((len(set(pts)) > m + 1, got > 0, repeated))
    assert seen == {(size, full, repeated) for size in (False, True)
                    for full in (False, True) for repeated in (False, True)} | {
        ("refused", False), ("refused", True)}
    # a parallelogram in the plane z = x + y: its square of side 2 in the
    # saturated coordinates has 2! * 4 = 8
    square = [(0, 0, 0), (2, 0, 2), (0, 2, 2), (2, 2, 4)]
    assert _measure(square, 2) == 8 == normalized_volume(LatticePolytope(tuple(square)))


def test_a_simplex_with_too_many_maximal_minors_is_saturated(monkeypatch):
    # an 8-simplex in Z^17 has C(17, 8) = 24 310 maximal minors: it takes
    # one Smith normal form and one determinant, not the minor loop
    rng = random.Random(30)
    base = random_lattice_simplex(rng, 8, 8, 3)
    M = random_unimodular(rng, 17, steps=40)
    pts = [apply_matrix(M, p + (0,) * 9) for p in base]
    assert not _as_is(pts, 8)
    calls = Counter()

    def counted(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    monkeypatch.setattr(lattice, "smith_normal_form",
                        counted("smith_normal_form", lattice.smith_normal_form))
    monkeypatch.setattr(lattice, "int_det", counted("int_det", lattice.int_det))
    assert normalized_volume(LatticePolytope(tuple(pts))) == simplex_nvol_oracle(base)
    assert calls == {"smith_normal_form": 1, "int_det": 1}


def test_volume_translation_and_unimodular_invariance():
    rng = random.Random(37)
    for _ in range(100):
        d = rng.randint(2, 4)
        l = rng.randint(1, d)
        pts = random_lattice_simplex(rng, d, l, coord_bound=4)
        # throw in a couple of extra points to get non-simplex polytopes
        for _ in range(rng.randint(0, 2)):
            pts.append(tuple(rng.randint(-4, 4) for _ in range(d)))
        P = LatticePolytope.from_points(pts)
        base = normalized_volume(P)
        t = tuple(rng.randint(-5, 5) for _ in range(d))
        moved = LatticePolytope.from_points(
            [tuple(x + y for x, y in zip(p, t)) for p in pts])
        assert normalized_volume(moved) == base
        M = random_unimodular(rng, d)
        mapped = LatticePolytope.from_points([apply_matrix(M, p) for p in pts])
        assert normalized_volume(mapped) == base


def test_volume_against_boundary_recursion_oracle():
    rng = random.Random(67)
    for _ in range(60):
        d = rng.randint(1, 3)
        pts = [tuple(rng.randint(-4, 4) for _ in range(d))
               for _ in range(rng.randint(d + 1, 8))]
        P = LatticePolytope.from_points(pts)
        assert normalized_volume(P) == nvol_boundary_recursion(pts)


def test_volume_additivity_under_splitting():
    # split a doubled simplex along a hyperplane through lattice points
    rng = random.Random(41)
    for _ in range(50):
        d = rng.randint(2, 4)
        pts = random_lattice_simplex(rng, d, d, coord_bound=3)
        doubled = [tuple(2 * x for x in p) for p in pts]
        mid = tuple((a + b) // 2 for a, b in zip(doubled[0], doubled[1]))
        whole = LatticePolytope.from_points(doubled)
        part1 = LatticePolytope.from_points([doubled[0], mid] + doubled[2:])
        part2 = LatticePolytope.from_points([mid, doubled[1]] + doubled[2:])
        assert normalized_volume(whole) == (
            normalized_volume(part1) + normalized_volume(part2))


# ---------------------------------------------------------------------------
# Minkowski sums

def test_minkowski_identity_element():
    P = LatticePolytope.from_points([(0, 0), (1, 2), (3, 0)])
    origin = LatticePolytope.from_points([(0, 0)])
    assert minkowski_sum(P, origin).vertices == P.vertices


def test_minkowski_unit_square():
    e1 = LatticePolytope.from_points([(0, 0), (1, 0)])
    e2 = LatticePolytope.from_points([(0, 0), (0, 1)])
    sq = minkowski_sum(e1, e2)
    assert sq.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_minkowski_doubling():
    rng = random.Random(43)
    for _ in range(30):
        d = rng.randint(1, 3)
        pts = [tuple(rng.randint(-3, 3) for _ in range(d))
               for _ in range(rng.randint(1, 6))]
        P = LatticePolytope.from_points(pts)
        assert minkowski_sum(P, P).vertices == dilate(P, 2).vertices


def test_minkowski_dimension_mismatch():
    P = LatticePolytope.from_points([(0, 0)])
    Q = LatticePolytope.from_points([(0, 0, 0)])
    with pytest.raises(ValueError):
        minkowski_sum(P, Q)


# ---------------------------------------------------------------------------
# mixed volumes

def _square(k):
    return LatticePolytope.from_points([(0, 0), (k, 0), (0, k), (k, k)])


def test_mixed_volume_diagonal_is_volume():
    rng = random.Random(47)
    for _ in range(25):
        d = rng.randint(1, 3)
        m = rng.randint(1, d)
        pts = random_lattice_simplex(rng, d, m, coord_bound=3)
        K = LatticePolytope.from_points(pts)
        assert mixed_volume([K] * m) == Fraction(simplex_nvol_oracle(pts),
                                                 _factorial(m))


def _factorial(m):
    from math import factorial
    return factorial(m)


def test_mixed_volume_segments_on_line():
    a = LatticePolytope.from_points([(0,), (4,)])
    b = LatticePolytope.from_points([(0,), (7,)])
    assert mixed_volume([a]) == 4
    assert mixed_volume([b]) == 7


def test_mixed_volume_unit_squares():
    assert mixed_volume([_square(1), _square(1)]) == 1


def test_mixed_volume_square_pair():
    # Vol(a*square + b*square) = (a+b)^2, so V(square, square) = 1; scaled
    # squares give V(k*sq, l*sq) = k*l
    assert mixed_volume([_square(2), _square(3)]) == 6


def test_mixed_volume_symmetry_and_additivity():
    rng = random.Random(53)
    for _ in range(30):
        bodies = []
        for _ in range(3):
            pts = [tuple(rng.randint(0, 3) for _ in range(2))
                   for _ in range(rng.randint(2, 4))]
            bodies.append(LatticePolytope.from_points(pts))
        K, Kp, K2 = bodies
        assert mixed_volume([K, K2]) == mixed_volume([K2, K])
        lhs = mixed_volume([minkowski_sum(K, Kp), K2])
        assert lhs == mixed_volume([K, K2]) + mixed_volume([Kp, K2])


def test_mixed_volume_polarization_reproduces_fresh_dilations():
    from math import comb
    rng = random.Random(59)
    for _ in range(20):
        m = 2
        K0 = LatticePolytope.from_points(
            [tuple(rng.randint(0, 3) for _ in range(2))
             for _ in range(rng.randint(2, 5))])
        K1 = LatticePolytope.from_points(
            [tuple(rng.randint(0, 3) for _ in range(2))
             for _ in range(rng.randint(2, 5))])
        V = [mixed_volume([K0] * (m - j) + [K1] * j) for j in range(m + 1)]
        for lam0, lam1 in [(2, 3), (3, 5), (4, 1)]:
            S = minkowski_sum(dilate(K0, lam0), dilate(K1, lam1))
            vol = Fraction(normalized_volume_at(S, m), _factorial(m))
            predicted = sum(comb(m, j) * lam0 ** (m - j) * lam1 ** j * V[j]
                            for j in range(m + 1))
            assert vol == predicted


def test_mixed_volume_three_distinct_bodies_multilinear():
    rng = random.Random(61)
    for _ in range(10):
        bodies = []
        for _ in range(4):
            pts = [tuple(rng.randint(0, 2) for _ in range(3))
                   for _ in range(rng.randint(2, 4))]
            bodies.append(LatticePolytope.from_points(pts))
        A, B, C, D = bodies
        lhs = mixed_volume([minkowski_sum(A, B), C, D])
        assert lhs == mixed_volume([A, C, D]) + mixed_volume([B, C, D])


def test_mixed_volume_span_errors():
    seg = LatticePolytope.from_points([(0, 0), (1, 0)])
    far = LatticePolytope.from_points([(0, 0), (0, 1)])
    # combined span is 2-dimensional but only one slot requested
    with pytest.raises(ValueError):
        mixed_volume([minkowski_sum(seg, far)])
    # deficient combined span: parallel segments have zero mixed area
    assert mixed_volume([seg, seg]) == 0


def test_orthocomplement_line():
    assert orthocomplement_line([(1, -2)], 2) in ((2, 1), (-2, -1))
    w = orthocomplement_line([(-1, 2, 0), (-1, 0, 3)], 3)
    assert w in ((6, 3, 2), (-6, -3, -2))
