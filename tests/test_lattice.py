import random
from fractions import Fraction

import pytest

from helpers import (
    apply_matrix,
    dilate,
    euclid_smith_normal_form,
    nvol_boundary_recursion,
    orthocomplement_line,
    random_lattice_simplex,
    random_unimodular,
    simplex_nvol_oracle,
)
from newtonzeta.lattice import (
    LatticePolytope,
    convex_hull,
    coords_in_basis,
    int_det,
    mat_rank,
    minimizing_face,
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
    for f in facets:
        assert 4 not in f.point_indices  # interior point on no facet


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
            for f in facets:
                vals = [sum(a * x for a, x in zip(f.inner_normal, p))
                        for p in pts]
                assert all(v >= f.offset for v in vals)
                on = [pts[i] for i in f.point_indices]
                assert list(f.point_indices) == [
                    i for i, v in enumerate(vals) if v == f.offset]
                assert all(sum(a * x for a, x in zip(f.inner_normal, p))
                           == f.offset for p in on)
                if dim == d:
                    base = on[0]
                    assert mat_rank([tuple(x - y for x, y in zip(p, base))
                                     for p in on[1:]]) == dim - 1


# ---------------------------------------------------------------------------
# minimizing faces

def test_minimizing_face_tie():
    face = minimizing_face([(1, 0), (0, 2)], (2, 1))
    assert face.vertices == ((0, 2), (1, 0))
    assert face.affine_dim == 1


def test_minimizing_face_unique():
    face = minimizing_face([(1, 0), (0, 2)], (1, 1))
    assert face.vertices == ((1, 0),)
    assert face.affine_dim == 0


def test_minimizing_face_value_six():
    face = minimizing_face([(3, 0), (0, 2)], (2, 3))
    assert face.vertices == ((0, 2), (3, 0))


def test_minimizing_face_rejects_nonpositive():
    with pytest.raises(ValueError):
        minimizing_face([(1, 0)], (1, 0))
    with pytest.raises(ValueError):
        minimizing_face([(1, 0)], (-1, 2))


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
    empty = LatticePolytope.empty(2)
    assert normalized_volume(empty) == 0
    for l in range(4):
        assert normalized_volume_at(empty, l) == 0


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
        assert P.affine_dim == l
        assert normalized_volume(P) == simplex_nvol_oracle(pts)


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
        assert mixed_volume([K] * m) == Fraction(normalized_volume(K),
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
