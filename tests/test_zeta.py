import random
from fractions import Fraction

import pytest

from helpers import (
    brieskorn_zeta,
    index_set_zeta,
    permutation_zeta,
    random_deformation_germ,
    random_z_germ,
)
from newtonzeta.diagram import (
    _zeta,
    diagram_facets,
    euler_char_torus_hypersurface,
    zeta_classical,
    zeta_full,
    zeta_torus,
)
from newtonzeta.factored import factor, one, product
from newtonzeta.germ import (
    index_sets_with_zero,
    make_germ,
    parse_germ,
    restrict_support,
    support,
    suspend_germ,
)
from newtonzeta.lattice import LatticePolytope, _minimizers, mat_rank
from newtonzeta.nondegeneracy import (
    COUNTEREXAMPLE,
    UNCHECKED,
    VERIFIED,
    nondegeneracy_check,
)

V2 = ["s", "z"]
V3 = ["s", "z1", "z2"]


# ---------------------------------------------------------------------------
# diagram facets

def test_facets_suspension_of_square():
    F = parse_germ("z^2-s", V2)
    facets = diagram_facets(F, (0, 1))
    assert len(facets) == 1
    f = facets[0]
    assert f.normal == (2, 1) and f.m == 2 and f.nvol == 1


def test_facets_cusp_full_index_set():
    F = parse_germ("z1^2+z2^3-s", V3)
    facets = diagram_facets(F, (0, 1, 2))
    assert len(facets) == 1
    f = facets[0]
    assert f.normal == (6, 3, 2) and f.m == 6 and f.nvol == 1


def test_facets_empty_restriction():
    F = parse_germ("s*z", V2)  # no term on the pure-deformation axis
    assert diagram_facets(F, (0,)) == []


def test_facets_require_zero_in_index_set():
    F = parse_germ("z^2-s", V2)
    with pytest.raises(ValueError):
        diagram_facets(F, (1,))


def test_facet_minimization_is_exact_on_support():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 3)
        F = random_deformation_germ(rng, n)
        for I in index_sets_with_zero(n):
            S = restrict_support(support(F), I)
            for fac in diagram_facets(F, I):
                vals = {p: sum(a * x for a, x in zip(fac.normal, p)) for p in S}
                level = min(vals.values())
                on_face = {p for p, v in vals.items() if v == level}
                assert all(v >= level for v in vals.values())
                assert set(fac.vertices) <= on_face
                # the stored face is exactly the minimizing face: equality
                # holds on its support points and nowhere else
                assert fac.vertices == LatticePolytope.from_points(
                    _minimizers(sorted(S), fac.normal)[1]).vertices
                assert fac.m == fac.normal[0] >= 1
                assert fac.nvol >= 1
                base = fac.vertices[0]
                assert mat_rank([tuple(x - y for x, y in zip(v, base))
                                 for v in fac.vertices[1:]]) == len(I) - 1


# ---------------------------------------------------------------------------
# zeta values

def test_zeta_axis_conventions():
    with_axis = parse_germ("z^3-s", V2)
    assert index_set_zeta(with_axis, (0,)) == factor(1, -1)
    without_axis = parse_germ("s*z+z^2", V2)
    assert index_set_zeta(without_axis, (0,)) == one()


def test_zeta_suspension_family():
    for k in range(1, 8):
        F = parse_germ(f"z^{k}-s", V2)
        assert index_set_zeta(F, (0, 1)) == factor(k)
        assert zeta_full(F) == permutation_zeta([k])


def test_zeta_cusp():
    F = parse_germ("z1^2+z2^3-s", V3)
    assert index_set_zeta(F, (0, 1, 2)) == factor(6, -1)
    assert zeta_torus(F) == factor(6, -1)
    expected = factor(2) * factor(3) * factor(6, -1)
    assert zeta_full(F) == expected


def test_zeta_two_branches():
    F = parse_germ("z^2-s^2", V2)
    assert zeta_torus(F) == permutation_zeta([1, 1])
    assert zeta_full(F) == permutation_zeta([1, 1])
    G = parse_germ("z^2-s^3", V2)
    assert zeta_torus(G) == permutation_zeta([2])
    assert zeta_full(G) == permutation_zeta([2])


def test_zeta_trivial_germ():
    F = parse_germ("s", V2)
    assert zeta_full(F) == one()
    assert index_set_zeta(F, (0,)) == factor(1, -1)


def test_zeta_exponent_signs_follow_face_dimension():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(1, 3)
        F = random_deformation_germ(rng, n)
        for I in index_sets_with_zero(n):
            l = len(I) - 1
            sign = -1 if (l - 1) % 2 else 1
            for m, e in _zeta({I: diagram_facets(F, I)}, {}).factors:
                assert m >= 1
                assert e * sign > 0


def test_zeta_full_carries_leading_factor():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(1, 3)
        F = random_deformation_germ(rng, n)
        pieces = product(index_set_zeta(F, I) for I in index_sets_with_zero(n))
        assert zeta_full(F) == factor(1, 1) * pieces


def test_plane_curve_branch_families():
    # genuine deformations checked against explicit branch monodromy
    from math import gcd

    # z^a = s^b: the a solution points are rotated by exp(2 pi i b/a),
    # giving gcd(a, b) cycles of length a/gcd(a, b)
    for a in range(1, 6):
        for b in range(1, 6):
            g = gcd(a, b)
            F = parse_germ(f"z^{a} - s^{b}", V2)
            assert zeta_full(F) == permutation_zeta([a // g] * g), (a, b)
    for text, cycles in [
        ("z^2 - s^2*z", [1, 1]),   # z(z - s^2): two fixed points
        ("s*z", [1]),              # the single point z = 0
        ("s^2*z", [1]),
        ("s*z^2 - s^2", [2]),      # s(z^2 - s): swapped square roots
        ("s*z^2 - s^3", [1, 1]),   # s(z^2 - s^2): two fixed branches
    ]:
        F = parse_germ(text, V2)
        assert zeta_full(F) == permutation_zeta(cycles), text


@pytest.mark.parametrize("exponents", [
    (2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 6), (5, 5),
    (2, 2, 2), (2, 2, 3), (2, 3, 5), (3, 3, 3), (2, 4, 4),
])
def test_brieskorn_family_eigenvalue_oracle(exponents):
    # the diagram formula must reproduce the classical eigenvalue zeta
    # function of z1^a1 + ... + zn^an
    n = len(exponents)
    names = ["s"] + [f"z{i}" for i in range(1, n + 1)]
    text = "+".join(f"z{i + 1}^{a}" for i, a in enumerate(exponents))
    f = parse_germ(text, names)
    assert zeta_classical(f) == brieskorn_zeta(exponents)


def test_zeta_classical_values():
    f = parse_germ("z^4", V2)
    assert zeta_classical(f) == factor(4)
    g = parse_germ("z1^2+z2^2", V3)
    assert zeta_classical(g) == one()
    h = parse_germ("z1^2+z2^3", V3)
    assert zeta_classical(h) == factor(2) * factor(3) * factor(6, -1)
    with pytest.raises(ValueError):
        zeta_classical(parse_germ("z^2-s", V2))


# ---------------------------------------------------------------------------
# invariance properties

def _embed_with_dummy(F):
    # same germ viewed with one extra unused z-variable
    return make_germ(F.num_vars + 1,
                     [(e + (0,), c) for e, c in F.terms.items()])


def test_dummy_variable_invariance():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 2)
        F = random_deformation_germ(rng, n)
        assert zeta_full(_embed_with_dummy(F)) == zeta_full(F)


def test_permutation_invariance():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(2, 3)
        F = random_deformation_germ(rng, n)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        table = [0] + perm
        G = make_germ(F.num_vars,
                      [(tuple(e[table.index(i)] for i in range(n + 1)), c)
                       for e, c in F.terms.items()])
        assert zeta_full(G) == zeta_full(F)
        assert zeta_torus(G) == zeta_torus(F)


def test_coefficient_independence():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 3)
        F = random_deformation_germ(rng, n)
        G = make_germ(F.num_vars,
                      [(e, Fraction(rng.randint(1, 50)))
                       for e in F.terms])
        assert zeta_full(G) == zeta_full(F)
        assert zeta_torus(G) == zeta_torus(F)


# ---------------------------------------------------------------------------
# torus hypersurface Euler characteristics

def test_euler_char_segments():
    for k in range(1, 11):
        seg = LatticePolytope.from_points([(0,), (k,)])
        assert euler_char_torus_hypersurface(seg) == k


def test_euler_char_standard_triangle():
    tri = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)])
    assert euler_char_torus_hypersurface(tri) == -1


def test_euler_char_requires_full_dimension():
    seg = LatticePolytope.from_points([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        euler_char_torus_hypersurface(seg)


# ---------------------------------------------------------------------------
# nondegeneracy

def test_nondegenerate_two_branch_germ():
    rep = nondegeneracy_check(parse_germ("z^2-s^2", V2))
    assert rep.status == VERIFIED


def test_degenerate_square():
    rep = nondegeneracy_check(parse_germ("z^2-2*s*z+s^2", V2))
    assert rep.status == COUNTEREXAMPLE
    bad = rep.counterexamples
    assert len(bad) == 1 and bad[0].dim == 1
    assert bad[0].witness == (Fraction(1), Fraction(1))


def test_unchecked_two_dimensional_face():
    rep = nondegeneracy_check(parse_germ("z1^3+z2^3+z1*z2*s", V3))
    assert rep.status == UNCHECKED
    assert any(f.dim == 2 for f in rep.unchecked)
    assert not rep.counterexamples


def test_monomial_faces_verified():
    rep = nondegeneracy_check(parse_germ("s*z^2", V2))
    assert rep.status == VERIFIED
    assert all(f.dim == 0 for f in rep.faces)


def test_degenerate_with_irrational_double_root():
    # (z^2 - 2*s^2)^2: the edge reduction is (2u^2-1)^2, whose multiple
    # roots are irrational, so no explicit rational witness point exists
    F = parse_germ("z^4 - 4*s^2*z^2 + 4*s^4", V2)
    rep = nondegeneracy_check(F)
    assert rep.status == COUNTEREXAMPLE
    assert rep.counterexamples[0].witness is None


def test_binomial_edges_always_verified():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(1, 3)
        F = random_z_germ(rng, n, max_terms=2)
        rep = nondegeneracy_check(suspend_germ(F))
        assert not rep.counterexamples
