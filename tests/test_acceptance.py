"""Acceptance criteria, one test per criterion.

Each test prints a single pass line once its assertions hold (run with
``pytest -s tests/test_acceptance.py`` to see them); every expected value
is exact, no tolerances.
"""

import random
import time
from fractions import Fraction
from math import comb, factorial

from helpers import (
    apply_matrix,
    dilate,
    index_set_zeta,
    permutation_zeta,
    random_deformation_germ,
    random_lattice_simplex,
    random_unimodular,
    simplex_nvol_oracle,
)
from newtonzeta.diagram import (
    euler_char_torus_hypersurface,
    zeta_full,
)
from newtonzeta.factored import factor, one
from newtonzeta.germ import make_germ, parse_germ
from newtonzeta.lattice import (
    LatticePolytope,
    minkowski_sum,
    mixed_volume,
    normalized_volume,
    normalized_volume_at,
)
from newtonzeta.randomized import cayley_suite, cone_suite


def _report(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_criterion_1_cusp():
    t0 = time.monotonic()
    F = parse_germ("z1^2+z2^3-s", ["s", "z1", "z2"])
    got = zeta_full(F)
    # quasihomogeneous monodromy: eigenvalues are the primitive 6th roots
    # of unity on the first homology, zeta = (1-t)/Phi_6(t)
    expected = factor(2) * factor(3) * factor(6, -1)
    assert got == expected
    assert expected.cyclotomic_signature() == {1: 1, 6: -1}
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, f"cusp zeta is (1-t^2)(1-t^3)(1-t^6)^-1 [{elapsed:.3f}s]")


def test_criterion_2_suspension_family():
    t0 = time.monotonic()
    for k in range(1, 11):
        F = parse_germ(f"z^{k}-s", ["s", "z"])
        # oracle: the monodromy cyclically permutes the k points z = c^(1/k)
        assert zeta_full(F) == permutation_zeta([k])
        assert zeta_full(F) == factor(k)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(2, f"zeta of z^k - s is 1-t^k for k = 1..10 [{elapsed:.3f}s]")


def test_criterion_3_branch_geometry_pair():
    F = parse_germ("z^2-s^2", ["s", "z"])
    # two branches z = +-s are each fixed by the monodromy: identity on
    # two points
    assert zeta_full(F) == permutation_zeta([1, 1])
    assert zeta_full(F) == factor(1, 2)
    G = parse_germ("z^2-s^3", ["s", "z"])
    # branches z = +-s^(3/2) are swapped: a single 2-cycle
    assert zeta_full(G) == permutation_zeta([2])
    assert zeta_full(G) == factor(2)
    _report(3, "two-branch germs give (1-t)^2 and 1-t^2")


def test_criterion_4_trivial_germ():
    F = parse_germ("s", ["s", "z"])
    assert zeta_full(F) == one()
    assert index_set_zeta(F, (0,)) == factor(1, -1)
    _report(4, "zeta(s) = 1 with axis contribution (1-t)^-1")


def test_criterion_5_cone_identity_suite():
    t0 = time.monotonic()
    result = cone_suite(20240817)
    elapsed = time.monotonic() - t0
    assert result["passed"], result["failures"][:5]
    assert result["cases"] == 100
    assert result["facets_checked"] > 100
    assert elapsed < 30.0
    _report(5, f"cone reduction holds on {result['facets_checked']} facets "
               f"of 100 random convenient germs [{elapsed:.1f}s]")


def test_criterion_6_cayley_identity_suite():
    t0 = time.monotonic()
    result = cayley_suite(20240818)
    elapsed = time.monotonic() - t0
    assert result["passed"], result["failures"][:5]
    assert result["cases"] == 50
    assert result["facets_checked"] > 20
    assert elapsed < 60.0
    _report(6, f"cayley mixed-volume identity holds on "
               f"{result['facets_checked']} facets of 50 random pairs "
               f"[{elapsed:.1f}s]")


def test_criterion_7_invariance_suites():
    rng = random.Random(20240819)
    for _ in range(100):
        n = rng.randint(1, 2)
        F = random_deformation_germ(rng, n)
        G = make_germ(F.num_vars + 1,
                      [(e + (0,), c) for e, c in F.terms.items()])
        assert zeta_full(G) == zeta_full(F)
    for _ in range(100):
        n = rng.randint(2, 3)
        F = random_deformation_germ(rng, n)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        table = [0] + perm
        G = make_germ(F.num_vars,
                      [(tuple(e[table.index(i)] for i in range(n + 1)), c)
                       for e, c in F.terms.items()])
        assert zeta_full(G) == zeta_full(F)
    for _ in range(100):
        n = rng.randint(1, 3)
        F = random_deformation_germ(rng, n)
        G = make_germ(F.num_vars,
                      [(e, Fraction(rng.randint(1, 60), rng.randint(1, 9)))
                       for e in F.terms])
        assert zeta_full(G) == zeta_full(F)
    _report(7, "dummy-variable, permutation and coefficient invariance "
               "hold on 100 random germs each")


def test_criterion_8_volume_engine():
    rng = random.Random(20240820)
    for _ in range(200):
        d = rng.randint(1, 5)
        l = rng.randint(1, d)
        pts = random_lattice_simplex(rng, d, l)
        P = LatticePolytope.from_points(pts)
        assert normalized_volume(P) == simplex_nvol_oracle(pts)
    for _ in range(100):
        d = rng.randint(2, 4)
        pts = random_lattice_simplex(rng, d, rng.randint(1, d), coord_bound=4)
        P = LatticePolytope.from_points(pts)
        M = random_unimodular(rng, d)
        Q = LatticePolytope.from_points([apply_matrix(M, p) for p in pts])
        assert normalized_volume(Q) == normalized_volume(P)
    for _ in range(20):
        m = 2
        K0 = LatticePolytope.from_points(
            [tuple(rng.randint(0, 3) for _ in range(2))
             for _ in range(rng.randint(2, 5))])
        K1 = LatticePolytope.from_points(
            [tuple(rng.randint(0, 3) for _ in range(2))
             for _ in range(rng.randint(2, 5))])
        V = [mixed_volume([K0] * (m - j) + [K1] * j) for j in range(m + 1)]
        for lam0, lam1 in [(2, 5), (3, 4)]:
            S = minkowski_sum(dilate(K0, lam0), dilate(K1, lam1))
            vol = Fraction(normalized_volume_at(S, m), factorial(m))
            assert vol == sum(comb(m, j) * lam0 ** (m - j) * lam1 ** j * V[j]
                              for j in range(m + 1))
    _report(8, "volume engine matches the determinant oracle, unimodular "
               "maps and fresh-dilation polarization")


def test_criterion_9_torus_euler_characteristic():
    for k in range(1, 11):
        seg = LatticePolytope.from_points([(0,), (k,)])
        # a generic binomial equation z^k = c has k torus roots
        assert euler_char_torus_hypersurface(seg) == k
    tri = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)])
    # a generic line in the 2-torus is P^1 minus three points
    assert euler_char_torus_hypersurface(tri) == -1
    _report(9, "torus hypersurface Euler characteristics match root "
               "counting and the punctured line")


def test_criterion_10_degree_consistency():
    cases = [
        ("z1^2+z2^3-s", ["s", "z1", "z2"], -1),  # cusp fibre, chi = 1 - mu
        ("z^2-s^2", ["s", "z"], 2),              # two points
        ("z^2-s^3", ["s", "z"], 2),              # two points
        ("s", ["s", "z"], 0),                    # empty fibre
    ]
    for k in range(1, 11):
        cases.append((f"z^{k}-s", ["s", "z"], k))  # k points
    for text, names, chi in cases:
        F = parse_germ(text, names)
        assert zeta_full(F).degree() == chi, text
    _report(10, "zeta degrees equal the compactly supported Euler "
                "characteristics of the fibres")
