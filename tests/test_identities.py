import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from helpers import (
    polytope_cayley_identity,
    random_convenient_germ,
    random_z_germ,
    two_step_saturate,
)
from newtonzeta import diagram, lattice
from newtonzeta.diagram import (
    IdentityInapplicable,
    cayley_mixed_volume_identity,
    cone_reduction_identity,
    diagram_facets,
)
from newtonzeta.germ import (
    index_sets_with_zero,
    make_germ,
    parse_germ,
    pencil_germ,
    restrict_support,
    support,
    suspend_germ,
)
from newtonzeta.lattice import _measure, _minimizers
from newtonzeta.randomized import _checks, _suite, cayley_suite, cone_suite

V2 = ["s", "z"]
V3 = ["s", "z1", "z2"]
V4 = ["s", "z1", "z2", "z3"]


# ---------------------------------------------------------------------------
# cone reduction

def test_cone_identity_power_germ():
    for k in range(1, 7):
        f = parse_germ(f"z^{k}", V2)
        F = suspend_germ(f)
        facets = diagram_facets(F, (0, 1))
        assert len(facets) == 1
        facet = facets[0]
        assert facet.m == k and facet.nvol == 1
        assert cone_reduction_identity(f, (0, 1), facet)


def test_cone_identity_cusp_triangle():
    f = parse_germ("z1^2+z2^3", V3)
    F = suspend_germ(f)
    (facet,) = diagram_facets(F, (0, 1, 2))
    assert facet.nvol == 1  # triangle, equals the base segment's length
    assert cone_reduction_identity(f, (0, 1, 2), facet)


@pytest.mark.parametrize("text,names,nvol", [
    # the base segment from (2, 0) to (0, 2) passes through (1, 1)
    ("z1^2+z1*z2+z2^2", V3, 2),
    # (1, 1, 1) lies inside the base triangle
    ("z1^3+z2^3+z3^3+z1*z2*z3", ["s", "z1", "z2", "z3"], 9),
])
def test_cone_identity_measures_base_points_without_a_hull(monkeypatch, text,
                                                           names, nvol):
    f = parse_germ(text, names)
    I = tuple(range(len(names)))
    (facet,) = diagram_facets(suspend_germ(f), I)
    assert facet.nvol == nvol
    calls = []
    hull = lattice.convex_hull
    for module in (lattice, diagram):
        monkeypatch.setattr(module, "convex_hull",
                            lambda pts: calls.append(1) or hull(pts))
    assert cone_reduction_identity(f, I, facet)
    assert calls == []


@pytest.mark.parametrize("text,names,snf", [
    ("z1^2+z2^3", V3, 0),  # a segment: two points of Z^2
    ("z1^2+z1*z2+z2^2", V3, 1),  # three points of a segment
    ("z1^3+z2^5+z3^7", V4, 0),  # a triangle in Z^3
    ("z1^3+z2^3+z3^3+z1*z2*z3", V4, 1),  # a triangle and a point inside
])
def test_cone_identity_saturates_only_bases_that_are_not_simplices(monkeypatch, text,
                                                                   names, snf):
    f = parse_germ(text, names)
    I = tuple(range(len(names)))
    (facet,) = diagram_facets(suspend_germ(f), I)
    calls = []
    smith = lattice.smith_normal_form
    monkeypatch.setattr(lattice, "smith_normal_form",
                        lambda M: calls.append(1) or smith(M))
    assert cone_reduction_identity(f, I, facet)
    assert len(calls) == snf


def test_cone_identity_equals_the_saturating_path():
    # every facet of random suspensions in 1 to 4 z-variables, and the
    # same facet one volume unit off: the verdict is the one the base face
    # gives measured in its saturated coordinates; simplex bases and
    # larger ones (from germs with many monomials of one degree) both occur
    rng = random.Random(32)
    seen = Counter()
    for k in range(40):
        n = 1 + k % 4
        if k // 4 % 2:
            D = rng.randint(2, 4)
            f = make_germ(n + 1, [((0,) + e, 1) for e in product(range(D + 1), repeat=n)
                                  if sum(e) == D and (D in e or rng.random() < 0.3)])
        else:
            f = random_convenient_germ(rng, n, max_exp=5, extra_terms=3)
        for I, facets in diagram._index_set_facets(suspend_germ(f)).items():
            if len(I) < 2:
                continue
            S = sorted(restrict_support(support(f), I[1:]))
            for facet in facets:
                m, base = _minimizers(S, facet.normal[1:])
                _, (pts,) = two_step_saturate([base])
                want = _measure(pts, len(I) - 2)
                for nvol in (facet.nvol, facet.nvol + 1):
                    assert cone_reduction_identity(f, I, replace(facet, nvol=nvol)) == (
                        nvol == want and facet.m == m), (f, I, facet)
                seen[len(base) == len(I) - 1, len(I)] += 1
    assert set(seen) == {(True, 2), (True, 3), (True, 4), (True, 5),
                         (False, 3), (False, 4), (False, 5)}, seen


def test_cone_identity_vacuous_when_no_restriction():
    f = parse_germ("z1*z2", V3)  # nothing on either z-axis
    F = suspend_germ(f)
    assert diagram_facets(F, (0, 1)) == []
    assert diagram_facets(F, (0, 2)) == []


def test_cone_identity_rejects_foreign_facet():
    # a facet of a germ with no deformation apex is not of cone form
    F = parse_germ("z^2-s^2", V2)
    (facet,) = diagram_facets(F, (0, 1))
    f = parse_germ("z^2", V2)
    with pytest.raises(IdentityInapplicable):
        cone_reduction_identity(f, (0, 1), facet)


# ---------------------------------------------------------------------------
# cayley / mixed volume reduction

def test_cayley_identity_hand_case():
    # F = z1^2 + z2^2 - s*z1 - s*z2: the full-index facet is the hull of
    # the two base faces; by hand nvol = 3 = V_1(base0) + V_1(base1)
    f0 = parse_germ("z1^2+z2^2", V3)
    f1 = parse_germ("z1+z2", V3)
    F = pencil_germ(f0, f1)
    (facet,) = diagram_facets(F, (0, 1, 2))
    assert facet.normal == (1, 1, 1) and facet.m == 1 and facet.nvol == 3
    assert cayley_mixed_volume_identity(f0, f1, (0, 1, 2), facet)


def test_cayley_identity_monomial_denominator():
    # point-shaped base face on the f1 side: the facet is again a cone
    f0 = parse_germ("z1^2+z2^2", V3)
    f1 = parse_germ("z1", V3)
    F = pencil_germ(f0, f1)
    (facet,) = diagram_facets(F, (0, 1, 2))
    assert cayley_mixed_volume_identity(f0, f1, (0, 1, 2), facet)
    # consistency with the cone picture: same volumes, shifted exponent
    assert facet.nvol == 2


def test_cayley_identity_inapplicable_for_curves():
    f0 = parse_germ("z^2", V2)
    f1 = parse_germ("z", V2)
    F = pencil_germ(f0, f1)
    for I in index_sets_with_zero(1):
        for facet in diagram_facets(F, I):
            if len(I) - 1 <= 1:
                with pytest.raises(IdentityInapplicable):
                    cayley_mixed_volume_identity(f0, f1, I, facet)


def test_cayley_identity_hulls_once_and_saturates_once(monkeypatch):
    # the one hull is the applicability check; the base faces are not
    # hulled again, and every mixed volume of the sum shares one saturation
    f0 = parse_germ("z1^3+z2^3+z3^3+z1*z2*z3", V4)
    f1 = parse_germ("z1+z2+z3", V4)
    I = (0, 1, 2, 3)
    (facet,) = diagram_facets(pencil_germ(f0, f1), I)
    calls = Counter()

    def counted(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    hull = counted("convex_hull", lattice.convex_hull)
    monkeypatch.setattr(lattice, "convex_hull", hull)
    monkeypatch.setattr(diagram, "convex_hull", hull)
    monkeypatch.setattr(lattice, "smith_normal_form",
                        counted("smith_normal_form", lattice.smith_normal_form))
    mixed = counted("mixed_volume", lattice.mixed_volume)
    monkeypatch.setattr(lattice, "mixed_volume", mixed)
    monkeypatch.setattr(diagram, "mixed_volume", mixed, raising=False)
    from_points = counted("from_points", lattice.LatticePolytope.from_points)
    monkeypatch.setattr(lattice.LatticePolytope, "from_points",
                        classmethod(lambda cls, pts: from_points(pts)))
    assert cayley_mixed_volume_identity(f0, f1, I, facet)
    assert calls == {"convex_hull": 1, "smith_normal_form": 1}


def _verdict(identity, f0, f1, I, facet):
    try:
        return identity(f0, f1, I, facet)
    except IdentityInapplicable as exc:
        return str(exc)


def test_cayley_identity_matches_the_polytope_path():
    # every facet of random pencils in 2 to 4 z-variables, with monomial and
    # point-shaped base faces of f1: the point-set core and the polytope
    # path give the same verdict, and both refuse a facet one volume unit off
    rng = random.Random(31)
    seen = Counter()
    for k in range(60):
        n = 2 + k % 3
        f0 = random_convenient_germ(rng, n, max_exp=4, extra_terms=2)
        f1 = random_z_germ(rng, n, max_exp=2, max_terms=1 + k % 2 * 2)
        for I, facets in diagram._index_set_facets(pencil_germ(f0, f1)).items():
            if len(I) < 3:
                continue
            for facet in facets:
                got = _verdict(cayley_mixed_volume_identity, f0, f1, I, facet)
                assert got == _verdict(polytope_cayley_identity, f0, f1, I, facet)
                if got is True:
                    point = sum(v[0] for v in facet.vertices) == 1
                    seen[len(f1.terms) == 1, point, n] += 1
                    off = replace(facet, nvol=facet.nvol + 1)
                    assert cayley_mixed_volume_identity(f0, f1, I, off) is False
                    assert polytope_cayley_identity(f0, f1, I, off) is False
    # passing facets for every n and both kinds of f1; a monomial f1 gives
    # a point, a longer one a point on some facets
    assert {(monomial, n) for monomial, _, n in seen} == {
        (monomial, n) for monomial in (False, True) for n in (2, 3, 4)}
    assert {point for monomial, point, _ in seen if not monomial} == {False, True}


# ---------------------------------------------------------------------------
# randomized suites (other seeds than the acceptance criteria's)

def test_cone_suite_randomized():
    result = cone_suite(2024)
    assert result["passed"], result["failures"][:5]
    assert result["facets_checked"] > 40


def test_cayley_suite_randomized():
    result = cayley_suite(2025)
    assert result["passed"], result["failures"][:5]
    assert result["facets_checked"] > 10


def test_an_inapplicable_identity_is_a_failure_with_its_reason():
    """``_checks`` gives a facet whose identity raises ``IdentityInapplicable``
    the row ``ok = None`` with the reason as its note, and ``_suite`` counts
    that row as a failure ``I=... facet ...: <note>``: a suite cannot pass
    on facets that it did not check."""
    def identity(I, facet):
        if len(I) < 3:
            raise IdentityInapplicable(f"no identity on {len(I)} coordinates")
        return True

    F = parse_germ("z1^2 + z2^3 - s", V3)
    rows = list(_checks(F, identity, 2))
    assert [(I, facet.normal, ok, note) for I, facet, ok, note in rows] == [
        ((0, 1), (2, 1), None, "no identity on 2 coordinates"),
        ((0, 2), (3, 1), None, "no identity on 2 coordinates"),
        ((0, 1, 2), (6, 3, 2), True, "")]
    result = _suite("inapplicable", [rows])
    assert (result["cases"], result["facets_checked"], result["passed"]) == (1, 3, False)
    assert result["failures"] == [
        "I=(0, 1) facet (2, 1): no identity on 2 coordinates",
        "I=(0, 2) facet (3, 1): no identity on 2 coordinates"]
