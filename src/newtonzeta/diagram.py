"""The zeta functions of a deformation germ, by Varchenko's formula.

For an index set I containing 0, the restricted Newton diagram is the
union of compact faces of the Newton polyhedron conv(S_I) + R_+^I (S_I the
support restricted to I).  Each facet of the polyhedron with a strictly
positive primitive inner normal is a diagram facet and contributes a factor
(1 - t^m)^(sign * nvol); lower-dimensional faces carry normalized volume 0
(Varchenko, Invent. Math. 37, 1976).

This module keeps the formula: the sign of each index set's factors, the
zeta functions that sum them, and the two reduction identities that check
the records.  The records themselves, ``lattice.DiagramFacet``, are read
in ``lattice`` and name no index set: the zeta functions sum a map
``{I: records}``, in any order, and take each record's sign from its key
I.  ``lattice.coordinate_facets`` returns that map for F's one Newton
polyhedron P = conv(S) + R_+^d, read in one walk, since conv(S_I) + R_+^I
is the coordinate face P ∩ R^I.  ``_index_set_facets`` lists it over
every index set in order, for the CLI's ``diagram`` rows and the
identity checks; ``zeta`` sums the map as it comes.
``diagram_facets(F, I)`` reads S_I alone (``lattice.support_facets``),
and ``zeta_torus`` reads F's own support the same way, filed under the
full index set: a support of at most |I| points builds no polyhedron.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import index

from .factored import FactoredZeta, _from_map
from .germ import (
    GermSeries,
    index_sets_with_zero,
    restrict_support,
    support,
    suspend_germ,
)
from .lattice import (
    DiagramFacet,
    LatticePolytope,
    convex_hull,
    coordinate_facets,
    newton_polyhedron_facets,
    normalized_volume_at,
    support_facets,
    _measure,
    _minimizers,
    _mixed,
    _saturate,
)


class IdentityInapplicable(ValueError):
    """A reduction identity does not apply to the given face."""


def _normalize_index_set(F: GermSeries, I) -> tuple[int, ...]:
    idx = tuple(sorted(set(map(index, I))))
    if idx and (idx[0] < 0 or idx[-1] >= F.num_vars):
        raise ValueError("index set out of range")
    if not idx or idx[0] != 0:
        raise ValueError("index set must contain 0")
    return idx


def diagram_facets(F: GermSeries, I) -> list[DiagramFacet]:
    """The facets of conv(S_I) + R_+^I with a strictly positive normal.

    Each is a compact (|I|-1)-face; its vertices are the polyhedron's
    vertices on it.  Returns one facet record per face, sorted by normal;
    empty when the restricted support has fewer than |I| points.  Read off
    S_I alone (``lattice.support_facets``): exactly |I| points by one
    elimination, more off the facets of their polyhedron, which cuts no
    face.
    """
    idx = _normalize_index_set(F, I)
    return support_facets(restrict_support(support(F), idx), len(idx))


def _index_set_facets(F: GermSeries) -> dict:
    """``{I: diagram facets of I}`` in ``index_sets_with_zero`` order (the
    full index set last, an I with none listed with ``[]``), read off F's
    one Newton polyhedron by one ``lattice.coordinate_facets`` walk; too
    many z-variables are refused first."""
    table = {I: [] for I in index_sets_with_zero(F.num_vars - 1)}
    table.update(coordinate_facets(newton_polyhedron_facets(support(F), F.num_vars)))
    return table


def _face_sign(I) -> int:
    # (-1)^(|I|-2) for the facets of index set I; I = (0,) gives -1,
    # matching the conventions for the pure-deformation axis where a
    # nonempty restricted diagram contributes (1-t)^-1
    return -1 if len(I) % 2 else 1


def _zeta(table, acc: dict[int, int]) -> FactoredZeta:
    """``acc`` ({m: e}) times (1 - t^m)^(sign * nvol) for each record of
    the table ``{I: records}``, its sign ``_face_sign(I)``, in one map."""
    for I, facets in table.items():
        for f in facets:
            acc[f.m] = acc.get(f.m, 0) + _face_sign(I) * f.nvol
    return _from_map(acc)


def zeta_torus(F: GermSeries) -> FactoredZeta:
    """Monodromy zeta function of the deformed hypersurface in the torus.

    Valid for germs that are nondegenerate for their Newton diagram; the
    formula is evaluated unconditionally (see nondegeneracy_check).  The
    sum runs over the diagram facets of F's own support, the full index
    set's, read as ``diagram_facets`` reads one: a support of one point
    per variable, such as a Brieskorn-Pham germ's, builds no polyhedron.
    """
    return _zeta({tuple(range(F.num_vars)): support_facets(support(F), F.num_vars)}, {})


def _zeta_torus_and_full(F: GermSeries, facets) -> tuple[FactoredZeta, FactoredZeta]:
    """``(zeta_torus(F), zeta_full(F))`` off the map
    ``lattice.coordinate_facets(facets)``: its full index set's records,
    and (1 - t) with every entry, the exponents of each summed in one map;
    no index set is listed.  ``facets`` is
    ``newton_polyhedron_facets(support(F), F.num_vars)``, which
    ``cli.cmd_zeta`` builds once for both zeta functions and the
    nondegeneracy check, after it refuses too many z-variables."""
    table = coordinate_facets(facets)
    full = tuple(range(F.num_vars))
    return _zeta({full: table.get(full, [])}, {}), _zeta(table, {1: 1})


def zeta_full(F: GermSeries) -> FactoredZeta:
    """Monodromy zeta function of the deformed hypersurface in affine space.

    (1 - t) times the product of the torus contributions over all index
    sets containing the deformation direction.
    """
    return _zeta(_index_set_facets(F), {1: 1})


def zeta_classical(f: GermSeries) -> FactoredZeta:
    """Ordinary monodromy zeta function of a germ f(z), via F = f - sigma."""
    return zeta_full(suspend_germ(f))


def euler_char_torus_hypersurface(P: LatticePolytope) -> int:
    """Euler characteristic of a generic torus hypersurface with Newton
    polytope P (full-dimensional in Z^n): (-1)^(n-1) n! V_n(P)."""
    n = P.ambient_dim
    if n < 1:
        raise ValueError("ambient dimension must be positive")
    nvol = normalized_volume_at(P, n)  # 0 unless P is full-dimensional
    if not nvol:
        raise ValueError("polytope is not full-dimensional in its ambient space")
    return (-1) ** (n - 1) * nvol


# ---------------------------------------------------------------------------
# reduction identities used as internal oracles

def cone_reduction_identity(f: GermSeries, I, facet: DiagramFacet) -> bool:
    """Check a facet of F = f - sigma against its base face in f's diagram.

    Such a facet is a cone of height one over a face of f's diagram: its
    normalized volume must equal the normalized volume of the base face,
    and its deformation exponent m must equal the minimum of the normal
    over f's restricted support.
    """
    idx = _normalize_index_set(f, I)
    l = len(idx) - 1
    if l < 1:
        raise IdentityInapplicable("the identity concerns faces of dimension at least 1")
    apex = (1,) + (0,) * l
    if apex not in facet.vertices:
        raise IdentityInapplicable("facet is not a cone with the deformation apex")
    alpha_z = facet.normal[1:]
    S = sorted(restrict_support(support(f), idx[1:]))
    if not S:
        raise IdentityInapplicable("the function germ has empty restricted support")
    m_expected, base = _minimizers(S, alpha_z)
    return facet.nvol == _measure(base, l - 1) and facet.m == m_expected


def cayley_mixed_volume_identity(f0: GermSeries, f1: GermSeries, I,
                                 facet: DiagramFacet) -> bool:
    """Check a facet of F = f0 - sigma*f1 against the mixed-volume sum.

    The facet is the hull of the two corresponding faces of f0 and f1
    placed at heights 0 and 1; for l = |I|-1 > 1 its volume satisfies
    l * V_l = sum over j of the (l-1)-dimensional mixed volumes of the two
    base faces, and m is the difference of the two support minima.
    """
    idx = _normalize_index_set(f0, I)
    l = len(idx) - 1
    if l <= 1:
        raise IdentityInapplicable("the identity is stated for faces of dimension above 1")
    alpha_z = facet.normal[1:]
    J = idx[1:]
    S0 = sorted(restrict_support(support(f0), J))
    S1 = sorted(restrict_support(support(f1), J))
    if not S0 or not S1:
        raise IdentityInapplicable("a base support is empty; the facet is not of hull type")
    m0, base0 = _minimizers(S0, alpha_z)
    m1, base1 = _minimizers(S1, alpha_z)
    expected, dim, _ = convex_hull([(0,) + v for v in base0] + [(1,) + v for v in base1])
    if dim != l or tuple(expected) != facet.vertices:  # so the bases have rank l - 1
        raise IdentityInapplicable("facet is not the hull of the two base faces")
    _, (pts0, pts1) = _saturate([base0, base1])
    lhs = Fraction(facet.nvol, factorial(l - 1))  # = l * V_l(facet)
    rhs = sum(_mixed([pts0] * (l - 1 - j) + [pts1] * j) for j in range(l))
    return lhs == rhs and facet.m == m0 - m1
