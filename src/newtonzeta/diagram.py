"""Newton-diagram facets of a deformation germ and its zeta functions.

For an index set I containing 0, the restricted Newton diagram is the
union of compact faces of the Newton polyhedron conv(S_I) + R_+^I (S_I the
support restricted to I).  Each facet of the polyhedron with a strictly
positive primitive inner normal is a diagram facet and contributes a factor
(1 - t^m)^(sign * nvol); lower-dimensional faces carry normalized volume 0
(Varchenko, Invent. Math. 37, 1976).

Every index set, the full one too, is read off the one Newton polyhedron
P = conv(S) + R_+^d, built by ``lattice.newton_polyhedron_facets``; the
vertices and volume of a facet that is not a simplex are read by
``lattice`` too (``_vertices``, ``_pulled_volume``), off the facet's own
facets, found once on the bitmasks of its face.  For S_I nonempty,
conv(S_I) + R_+^I is the face P ∩ R^I of P (P for the full I); its
generators are the points with zero coordinates off I and the recession
axes in I, and P ∩ R^(I∖j), when it holds a point, is a facet of it.  So
``_index_set_facets`` reads every index set in one walk down the subset
lattice from P: a face's facets are its maximal proper intersections with
the facets of the face above it (Kaibel & Pfetsch, Comput. Geom. 23,
2002), each cut out by a facet of P whose normal gives its own, and the
compact ones are I's diagram facets.  The table serves the zeta functions, the CLI and the identity checks;
``diagram_facets(F, I)`` reads the facets of the polyhedron of S_I as
they are and cuts no face.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import index

from .factored import FactoredZeta, _from_map
from .germ import (
    GermSeries,
    index_sets_with_zero,
    make_germ,
    restrict_support,
    support,
    suspend_germ,
)
from .lattice import (
    InvariantViolation,
    LatticePolytope,
    convex_hull,
    newton_polyhedron_facets,
    normalized_volume_at,
    _bits,
    _dot,
    _face_facets,
    _measure,
    _minimizers,
    _mixed,
    _pulled_volume,
    _saturate,
    _vertices,
    int_det,
    primitive,
)


class IdentityInapplicable(ValueError):
    """A reduction identity does not apply to the given face."""


@dataclass(frozen=True)
class DiagramFacet:
    """A top-dimensional compact face of a restricted Newton diagram.

    ``normal`` is the unique strictly positive primitive inner normal,
    ``m`` its component in the deformation direction, ``vertices`` the
    face's sorted vertices and ``nvol`` its normalized (|I|-1)-volume.
    """
    index_set: tuple[int, ...]
    normal: tuple[int, ...]
    m: int
    vertices: tuple[tuple[int, ...], ...]
    nvol: int


def _normalize_index_set(F: GermSeries, I) -> tuple[int, ...]:
    idx = tuple(sorted(set(map(index, I))))
    if idx and (idx[0] < 0 or idx[-1] >= F.num_vars):
        raise ValueError("index set out of range")
    if not idx or idx[0] != 0:
        raise ValueError("index set must contain 0")
    return idx


def _records(label, coords, pts, face, cut) -> list[DiagramFacet]:
    """The diagram facets, sorted by normal, of the face P ∩ R^I of a
    Newton polyhedron P = conv(pts) + R_+^d: ``face`` is the face's mask,
    ``coords`` are the positions of I in R^d and ``label`` names I.

    ``cut`` maps each facet mask of the face to the normal y of a facet of
    P that cuts it out.  A compact facet G (no recession axis) has y
    nonzero on ``coords``, and y there is a positive multiple of G's
    normal ``a``.  G lies on ``a . x = c`` with the offset ``c >= 1``, so
    the determinants of the simplices of its pulling triangulation on the
    face's facet masks, taken on its points as they are, sum to
    ``c * nvol``.  Each G's mask is read once: a G of |I| points is a
    simplex, so that sum is one ``|int_det|`` of its points, which are all
    its vertices; any other G has its own facets found once on the face's
    facet masks (``_face_facets(g, cut)``), and both its vertex read and
    its pulling triangulation take that one list.
    """
    # the points of the face, projected to R^I; every mask read below
    # lies inside ``face``, so the other points keep None
    proj = [tuple(map(p.__getitem__, coords)) if face >> i & 1 else None
            for i, p in enumerate(pts)]
    out = []
    for g, y in cut.items():
        if g >> len(pts):
            continue
        a = primitive(tuple(map(y.__getitem__, coords)))
        bits = _bits(g)
        if len(bits) == len(coords):
            rows = [proj[i] for i in bits]
            volume = abs(int_det(rows))
        else:
            found = _face_facets(g, cut)
            rows = [proj[i] for i in _vertices(g, found)]
            volume = _pulled_volume(g, len(coords) - 1, proj, found, ())
        nvol, rem = divmod(volume, _dot(a, rows[0]))
        if rem:
            raise InvariantViolation("pyramid volume is not a multiple of its height")
        out.append(DiagramFacet(label, a, a[0], tuple(rows), nvol))
    return sorted(out, key=lambda f: f.normal)


def diagram_facets(F: GermSeries, I) -> list[DiagramFacet]:
    """The facets of conv(S_I) + R_+^I with a strictly positive normal.

    Each is a compact (|I|-1)-face; its vertices are the polyhedron's
    vertices on it.  Returns one facet record per face, sorted by normal;
    empty when the restricted support is empty.  Read off the facets of
    the polyhedron of S_I alone, which cuts no face.
    """
    idx = _normalize_index_set(F, I)
    S = sorted(restrict_support(support(F), idx))
    if not S:
        return []
    cut = {z: y for y, _, z in newton_polyhedron_facets(S, len(idx))}
    return _records(idx, range(len(idx)), S, (1 << len(S)) - 1, cut)


def _index_set_facets(F: GermSeries, facets=None) -> dict:
    """``{I: diagram facets of I}`` in ``index_sets_with_zero`` order (the
    full index set last), read off F's one Newton polyhedron P with the
    facets ``facets``, built here unless given, in one ``_walk``; too many
    z-variables are refused first."""
    table = {I: [] for I in index_sets_with_zero(F.num_vars - 1)}
    pts = sorted(support(F))
    n, d = len(pts), F.num_vars
    if facets is None:
        facets = newton_polyhedron_facets(pts, d)
    cut = {z: y for y, _, z in facets}
    off = [sum(1 << i for i, p in enumerate(pts) if p[j]) | 1 << n + j for j in range(d)]
    _walk(table, pts, off, tuple(range(d)), (1 << n + d) - 1, cut, d)
    return table


def _walk(table, pts, off, I, face, cut, top) -> None:
    """Fill ``table`` with the records of I and of the index sets below it.

    A depth-first walk down the subset lattice from P: it drops one
    coordinate j >= 1 at a time, in decreasing position (those before
    position ``top``), so that each I is visited once.  With ``off[j]``
    the points with x_j > 0 and the recession axis j, P ∩ R^(I∖j) is the
    face ``face`` of P ∩ R^I minus ``off[j]``; a face with no point ends
    its subtree.  Every facet of a face is its intersection with one facet
    of any face above it, cut out by the same facet of P, so each mask of
    ``cut`` keeps that P-normal on the way down.  A face is cut only when
    it holds |I| points, which a compact facet needs, and then on the
    facets of the nearest face above it that was cut (P's own at the top);
    ``_records`` reads the face's diagram facets, vertices included, off
    that cut alone.
    """
    if face.bit_count() >= 2 * len(I):  # |I| points besides the |I| axes
        if len(I) < len(off):
            meet = {g & face: y for g, y in cut.items()}
            cut = {g: meet[g] for g in _face_facets(face, meet)}
        table[I] = _records(I, I, pts, face, cut)
    for k in range(top - 1, 0, -1):
        if (below := face & ~off[I[k]]).bit_count() >= len(I):  # a point
            _walk(table, pts, off, I[:k] + I[k + 1:], below, cut, k)


def _face_sign(I) -> int:
    # (-1)^(|I|-2) for the facets of index set I; I = (0,) gives -1,
    # matching the conventions for the pure-deformation axis where a
    # nonempty restricted diagram contributes (1-t)^-1
    return -1 if len(I) % 2 else 1


def _zeta(facets, acc: dict[int, int]) -> FactoredZeta:
    """``acc`` ({m: e}) times each record's (1 - t^m)^(sign * nvol), in one map."""
    for f in facets:
        acc[f.m] = acc.get(f.m, 0) + _face_sign(f.index_set) * f.nvol
    return _from_map(acc)


def zeta_I(F: GermSeries, I) -> FactoredZeta:
    """Factored zeta contribution of one index set."""
    return _zeta(diagram_facets(F, I), {})


def zeta_torus(F: GermSeries) -> FactoredZeta:
    """Monodromy zeta function of the deformed hypersurface in the torus.

    Valid for germs that are nondegenerate for their Newton diagram; the
    formula is evaluated unconditionally (see nondegeneracy_check).
    """
    return zeta_I(F, range(F.num_vars))


def zeta_torus_and_full(F: GermSeries, facets=None) -> tuple[FactoredZeta, FactoredZeta]:
    """``(zeta_torus(F), zeta_full(F))`` off the index-set table
    ``_index_set_facets(F, facets)``: its last entry, the full index set,
    and (1 - t) with every entry, the exponents of each summed in one map.
    ``facets``, when given, must be ``newton_polyhedron_facets(support(F),
    F.num_vars)``, built by the caller to share with the nondegeneracy
    check.  They are trusted, not checked: handed the polyhedron of
    (1, 0, 0), (0, 5, 0), (0, 0, 7) and (0, 1, 1), the cusp
    ``z1^2 + z2^3 - s`` gets the zeta functions ``1`` and ``(1-t)``."""
    entries = list(_index_set_facets(F, facets).values())
    return _zeta(entries[-1], {}), _zeta((f for fs in entries for f in fs), {1: 1})


def zeta_full(F: GermSeries) -> FactoredZeta:
    """Monodromy zeta function of the deformed hypersurface in affine space.

    (1 - t) times the product of the torus contributions over all index
    sets containing the deformation direction.
    """
    return zeta_torus_and_full(F)[1]


def zeta_classical(f: GermSeries) -> FactoredZeta:
    """Ordinary monodromy zeta function of a germ f(z), via F = f - sigma."""
    return zeta_full(suspend_germ(f))


def face_polynomial(F: GermSeries, alpha) -> GermSeries:
    """Sub-germ supported on the face where the positive covector is minimal."""
    _, face = _minimizers(list(F.terms), tuple(map(index, alpha)))
    return make_germ(F.num_vars, [(e, F.terms[e]) for e in face])


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
