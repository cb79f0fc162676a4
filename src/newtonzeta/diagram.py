"""Newton-diagram facets of a deformation germ and its zeta functions.

For an index set I containing 0, the restricted Newton diagram is the
union of compact faces of the Newton polyhedron conv(S_I) + R_+^I (S_I the
support restricted to I).  Each facet of the polyhedron with a strictly
positive primitive inner normal is a diagram facet and contributes a factor
(1 - t^m)^(sign * nvol); lower-dimensional faces carry normalized volume 0
(Varchenko, Invent. Math. 37, 1976).

Every index set, the full one too, is read off the one Newton polyhedron
P = conv(S) + R_+^d down one path.  For S_I nonempty, conv(S_I) + R_+^I is
the face of P where sum_{j not in I} x_j is 0 (P for the full I); its
generators are the points with zero coordinates off I and the recession
axes in I.  The facets of that face are its maximal proper intersections
with P's facets (Kaibel & Pfetsch, Comput. Geom. 23, 2002), and the
compact ones are I's diagram facets, so ``_index_set_facets`` serves the
zeta functions, the CLI and the identity checks; ``diagram_facets(F, I)``
reads I as the full index set of the polyhedron of S_I.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import index

from .factored import FactoredZeta, factor, product
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
    normalized_volume_at,
    _dot,
    _face_facets,
    _measure,
    _minimizers,
    _mixed,
    _pulled_volume,
    _saturate,
    _vertices,
    primitive,
)
from .nondegeneracy import newton_polyhedron_facets


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
    if not idx or idx[0] != 0:
        raise ValueError("index set must contain 0")
    if idx[-1] >= F.num_vars:
        raise ValueError("index set out of range")
    return idx


def _facet_reader(pts, facets):
    """Read index sets' diagram facets off one Newton polyhedron.

    ``pts`` are the sorted distinct points of P = conv(pts) + R_+^d and
    ``facets`` its ``newton_polyhedron_facets``.  Returns a function of
    ``(label, coords)``: the records, sorted by normal, of the index set
    whose coordinate positions in R^d are ``coords`` (labelled ``label``).

    Every index set takes one path.  With each point's coordinate support
    a bitmask, computed once, the face P ∩ R^I is the points whose support
    lies in I plus the recession axes in I: all of P for the full I.
    A facet of P that cuts out a diagram facet G of P ∩ R^I has a normal
    y nonzero on I, so y on I is a positive multiple of G's normal ``a``.
    The volume is read off the pyramid from the origin: the primitive
    ``a`` puts the origin at lattice height ``c`` (the offset) below G,
    and the pyramid's normalized |I|-volume, summed over the pulling
    triangulation of G's mask, is ``c * nvol``.
    """
    n = len(pts)
    masks = [z for _, _, z in facets]
    verts = set(_vertices(pts, masks))
    supports = [sum(1 << j for j, x in enumerate(p) if x) for p in pts]

    def read(label, coords) -> list[DiagramFacet]:
        keep = sum(1 << j for j in coords)
        # the points of P ∩ R^I, projected to R^I; every mask read below
        # lies inside ``face``, so the other points keep None
        face, proj = 0, []
        for i, (p, s) in enumerate(zip(pts, supports)):
            if s & ~keep:
                proj.append(None)
            else:
                face |= 1 << i
                proj.append(tuple(map(p.__getitem__, coords)))
        # a compact facet of P ∩ R^I holds at least |I| points
        if face.bit_count() < len(coords):
            return []
        face |= keep << n
        cut = {}  # a facet of P cutting out each face of P ∩ R^I
        for y, _, z in facets:
            cut.setdefault(z & face, y)
        origin = ((0,) * len(coords),)
        out = []
        for g in _face_facets(face, masks):
            if g >> n:
                continue
            a = primitive(tuple(map(cut[g].__getitem__, coords)))
            c = _dot(a, proj[(g & -g).bit_length() - 1])
            nvol, rem = divmod(_pulled_volume(g, len(coords) - 1, proj, masks, origin), c)
            if rem:
                raise InvariantViolation("pyramid volume is not a multiple of its height")
            out.append(DiagramFacet(label, a, a[0], tuple(
                p for i, p in enumerate(proj) if g >> i & 1 and pts[i] in verts), nvol))
        return sorted(out, key=lambda f: f.normal)

    return read


def diagram_facets(F: GermSeries, I) -> list[DiagramFacet]:
    """The facets of conv(S_I) + R_+^I with a strictly positive normal.

    Each is a compact (|I|-1)-face; its vertices are the polyhedron's
    vertices on it.  Returns one facet record per face, sorted by normal;
    empty when the restricted support is empty.  Read off the polyhedron
    of S_I alone (``_facet_reader`` with I as the full index set).
    """
    idx = _normalize_index_set(F, I)
    d = len(idx)
    S = sorted(restrict_support(support(F), idx))
    if not S:
        return []
    return _facet_reader(S, newton_polyhedron_facets(S, d))(idx, range(d))


def _index_set_facets(F: GermSeries, facets=None):
    """``(index sets, read)``: the index sets in ``index_sets_with_zero``
    order (the full index set last), and ``read(I, I)`` gives I's diagram
    facets off F's one Newton polyhedron ``facets``, built here unless
    given; too many z-variables are refused first."""
    index_sets = index_sets_with_zero(F.num_vars - 1)
    S = sorted(support(F))
    if facets is None:
        facets = newton_polyhedron_facets(S, F.num_vars)
    return index_sets, _facet_reader(S, facets)


def _face_sign(I) -> int:
    # (-1)^(|I|-2) for the facets of index set I; I = (0,) gives -1,
    # matching the conventions for the pure-deformation axis where a
    # nonempty restricted diagram contributes (1-t)^-1
    return -1 if len(I) % 2 else 1


def _contribution(facets) -> FactoredZeta:
    return product(factor(f.m, _face_sign(f.index_set) * f.nvol) for f in facets)


def zeta_I(F: GermSeries, I) -> FactoredZeta:
    """Factored zeta contribution of one index set."""
    return _contribution(diagram_facets(F, I))


def zeta_torus(F: GermSeries) -> FactoredZeta:
    """Monodromy zeta function of the deformed hypersurface in the torus.

    Valid for germs that are nondegenerate for their Newton diagram; the
    formula is evaluated unconditionally (see nondegeneracy_check).
    """
    return zeta_I(F, range(F.num_vars))


def zeta_torus_and_full(F: GermSeries, facets=None) -> tuple[FactoredZeta, FactoredZeta]:
    """``(zeta_torus(F), zeta_full(F))``, a product over the index-set
    table ``_index_set_facets(F, facets)``.

    ``facets``, when given, are ``newton_polyhedron_facets(support(F),
    F.num_vars)``, built by the caller to share with the nondegeneracy
    check.  The torus zeta function is the table's last entry, the full
    index set, which is also one of the factors of the affine one.
    """
    index_sets, read = _index_set_facets(F, facets)
    parts = [_contribution(read(I, I)) for I in index_sets]
    return parts[-1], factor(1, 1) * product(parts)


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
    _, (pts,) = _saturate([base])
    return facet.nvol == _measure(pts, l - 1) and facet.m == m_expected


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
