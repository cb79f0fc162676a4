"""Partial nondegeneracy checking for germs over the rationals.

A germ is nondegenerate for its Newton diagram when no face polynomial
has a critical zero on the algebraic torus.  The faces to inspect are the
compact faces of the restricted diagrams over every index set; every such
face is also a compact face of the full Newton polyhedron (extend the
strictly positive covector by sufficiently large entries off the index
set), so one walk down the full polyhedron's face lattice covers them all.

Verdicts:
  * dimension 0: verified automatically (a monomial has no torus critical
    zero);
  * dimension 1: decided exactly by reducing the face polynomial to a
    univariate polynomial along the primitive edge direction and testing
    squarefreeness away from zero (a binomial, without building it);
  * dimension >= 2: returned unchecked (deciding would need elimination
    theory).  The report never falsely claims a face verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .germ import Exponent, GermSeries, check_z_variables, support
from .lattice import (
    InvariantViolation,
    _face_facets,
    _gauss_jordan,
    _sub,
    cone_facets,
    primitive,
    smith_normal_form,
)

VERIFIED = "verified"
COUNTEREXAMPLE = "counterexample"
UNCHECKED = "unchecked"
MAX_EDGE_LENGTH = 64  # longest edge of 3+ points decided (dense gcd: 2.5 s at 64)


@dataclass(frozen=True)
class FaceVerdict:
    support_points: tuple[Exponent, ...]
    dim: int
    status: str
    witness: tuple[Fraction, ...] | None = None
    detail: str = ""


@dataclass(frozen=True)
class NondegeneracyReport:
    faces: tuple[FaceVerdict, ...]

    @property
    def counterexamples(self) -> tuple[FaceVerdict, ...]:
        return tuple(f for f in self.faces if f.status == COUNTEREXAMPLE)

    @property
    def unchecked(self) -> tuple[FaceVerdict, ...]:
        return tuple(f for f in self.faces if f.status == UNCHECKED)

    @property
    def all_verified(self) -> bool:
        return all(f.status == VERIFIED for f in self.faces)

    @property
    def status(self) -> str:
        if self.counterexamples:
            return COUNTEREXAMPLE
        if self.unchecked:
            return UNCHECKED
        return VERIFIED


# ---------------------------------------------------------------------------
# compact faces of the Newton polyhedron conv(S) + R_+^d

def newton_polyhedron_facets(points, d: int):
    """Facets of conv(points) + R_+^d.

    Returns sorted (normal, offset, zeros) triples: the primitive inner
    normal (componentwise nonnegative), its minimum value, and the facet's
    zero-set mask as ``cone_facets`` returns it, with bit i for the i-th
    sorted distinct point on the facet and bit n + j for the recession
    axis j in it (the normal's zero components), n points in all.
    """
    pts = sorted(set(tuple(int(x) for x in p) for p in points))
    if not pts:
        raise ValueError("empty support")
    gens = [(1,) + p for p in pts] + \
        [(0,) * (i + 1) + (1,) + (0,) * (d - 1 - i) for i in range(d)]
    # the normal with a = 0 is the facet at infinity, not a facet of the
    # polyhedron
    return sorted((y[1:], -y[0], z) for y, z in cone_facets(gens)[1] if any(y[1:]))


def compact_faces(points, d: int) -> list[tuple[tuple[Exponent, ...], int]]:
    """Sorted ``(support_points, dim)`` of the compact faces of
    conv(points) + R_+^d, walked down from the facets a dimension per level
    on the masks of ``newton_polyhedron_facets``; a face is compact when
    it holds no recession axis (no bit from n up), and nonempty."""
    pts = sorted(set(tuple(int(x) for x in p) for p in points))
    n = len(pts)
    masks = [z for _, _, z in newton_polyhedron_facets(pts, d)]
    out = []
    level, dim = set(masks), d - 1
    while level:
        out += [(tuple(p for i, p in enumerate(pts) if m >> i & 1), dim)
                for m in level if m >> n == 0]
        level = {f for m in level for f in _face_facets(m, masks)
                 if f & ((1 << n) - 1)}
        dim -= 1
    return sorted(out, key=lambda face: (face[1], face[0]))


# ---------------------------------------------------------------------------
# exact check for one-dimensional faces

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_deriv(p):
    return [i * c for i, c in enumerate(p)][1:]


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = Fraction(1) / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        f = a[i + len(b) - 1] * inv
        q[i] = f
        for j, bc in enumerate(b):
            a[i + j] -= f * bc
    return q, _poly_trim(a)


def _poly_gcd(a, b):
    a = _poly_trim([Fraction(c) for c in a])
    b = _poly_trim([Fraction(c) for c in b])
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        inv = Fraction(1) / a[-1]
        a = [c * inv for c in a]
    return a


def _poly_value(p, x):
    return sum(c * x ** i for i, c in enumerate(p))


def _rational_root(p):
    """The rational root of least (|numerator|, denominator), positive
    first, of a nonconstant polynomial with Fraction coefficients, or None.

    Scaled to integers with leading coefficient L, p has the root x iff the
    monic q(y) = L^(n-1) p(y/L) has the integer root L*x.  A Sturm chain
    counts q's real roots between half-integers, which are never roots of
    q; bisection to width one leaves one integer to test per real root.
    """
    den = lcm(*(c.denominator for c in p))
    ip = [int(c * den) for c in p]
    n, lead = len(ip) - 1, ip[-1]
    q = [c * lead ** (n - 1 - i) for i, c in enumerate(ip[:-1])] + [1]
    chain = [q, _poly_deriv(q)]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _poly_divmod(chain[-2], chain[-1])[1]])

    def changes(k):  # sign changes of the chain at k + 1/2
        signs = [v > 0 for v in (_poly_value(f, Fraction(2 * k + 1, 2))
                                 for f in chain) if v]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    bound = 1 + max(abs(c) for c in q[:-1])  # Cauchy: every root is inside
    roots, cells = [], [(-bound - 1, changes(-bound - 1), bound, changes(bound))]
    while cells:
        a, va, b, vb = cells.pop()
        if va != vb and b - a > 1:
            m = (a + b) // 2
            vm = changes(m)
            cells += [(a, va, m, vm), (m, vm, b, vb)]
        elif va != vb and _poly_value(q, b) == 0:
            roots.append(Fraction(b, lead))
    return min(roots, key=lambda x: (abs(x.numerator), x.denominator, x < 0),
               default=None)


def _int_inverse(M):
    """Inverse of a unimodular integer matrix: p times the right block of
    ``[M | I]`` after ``_gauss_jordan``, whose pivot p is then +-1."""
    n = len(M)
    pivots, a, p = _gauss_jordan(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)], n)
    if len(pivots) < n or abs(p) != 1:
        raise InvariantViolation("unimodular matrix has a non-integer inverse")
    return [[p * x for x in row[n:]] for row in a]


def _complete_unimodular(w):
    """Unimodular integer matrix whose first row is the primitive vector w."""
    _, D, V = smith_normal_form([list(w)])
    if D[0][0] != 1:
        raise InvariantViolation("edge direction is not primitive")
    if tuple(V[0]) != tuple(w):
        V = [[-x for x in V[0]]] + [list(r) for r in V[1:]]
    if tuple(V[0]) != tuple(w):
        raise InvariantViolation("unimodular completion lost the edge direction")
    return [list(r) for r in V]


def _evaluate_germ(terms, x):
    total = Fraction(0)
    for e, c in terms:
        v = c
        for xi, k in zip(x, e):
            v *= xi ** k
        total += v
    return total


def _edge_verdict(F: GermSeries, pts: tuple[Exponent, ...]) -> FaceVerdict:
    if len(pts) == 2:
        # a binomial a + b*u^L has no multiple zero off u = 0, whatever the
        # lattice length L, so the dense polynomial below is not needed
        return FaceVerdict(pts, 1, VERIFIED)
    d = F.num_vars
    va, vb = min(pts), max(pts)
    w = primitive(_sub(vb, va))
    i0 = next(i for i in range(d) if w[i])
    L = (vb[i0] - va[i0]) // w[i0]
    if L > MAX_EDGE_LENGTH:
        raise ValueError(f"edge from {va} to {vb} not decided: {len(pts)} support "
                         f"points over lattice length {L} > {MAX_EDGE_LENGTH}")
    coeffs_by_j = {}
    for p in pts:
        j = (p[i0] - va[i0]) // w[i0]
        coeffs_by_j[j] = F.terms[p]
    g = [coeffs_by_j.get(j, Fraction(0)) for j in range(L + 1)]
    h = _poly_gcd(g, _poly_deriv(g))
    if len(h) <= 1:
        return FaceVerdict(pts, 1, VERIFIED)
    # the face polynomial has a multiple torus zero; try to exhibit it as
    # an explicit rational torus point
    root = _rational_root(h)
    witness = None
    if root is not None:
        V = _complete_unimodular(w)
        Vinv = _int_inverse(V)
        witness = tuple(root ** Vinv[i][0] for i in range(d))
        face_terms = [(p, F.terms[p]) for p in pts]
        if _evaluate_germ(face_terms, witness) != 0:
            raise InvariantViolation("witness is not a zero of the face polynomial")
        for i in range(d):
            dterms = [(tuple(k - (1 if t == i else 0) for t, k in enumerate(e)),
                       c * e[i]) for e, c in face_terms if e[i]]
            if _evaluate_germ(dterms, witness) != 0:
                raise InvariantViolation(
                    "witness is not a critical point of the face polynomial")
    degree_drop = len(h) - 1
    return FaceVerdict(
        pts, 1, COUNTEREXAMPLE, witness,
        detail=f"edge polynomial has a multiple zero (gcd degree {degree_drop})")


# ---------------------------------------------------------------------------

def nondegeneracy_check(F: GermSeries) -> NondegeneracyReport:
    """Classify every compact face of the Newton polyhedron of F.

    Dimension-0 faces are verified, dimension-1 faces decided exactly,
    higher-dimensional faces reported unchecked.  More than
    ``germ.MAX_Z_VARIABLES`` z-variables raise ``ValueError`` before any work.
    """
    check_z_variables(F.num_vars - 1)
    verdicts = []
    for pts, dim in compact_faces(support(F), F.num_vars):
        if dim == 0:
            verdicts.append(FaceVerdict(pts, 0, VERIFIED))
        elif dim == 1:
            verdicts.append(_edge_verdict(F, pts))
        else:
            verdicts.append(FaceVerdict(
                pts, dim, UNCHECKED,
                detail="faces of dimension 2 or more are not decided"))
    return NondegeneracyReport(tuple(verdicts))
