"""Partial nondegeneracy checking for germs over the rationals.

A germ is nondegenerate for its Newton diagram when no face polynomial
has a critical zero on the algebraic torus.  The faces to inspect are the
compact faces of the restricted diagrams over every index set; every such
face is also a compact face of the full Newton polyhedron (extend the
strictly positive covector by sufficiently large entries off the index
set), so a single enumeration over the full polyhedron covers them all.

Verdicts:
  * dimension 0: verified automatically (a monomial has no torus critical
    zero);
  * dimension 1: decided exactly by reducing the face polynomial to a
    univariate polynomial along the primitive edge direction and testing
    squarefreeness away from zero;
  * dimension >= 2: returned unchecked (deciding would need elimination
    theory).  The report never falsely claims a face verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .factored import _divisors
from .germ import Exponent, GermSeries, support
from .lattice import (
    InvariantViolation,
    _dot,
    _gauss_jordan,
    _sub,
    cone_facets,
    mat_rank,
    primitive,
    smith_normal_form,
)

VERIFIED = "verified"
COUNTEREXAMPLE = "counterexample"
UNCHECKED = "unchecked"


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

    Returns (normal, offset, on_points, free_axes) tuples: the primitive
    inner normal (componentwise nonnegative), its minimum value, the
    support points lying on the facet, and the recession axes contained in
    it (the normal's zero components).
    """
    pts = sorted(set(tuple(int(x) for x in p) for p in points))
    if not pts:
        raise ValueError("empty support")
    gens = [(1,) + p for p in pts] + \
        [(0,) * (i + 1) + (1,) + (0,) * (d - 1 - i) for i in range(d)]
    # the normal with a = 0 is the facet at infinity, not a facet of the
    # polyhedron
    found = [(y[1:], -y[0]) for y, _ in cone_facets(gens) if any(y[1:])]
    out = []
    for a, c in sorted(found):
        on = frozenset(p for p in pts if _dot(a, p) == c)
        axes = frozenset(i for i in range(d) if a[i] == 0)
        out.append((a, c, on, axes))
    return out


def compact_faces(points, d: int) -> list[tuple[Exponent, ...]]:
    """Support-point sets of all compact faces of conv(points) + R_+^d.

    Every proper face is an intersection of facets; a face is compact
    exactly when the intersection of the facets' recession axis sets is
    empty.
    """
    facets = newton_polyhedron_facets(points, d)
    seeds = [(on, axes) for _, _, on, axes in facets]
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        new = []
        for on1, ax1 in frontier:
            for on2, ax2 in seeds:
                on = on1 & on2
                if not on:
                    continue
                key = (on, ax1 & ax2)
                if key not in seen:
                    seen.add(key)
                    new.append(key)
        frontier = new
    return sorted({tuple(sorted(on)) for on, axes in seen if not axes})


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


def _rational_root(p):
    """Some rational root of a polynomial with Fraction coefficients, or None."""
    if len(p) == 2:  # linear: its only root, without trial division
        return -p[0] / p[1]
    lcm = 1
    for c in p:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ip = [int(c * lcm) for c in p]
    g = 0
    for c in ip:
        g = gcd(g, abs(c))
    ip = [c // g for c in ip]
    const, lead = ip[0], ip[-1]
    for r in _divisors(const):
        for s in _divisors(lead):
            for cand in (Fraction(r, s), Fraction(-r, s)):
                if sum(c * cand ** i for i, c in enumerate(p)) == 0:
                    return cand
    return None


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
    d = F.num_vars
    va, vb = min(pts), max(pts)
    w = primitive(_sub(vb, va))
    i0 = next(i for i in range(d) if w[i])
    coeffs_by_j = {}
    for p in pts:
        j = (p[i0] - va[i0]) // w[i0]
        coeffs_by_j[j] = F.terms[p]
    L = max(coeffs_by_j)
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
    higher-dimensional faces reported unchecked.
    """
    S = sorted(support(F))
    d = F.num_vars
    verdicts = []
    for pts in compact_faces(S, d):
        base = pts[0]
        dim = mat_rank([_sub(p, base) for p in pts[1:]])
        if dim == 0:
            verdicts.append(FaceVerdict(pts, 0, VERIFIED))
        elif dim == 1:
            verdicts.append(_edge_verdict(F, pts))
        else:
            verdicts.append(FaceVerdict(
                pts, dim, UNCHECKED,
                detail="faces of dimension 2 or more are not decided"))
    verdicts.sort(key=lambda v: (v.dim, v.support_points))
    return NondegeneracyReport(tuple(verdicts))
