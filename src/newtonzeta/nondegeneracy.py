"""Partial nondegeneracy checking for germs over the rationals.

A germ is nondegenerate for its Newton diagram when no face polynomial
has a critical zero on the algebraic torus.  The faces to inspect are the
compact faces of the restricted diagrams over every index set; every such
face is also a compact face of the full Newton polyhedron (extend the
strictly positive covector by sufficiently large entries off the index
set), so one walk of the full polyhedron's compact faces covers them all.
The faces come from ``lattice``: ``newton_polyhedron_facets`` builds the
polyhedron and ``compact_faces`` walks down from the facets that hold its
compact faces (on a convenient germ, the compact facets alone); this
module reads no facet bitmask and only decides verdicts.

Verdicts:
  * dimension 0: verified automatically (a monomial has no torus critical
    zero);
  * dimension 1: decided exactly by reducing the face polynomial to a
    univariate polynomial along the primitive edge direction, scaled once
    to integer coefficients, and testing squarefreeness away from zero
    with a primitive remainder sequence (a binomial, without building it);
    a multiple rational root becomes a torus witness through one integer
    solve;
  * dimension >= 2: returned unchecked (deciding would need elimination
    theory).  The report never falsely claims a face verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .germ import Exponent, GermSeries, check_z_variables, support
from .lattice import (
    InvariantViolation,
    _sub,
    compact_faces,
    coords_in_basis,
    newton_polyhedron_facets,
    primitive,
    smith_normal_form,
)

VERIFIED = "verified"
COUNTEREXAMPLE = "counterexample"
UNCHECKED = "unchecked"
# longest edge of 3+ points decided; an edge through every lattice point,
# coefficients p/q with |p|, q <= 9, costs 0.03 s at 64, 0.5 s at 128 and
# 9 s at 256 (the integer gcd; 2 vCPUs, Python 3.11.7)
MAX_EDGE_LENGTH = 64


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
    def status(self) -> str:
        if self.counterexamples:
            return COUNTEREXAMPLE
        if self.unchecked:
            return UNCHECKED
        return VERIFIED


# ---------------------------------------------------------------------------
# exact check for one-dimensional faces

def _poly_deriv(p):
    return [i * c for i, c in enumerate(p)][1:]


def _poly_rem(a, b):
    """The remainder of c*a by b for some integer c > 0, over its content;
    each step scales by |lead(b)|, so the remainder's sign is kept.

    >>> _poly_rem([2, -3, 0, 1], [-3, 0, 3])   # (u-1)^2 (u+2) by 3u^2 - 3
    [1, -1]
    """
    a, sign = list(a), 1 if b[-1] > 0 else -1
    while len(a) >= len(b):
        f, k = sign * a.pop(), len(a) + 1 - len(b)
        a = [abs(b[-1]) * x for x in a]
        for j, c in enumerate(b[:-1]):
            a[k + j] -= f * c
    while a and a[-1] == 0:
        a.pop()
    g = gcd(*a)
    return [x // g for x in a]


def _poly_gcd(a, b):
    while b:
        a, b = b, _poly_rem(a, b)
    return a


def _poly_value(p, x):
    return sum(c * x ** i for i, c in enumerate(p))


def _rational_root(p):
    """The rational root of least (|numerator|, denominator), positive
    first, of a nonconstant integer polynomial, or None.

    With leading coefficient L, p has the root x iff the monic
    q(y) = L^(n-1) p(y/L) has the integer root L*x.  A Sturm chain counts
    q's real roots between half-integers, which are never roots of q;
    bisection to width one leaves one integer to test per real root.

    >>> g = [1, -4, 4]                   # (2u - 1)^2, and u^2 - 2
    >>> _rational_root(_poly_gcd(g, _poly_deriv(g))), _rational_root([-2, 0, 1])
    (Fraction(1, 2), None)
    """
    n, lead = len(p) - 1, p[-1]
    q = [c * lead ** (n - 1 - i) for i, c in enumerate(p[:-1])] + [1]
    chain = [q, _poly_deriv(q)]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _poly_rem(chain[-2], chain[-1])])

    def changes(k):  # sign changes of the chain at k + 1/2, read off the
        # integer 2^deg f(k + 1/2) = sum of c_i (2k + 1)^i 2^(deg - i)
        signs = [v > 0 for v in (sum(c * (2 * k + 1) ** i << (len(f) - 1 - i)
                                     for i, c in enumerate(f)) for f in chain) if v]
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
    den = lcm(*(F.terms[p].denominator for p in pts))  # integer coefficients
    g = [0] * (L + 1)
    for p in pts:
        g[(p[i0] - va[i0]) // w[i0]] = int(F.terms[p] * den)
    h = _poly_gcd(g, _poly_deriv(g))
    if len(h) <= 1:
        return FaceVerdict(pts, 1, VERIFIED)
    # the face polynomial has a multiple torus zero; try to exhibit it as
    # an explicit rational torus point
    root = _rational_root(h)
    witness = None
    if root is not None:
        # w = U V[0] with V unimodular: x_i = root^k_i for k = U V^-1 e_1
        # (so w.k = 1) puts root on the edge's monomial x^w
        U, _, V = smith_normal_form([list(w)])
        c = coords_in_basis(list(zip(*V)), (1,) + (0,) * (d - 1))
        ks = [U[0][0] * k for k in c]
        if sum(map(mul, w, ks)) != 1:
            raise InvariantViolation("edge direction has no unimodular completion")
        witness = tuple(root ** k for k in ks)
        # a critical torus zero: the face polynomial f and each x_i df/dx_i vanish
        vals = [F.terms[p] * prod(map(pow, witness, p)) for p in pts]
        if any(sum(map(mul, vals, col)) for col in [(1,) * len(pts), *zip(*pts)]):
            raise InvariantViolation(
                "witness is not a critical zero of the face polynomial")
    degree_drop = len(h) - 1
    return FaceVerdict(
        pts, 1, COUNTEREXAMPLE, witness,
        detail=f"edge polynomial has a multiple zero (gcd degree {degree_drop})")


# ---------------------------------------------------------------------------

def nondegeneracy_check(F: GermSeries) -> NondegeneracyReport:
    """Classify every compact face of the Newton polyhedron of F.

    Dimension-0 faces are verified, dimension-1 faces decided exactly,
    higher-dimensional faces reported unchecked.  More than
    ``germ.MAX_Z_VARIABLES`` z-variables raise ``ValueError`` before any
    work; the polyhedron is built here (``zeta`` hands the one it built
    for the zeta functions to ``_report`` instead).
    """
    check_z_variables(F.num_vars - 1)
    return _report(F, newton_polyhedron_facets(support(F), F.num_vars))


def _report(F: GermSeries, facets) -> NondegeneracyReport:
    """The verdicts on the compact faces of ``facets``, which are
    ``newton_polyhedron_facets(support(F), F.num_vars)``."""
    verdicts = []
    for pts, dim in compact_faces(facets):
        if dim == 0:
            verdicts.append(FaceVerdict(pts, 0, VERIFIED))
        elif dim == 1:
            verdicts.append(_edge_verdict(F, pts))
        else:
            verdicts.append(FaceVerdict(
                pts, dim, UNCHECKED,
                detail="faces of dimension 2 or more are not decided"))
    return NondegeneracyReport(tuple(verdicts))
