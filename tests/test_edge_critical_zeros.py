"""Edge verdicts against an elimination oracle.

A face polynomial f of an edge has a critical zero on the torus iff the
ideal of the x_i df/dx_i together with 1 - t x_0 ... x_{d-1} is not the
unit ideal (Hilbert's Nullstellensatz; the t makes every x_i a unit).  An
edge's f is quasi-homogeneous of positive degree, so the Euler relation
puts f itself in the ideal of the x_i df/dx_i.  sympy's reduced Groebner
basis over QQ, in grevlex order, is [1] exactly for the unit ideal (Cox,
Little & O'Shea, *Ideals, Varieties, and Algorithms*, ch. 4).

Every second seeded germ carries a planted edge whose coefficients are
those of (u - c)^deg, deg 2 to 4, one of them perturbed a third of the
time: unperturbed, the edge has a critical zero at u = c.
"""

from math import comb, prod
from random import Random

import sympy

from helpers import random_deformation_germ, random_nonzero_fraction
from newtonzeta.germ import make_germ
from newtonzeta.nondegeneracy import COUNTEREXAMPLE, VERIFIED, nondegeneracy_check


def _has_critical_torus_zero(F, pts) -> bool:
    xs = sympy.symbols(f"x0:{F.num_vars}")
    t = sympy.Symbol("t")
    terms = [(p, sympy.Rational(F.terms[p].numerator, F.terms[p].denominator)
              * prod(x ** e for x, e in zip(xs, p))) for p in pts]
    derivatives = [sum(p[i] * term for p, term in terms) for i in range(F.num_vars)]
    ideal = [g for g in derivatives if g != 0] + [1 - t * prod(xs)]
    return list(sympy.groebner(ideal, *xs, t, order="grevlex", domain="QQ")) != [1]


def _planted_edge_germ(rng, n):
    """A seeded germ in (s, z1, ..., zn) with the terms of
    (u - c)^deg on the segment from deg*a e_i to deg*b e_j, u^k at
    (deg - k)*a e_i + k*b e_j, and with the base terms on or below that
    segment in the (i, j) plane dropped, so that the segment is an edge."""
    F = random_deformation_germ(rng, n, max_exp=4, terms_count=rng.randint(2, 5))
    i, j = rng.sample(range(n + 1), 2)
    a, b, deg = rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 4)
    c = random_nonzero_fraction(rng)
    coefficients = [comb(deg, k) * (-c) ** (deg - k) for k in range(deg + 1)]
    if rng.random() < 1 / 3:
        coefficients[rng.randrange(deg + 1)] += random_nonzero_fraction(rng)
    planted = []
    for k, coefficient in enumerate(coefficients):
        e = [0] * (n + 1)
        e[i], e[j] = (deg - k) * a, k * b
        planted.append((tuple(e), coefficient))
    kept = [(e, x) for e, x in F.terms.items()
            if any(e[m] for m in range(n + 1) if m not in (i, j))
            or b * e[i] + a * e[j] > a * b * deg]
    return make_germ(n + 1, kept + planted)


def test_edge_verdicts_match_the_elimination_oracle():
    rng = Random(4611)
    germs = []
    for k in range(100):
        n = 1 + k % 3
        germs.append(_planted_edge_germ(rng, n) if k % 2
                     else random_deformation_germ(rng, n, max_exp=4,
                                                  terms_count=rng.randint(2, 5)))
    seen = {VERIFIED: 0, COUNTEREXAMPLE: 0}
    for F in germs:
        for face in nondegeneracy_check(F).faces:
            if face.dim == 1:
                critical = _has_critical_torus_zero(F, face.support_points)
                assert critical == (face.status == COUNTEREXAMPLE), (F, face)
                seen[face.status] += 1
    assert seen[VERIFIED] > 150 and seen[COUNTEREXAMPLE] > 20, seen
