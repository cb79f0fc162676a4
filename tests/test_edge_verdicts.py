"""Edge verdicts against the dense edge polynomial over Fractions.

``nondegeneracy._edge_verdict`` decides a binomial edge (two support
points) without building the edge polynomial; every other edge goes
through it with integer coefficients, a primitive remainder sequence for
the gcd and the Sturm chain, and the witness exponents from one solve.
``dense_edge_verdict`` in ``tests/helpers.py`` builds the polynomial for
every edge and runs Euclid over Fractions and the unimodular completion
with its inverse: verdicts, witnesses and details must agree.
"""

from collections import Counter
from fractions import Fraction
from math import lcm
from random import Random

from helpers import (
    dense_edge_verdict,
    fraction_poly_gcd,
    fraction_rational_root,
    random_convenient_germ,
    random_deformation_germ,
    random_nonzero_fraction,
)
from newtonzeta.germ import make_germ, suspend_germ, support
from newtonzeta.lattice import compact_faces, newton_polyhedron_facets
from newtonzeta.nondegeneracy import (
    COUNTEREXAMPLE,
    MAX_EDGE_LENGTH,
    VERIFIED,
    _edge_verdict,
    _poly_deriv,
    _poly_gcd,
    _rational_root,
)


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _planted_edge_germ(rng):
    """g_0 z2^(bL) + ... + g_j z1^(aj) z2^(b(L-j)) + ... + g_L z1^(aL) - s:
    the compact edge between the two axes carries g(u) = sum g_j u^j, a
    square times a random factor (rational or irrational double root) or a
    random polynomial, possibly a binomial."""
    kind = rng.choice(("rational", "irrational", "random", "binomial"))
    if kind == "rational":
        r = random_nonzero_fraction(rng)
        g = _poly_mul([-r, 1], [-r, 1])
    elif kind == "irrational":
        g = _poly_mul([-2, 0, 1], [-2, 0, 1])
    elif kind == "random":
        g = [random_nonzero_fraction(rng)]
    else:
        g = [random_nonzero_fraction(rng)] + [0] * rng.randint(0, 3) + [1]
    while len(g) < 3 and kind != "binomial" or rng.random() < 0.3:
        g = _poly_mul(g, [random_nonzero_fraction(rng), random_nonzero_fraction(rng)])
    L = len(g) - 1
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    items = [((0, a * j, b * (L - j)), c) for j, c in enumerate(g)]
    items.append(((1, 0, 0), -1))
    return make_germ(3, items)


def _germs(rng):
    for _ in range(40):
        yield _planted_edge_germ(rng)
    for n in (1, 2, 3):
        for _ in range(8):
            yield random_deformation_germ(rng, n, max_exp=4,
                                          terms_count=rng.randint(2, 6))
            yield suspend_germ(random_convenient_germ(rng, n, max_exp=5,
                                                      extra_terms=3))


def test_edge_verdicts_match_the_dense_polynomial():
    rng = Random(20261018)
    kinds = Counter()
    for F in _germs(rng):
        S = support(F)
        for pts, dim in compact_faces(newton_polyhedron_facets(S, F.num_vars)):
            if dim != 1:
                continue
            got = _edge_verdict(F, pts)
            assert got == dense_edge_verdict(F, pts), (F, pts)
            kinds[len(pts) == 2, got.status, got.witness is None] += 1
    assert kinds[True, VERIFIED, True]            # binomials
    assert kinds[False, VERIFIED, True]           # 3 or more points
    assert kinds[False, COUNTEREXAMPLE, False]    # rational multiple zero
    assert kinds[False, COUNTEREXAMPLE, True]     # irrational multiple zero
    assert set(kinds) <= {(True, VERIFIED, True), (False, VERIFIED, True),
                          (False, COUNTEREXAMPLE, False),
                          (False, COUNTEREXAMPLE, True)}


def _edge_polynomials(rng):
    """(kind, g): dense random polynomials, one of them at the longest
    decided edge, and random linear factors times the squares of one to
    three rational roots, of a quartic with one rational root, or of
    u^2 - 2."""
    for _ in range(30):
        yield "random", [random_nonzero_fraction(rng)] + [
            random_nonzero_fraction(rng) if rng.random() < 0.7 else 0
            for _ in range(rng.randint(2, 24))] + [1]
    # small integers: the Fraction oracle takes seconds on a dense edge of
    # this length with p/q coefficients
    yield "random", [1] + [rng.randint(-2, 2) for _ in range(MAX_EDGE_LENGTH - 1)] + [1]
    for _ in range(20):
        g = [1]
        for _ in range(rng.randint(1, 3)):  # up to three double roots
            r = random_nonzero_fraction(rng)
            g = _poly_mul(g, _poly_mul([-r, 1], [-r, 1]))
        yield "rational", _random_multiple(rng, g)
    for _ in range(5):
        # h = (u - 1)(u^3 + u^2 + u + k) = u^4 + (k - 1)u - k: its Sturm chain
        # divides h' (degree 3) by -((3k - 3)u/4 - k), whose lead is negative,
        # in three steps, so the remainder's sign rests on that lead's sign
        k = rng.randint(2, 9)
        yield "rational", _random_multiple(rng, _poly_mul([-k, k - 1, 0, 0, 1],
                                                          [-k, k - 1, 0, 0, 1]))
    for _ in range(10):
        yield "irrational", _random_multiple(rng, _poly_mul([-2, 0, 1], [-2, 0, 1]))


def _random_multiple(rng, g):
    for _ in range(rng.randint(0, 12)):
        g = _poly_mul(g, [random_nonzero_fraction(rng), random_nonzero_fraction(rng)])
    return g


def test_integer_gcd_and_root_match_the_fraction_oracle():
    rng = Random(15)
    outcomes = Counter()
    for kind, g in _edge_polynomials(rng):
        g = [Fraction(c) for c in g]
        den = lcm(*(c.denominator for c in g))
        ig = [c.numerator * (den // c.denominator) for c in g]
        h, h0 = _poly_gcd(ig, _poly_deriv(ig)), fraction_poly_gcd(g, _poly_deriv(g))
        assert all(type(c) is int for c in h)
        assert len(h) == len(h0), (kind, g)
        root = _rational_root(h) if len(h) > 1 else None
        assert root == (fraction_rational_root(h0) if len(h0) > 1 else None), (kind, g)
        outcomes[kind, len(h) > 1, root is not None] += 1
    assert outcomes["random", False, False]       # squarefree
    assert outcomes["rational", True, True]       # rational double root found
    assert outcomes["irrational", True, False]    # (u^2 - 2)^2: no rational root
