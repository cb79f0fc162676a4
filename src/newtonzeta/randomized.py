"""Seeded randomized consistency suites for the reduction identities.

These drive the two volume identities (cone reduction and Cayley/mixed
volume) over streams of random germs; each suite returns the document
that ``oracle-compare --seed`` prints for it, and the test suite pins
them as acceptance criteria.  Every index set of a germ is read off its
one Newton polyhedron (``diagram._index_set_facets``).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .diagram import (
    IdentityInapplicable,
    cayley_mixed_volume_identity,
    cone_reduction_identity,
    _index_set_facets,
)
from .germ import GermSeries, make_germ, pencil_germ, suspend_germ


def random_nonzero_fraction(rng) -> Fraction:
    num = rng.choice([x for x in range(-7, 8) if x])
    return Fraction(num, rng.randint(1, 7))


def random_convenient_germ(rng, n, max_exp=8, extra_terms=3) -> GermSeries:
    """Random germ in the z-variables whose diagram meets every axis."""
    terms = {}
    for i in range(1, n + 1):
        e = [0] * (n + 1)
        e[i] = rng.randint(1, max_exp)
        terms[tuple(e)] = random_nonzero_fraction(rng)
    for _ in range(extra_terms):
        e = [0] + [rng.randint(0, max_exp) for _ in range(n)]
        if any(e) and tuple(e) not in terms:
            terms[tuple(e)] = random_nonzero_fraction(rng)
    return make_germ(n + 1, terms.items())


def random_z_germ(rng, n, max_exp=4, max_terms=3) -> GermSeries:
    """Random germ in the z-variables only (not necessarily convenient)."""
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, max_terms)):
            e = [0] + [rng.randint(0, max_exp) for _ in range(n)]
            if any(e):
                terms[tuple(e)] = random_nonzero_fraction(rng)
    return make_germ(n + 1, terms.items())


def _checks(F, identity, min_size):
    # every index set with at least min_size elements, off one polyhedron
    for I, facets in _index_set_facets(F).items():
        if len(I) >= min_size:
            for facet in facets:
                try:
                    ok, note = identity(I, facet), ""
                except IdentityInapplicable as exc:
                    ok, note = None, str(exc)
                yield I, facet, ok, note


def cone_checks(f: GermSeries):
    """``(I, facet, ok, note)`` for every diagram facet of F = f - sigma
    over the index sets with |I| >= 2: ``ok`` is the cone reduction's
    verdict, or None with the reason as ``note`` when it does not apply."""
    return _checks(suspend_germ(f), lambda I, facet:
                   cone_reduction_identity(f, I, facet), 2)


def cayley_checks(f0: GermSeries, f1: GermSeries):
    """``(I, facet, ok, note)`` for every diagram facet of F = f0 - sigma*f1
    over the index sets with |I| >= 3, as ``cone_checks`` does for the
    Cayley/mixed-volume reduction."""
    return _checks(pencil_germ(f0, f1), lambda I, facet:
                   cayley_mixed_volume_identity(f0, f1, I, facet), 3)


def _suite(name, cases):
    """The suite's document: one failure line per facet whose check failed
    or did not apply."""
    doc = {"suite": name, "cases": 0, "facets_checked": 0, "failures": []}
    for checks in cases:
        doc["cases"] += 1
        for I, facet, ok, note in checks:
            doc["facets_checked"] += 1
            if not ok:
                doc["failures"].append(f"I={I} facet {facet.normal}: "
                                       f"{note or 'volumes or exponents disagree'}")
    doc["passed"] = not doc["failures"]
    return doc


def cone_suite(seed: int) -> dict:
    """Check the cone reduction on every facet of 100 random convenient
    suspensions, n <= 3."""
    rng = random.Random(seed)
    return _suite("cone reduction suite", [
        cone_checks(random_convenient_germ(rng, rng.randint(1, 3)))
        for _ in range(100)])


def cayley_suite(seed: int) -> dict:
    """Check the Cayley/mixed-volume reduction on faces of dimension 2 and 3
    of 50 random pencils f0 - sigma*f1, n in {2, 3}."""
    rng = random.Random(seed)
    cases = []
    for _ in range(50):
        n = rng.randint(2, 3)
        f0 = random_convenient_germ(rng, n, max_exp=5, extra_terms=2)
        # f1 is a monomial in three cases of ten
        f1 = random_z_germ(rng, n, max_exp=2, max_terms=1 if rng.random() < 0.3 else 2)
        cases.append(cayley_checks(f0, f1))
    return _suite("cayley mixed-volume suite", cases)
