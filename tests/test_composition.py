"""The zeta functions of composed germs against two composition relations,
neither of which is Varchenko's sum: the Thom-Sebastiani join of germs in
disjoint variables (``helpers.join_zeta``) and the base change s -> s^k
(``helpers.base_change_zeta``).  They reach zeta values at four to eight
z-variables, with diagram facets that are not simplices, from small germs
whose zeta functions the package computes on its own."""

import random
from collections import Counter

from helpers import (
    base_change_zeta,
    join_germ,
    join_zeta,
    random_convenient_germ,
    random_deformation_germ,
    random_quasi_homogeneous_germ,
    random_weighted_homogeneous_germ,
    stretch_germ,
)
from newtonzeta.diagram import zeta_classical, zeta_full, zeta_torus
from newtonzeta.germ import suspend_germ
from newtonzeta.nondegeneracy import COUNTEREXAMPLE, nondegeneracy_check


def _z_germ(rng, n):
    # seven in ten weighted-homogeneous with monomials inside their one
    # facet, whose volume the pulling triangulation gives
    if rng.random() < 0.7:
        return random_weighted_homogeneous_germ(rng, n)
    return random_convenient_germ(rng, n, max_exp=5, extra_terms=2)


def test_joins_and_base_changes_give_the_composed_zeta_functions():
    """The join of 150 seeded pairs f, g of one to four z-variables each,
    and the stretch by k = 2..6 of 300 seeded deformations, random or
    quasi-homogeneous; a germ whose check finds a counterexample is
    skipped, since the formula assumes nondegeneracy."""
    rng = random.Random(1971)
    seen = Counter()
    for _ in range(150):
        f, g = _z_germ(rng, rng.randint(1, 4)), _z_germ(rng, rng.randint(1, 4))
        h = join_germ(f, g)
        if nondegeneracy_check(suspend_germ(h)).status == COUNTEREXAMPLE:
            seen["skipped"] += 1
            continue
        assert zeta_classical(h) == join_zeta(zeta_classical(f), zeta_classical(g)), (f, g)
        seen["join n >= 6"] += h.num_vars > 6
    for _ in range(300):
        if rng.random() < 0.5:
            F = random_deformation_germ(rng, rng.randint(1, 4))
        else:
            F, _ = random_quasi_homogeneous_germ(rng, rng.randint(1, 3))
        if nondegeneracy_check(F).status == COUNTEREXAMPLE:
            seen["skipped"] += 1
            continue
        k = rng.randint(2, 6)
        G = stretch_germ(F, k)
        assert zeta_torus(G) == base_change_zeta(zeta_torus(F), k), (F, k)
        assert zeta_full(G) == base_change_zeta(zeta_full(F), k), (F, k)
        seen["stretched"] += 1
    assert seen["join n >= 6"] > 30
    assert seen["stretched"] > 250
