"""The zeta functions of quasi-homogeneous deformations against A'Campo's
formula for their periodic monodromy (``helpers.quasi_homogeneous_zeta``),
which reads the Newton polytopes of F(1, .) on the coordinate tori and no
Newton polyhedron or diagram of F."""

import random
from collections import Counter

from helpers import quasi_homogeneous_zeta, random_quasi_homogeneous_germ
from newtonzeta.diagram import zeta_full, zeta_torus
from newtonzeta.germ import parse_germ
from newtonzeta.nondegeneracy import COUNTEREXAMPLE, nondegeneracy_check


def test_zeta_functions_equal_the_periodic_monodromy_oracle():
    """``zeta_torus`` and ``zeta_full`` equal the oracle on 300 seeded
    germs with one to three z-variables, convenient or not; a germ whose
    check finds a counterexample is skipped, since the formula assumes
    nondegeneracy, and one such germ, the double line (z1 - z2)^2 less s^2,
    is added to show that it is."""
    rng = random.Random(2037)
    germs = [random_quasi_homogeneous_germ(rng, rng.randint(1, 3)) for _ in range(300)]
    germs.append((parse_germ("z1^2 - 2*z1*z2 + z2^2 - s^2", ["s", "z1", "z2"]), (1, 1, 1)))
    seen = Counter()
    for F, weights in germs:
        if nondegeneracy_check(F).status == COUNTEREXAMPLE:
            seen["skipped"] += 1
            continue
        torus, affine = quasi_homogeneous_zeta(F, weights)
        assert zeta_torus(F) == torus, (F, weights)
        assert zeta_full(F) == affine, (F, weights)
        seen["n", F.num_vars - 1] += 1
        seen["torus", torus.factors != ()] += 1
        seen["pure s term", not all(map(any, (e[1:] for e in F.terms)))] += 1
    assert seen["skipped"] >= 1
    assert sum(seen["n", n] for n in (1, 2, 3)) == len(germs) - seen["skipped"]
    assert min(seen["n", n] for n in (1, 2, 3)) > 60
    assert min(seen[key, flag] for key in ("torus", "pure s term")
               for flag in (False, True)) > 50
