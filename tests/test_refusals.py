"""Every refusal of the library's public functions, pinned by its message.

Each row is a call that must raise, the exception class and the exact
message; the command line's refusals are pinned in ``test_cli``."""

from fractions import Fraction

import pytest

from newtonzeta.diagram import (
    IdentityInapplicable,
    cayley_mixed_volume_identity,
    cone_reduction_identity,
    diagram_facets,
    euler_char_torus_hypersurface,
)
from newtonzeta.factored import factor, parse_factored
from newtonzeta.germ import GermSeries, parse_germ, pencil_germ, suspend_germ
from newtonzeta.lattice import (
    LatticePolytope,
    convex_hull,
    minimizing_face,
    minkowski_sum,
    mixed_volume,
    normalized_volume_at,
)
from newtonzeta.nondegeneracy import newton_polyhedron_facets

V3 = ["s", "z1", "z2"]
V4 = ["s", "z1", "z2", "z3"]
CUSP = parse_germ("z1^2+z2^3", V3)
(CUSP_FACET,) = diagram_facets(suspend_germ(CUSP), (0, 1, 2))
CUBIC = parse_germ("z1^3+z2^3+z3^3+z1*z2*z3", V4)
LINEAR = parse_germ("z1+z2+z3", V4)
(PENCIL_FACET,) = diagram_facets(pencil_germ(CUBIC, LINEAR), (0, 1, 2))
(AXIS_FACET,) = diagram_facets(suspend_germ(parse_germ("z1^2", V3)), (0, 1))
POINT = LatticePolytope.from_points([(0, 0)])
TRIANGLE = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)])


@pytest.mark.parametrize("call,error,message", [
    (lambda: diagram_facets(suspend_germ(CUSP), (0, 5)),
     ValueError, "index set out of range"),
    (lambda: cone_reduction_identity(CUSP, (0,), CUSP_FACET),
     IdentityInapplicable, "the identity concerns faces of dimension at least 1"),
    # z1*z2 has no point on the z1-axis
    (lambda: cone_reduction_identity(parse_germ("z1*z2", V3), (0, 1), AXIS_FACET),
     IdentityInapplicable, "the function germ has empty restricted support"),
    # f1 = z3 has no point in the (z1, z2)-plane
    (lambda: cayley_mixed_volume_identity(CUBIC, parse_germ("z3", V4), (0, 1, 2),
                                          PENCIL_FACET),
     IdentityInapplicable, "a base support is empty; the facet is not of hull type"),
    # a facet of the suspended cusp is not a Cayley hull of the pencil's bases
    (lambda: cayley_mixed_volume_identity(CUBIC, LINEAR, (0, 1, 2), CUSP_FACET),
     IdentityInapplicable, "facet is not the hull of the two base faces"),
    (lambda: euler_char_torus_hypersurface(LatticePolytope(((),), 0)),
     ValueError, "ambient dimension must be positive"),
    (lambda: convex_hull([]), ValueError, "convex_hull needs at least one point"),
    (lambda: convex_hull([(0, 0), (1,)]),
     ValueError, "points must share a positive ambient dimension"),
    (lambda: minimizing_face([], (1, 1)), ValueError, "empty point set"),
    (lambda: minimizing_face([(1, 0)], (1, 1, 1)),
     ValueError, "covector dimension mismatch"),
    (lambda: normalized_volume_at(POINT, -1),
     ValueError, "dimension must be nonnegative"),
    (lambda: normalized_volume_at(TRIANGLE, 1),
     ValueError, "polytope dimension exceeds the requested dimension"),
    (lambda: minkowski_sum(LatticePolytope.empty(2), POINT),
     ValueError, "Minkowski sum of an empty polytope"),
    (lambda: mixed_volume([]), ValueError, "need at least one body"),
    (lambda: mixed_volume([POINT, LatticePolytope.empty(2)]),
     ValueError, "mixed volume of an empty polytope"),
    (lambda: mixed_volume([POINT, LatticePolytope.from_points([(0, 0, 0)])]),
     ValueError, "ambient dimension mismatch"),
    (lambda: factor(2, 1).expand_series(-1), ValueError, "order must be nonnegative"),
    (lambda: parse_factored("x"), ValueError, "bad factored form at position 0: 'x'"),
    (lambda: GermSeries(2, {(1,): Fraction(1)}),
     ValueError, "exponent (1,) has wrong length"),
    (lambda: GermSeries(2, {(0, 1): Fraction(0)}), ValueError, "zero coefficient stored"),
    (lambda: newton_polyhedron_facets([], 2), ValueError, "empty support"),
])
def test_library_refusals(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert (type(refused.value), str(refused.value)) == (error, message)
