"""Every refusal of the library's public functions, pinned by its message.

Each row is a call that must raise, the exception class and the exact
message; the command line's refusals are pinned in ``test_cli``.  The
records and polyhedra that rows hand in are built inside the rows, so a
defect in building one fails the rows that use it, never the module."""

from fractions import Fraction

import pytest

from newtonzeta.diagram import (
    IdentityInapplicable,
    cayley_mixed_volume_identity,
    cone_reduction_identity,
    diagram_facets,
    euler_char_torus_hypersurface,
)
from newtonzeta.factored import FactoredZeta, factor, parse_factored
from newtonzeta.germ import (
    GermSeries,
    check_z_variables,
    germ_to_json,
    germ_to_string,
    index_sets_with_zero,
    make_germ,
    parse_germ,
    pencil_germ,
    restrict_support,
    support,
    suspend_germ,
)
from newtonzeta.lattice import (
    DiagramFacet,
    LatticePolytope,
    convex_hull,
    coords_in_basis,
    int_det,
    minkowski_sum,
    mixed_volume,
    newton_polyhedron_facets,
    normalized_volume,
    normalized_volume_at,
    smith_normal_form,
)

V3 = ["s", "z1", "z2"]
V4 = ["s", "z1", "z2", "z3"]
CUSP = parse_germ("z1^2+z2^3", V3)
CUBIC = parse_germ("z1^3+z2^3+z3^3+z1*z2*z3", V4)
LINEAR = parse_germ("z1+z2+z3", V4)
POINT = LatticePolytope.from_points([(0, 0)])
TRIANGLE = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)])
NOT_INT = "'%s' object cannot be interpreted as an integer"


def _facet(F, I):
    """The one diagram facet of ``F`` on ``I``."""
    (facet,) = diagram_facets(F, I)
    return facet


@pytest.mark.parametrize("call,error,message", [
    (lambda: diagram_facets(suspend_germ(CUSP), (0, 5)),
     ValueError, "index set out of range"),
    # the range is checked first: a negative index is out of range, even
    # in a set that holds 0
    *[pytest.param(lambda call=call, I=I: call(suspend_germ(CUSP), I), ValueError,
                   message, id=f"ValueError-{call.__name__}-{I}")
      for call, I, message in [(diagram_facets, (0, -1), "index set out of range"),
                               (diagram_facets, (1, 2), "index set must contain 0")]],
    (lambda: cone_reduction_identity(CUSP, (0,), _facet(suspend_germ(CUSP), (0, 1, 2))),
     IdentityInapplicable, "the identity concerns faces of dimension at least 1"),
    # z1*z2 has no point on the z1-axis
    (lambda: cone_reduction_identity(parse_germ("z1*z2", V3), (0, 1),
                                     _facet(suspend_germ(parse_germ("z1^2", V3)), (0, 1))),
     IdentityInapplicable, "the function germ has empty restricted support"),
    # f1 = z3 has no point in the (z1, z2)-plane
    # a hand-built record with the deformation apex whose normal has one
    # entry too many for the index set
    (lambda: cone_reduction_identity(CUSP, (0, 1),
                                     DiagramFacet((2, 1, 1), 2, ((0, 2), (1, 0)), 1)),
     ValueError, "covector dimension mismatch"),
    (lambda: cayley_mixed_volume_identity(CUBIC, parse_germ("z3", V4), (0, 1, 2),
                                          _facet(pencil_germ(CUBIC, LINEAR), (0, 1, 2))),
     IdentityInapplicable, "a base support is empty; the facet is not of hull type"),
    # a facet of the suspended cusp is not a Cayley hull of the pencil's bases
    (lambda: cayley_mixed_volume_identity(CUBIC, LINEAR, (0, 1, 2),
                                          _facet(suspend_germ(CUSP), (0, 1, 2))),
     IdentityInapplicable, "facet is not the hull of the two base faces"),
    (lambda: euler_char_torus_hypersurface(LatticePolytope(((),))),
     ValueError, "ambient dimension must be positive"),
    (lambda: convex_hull([]), ValueError, "convex_hull needs at least one point"),
    (lambda: convex_hull([(0, 0), (1,)]),
     ValueError, "points must share a positive ambient dimension"),
    (lambda: normalized_volume_at(POINT, -1),
     ValueError, "dimension must be nonnegative"),
    (lambda: normalized_volume_at(TRIANGLE, 1),
     ValueError, "polytope dimension exceeds the requested dimension"),
    (lambda: LatticePolytope(()), ValueError, "a polytope needs at least one vertex"),
    # an empty polytope never reaches a Minkowski sum or a mixed volume:
    # it is refused when it is built
    pytest.param(lambda: minkowski_sum(LatticePolytope(()), POINT),
                 ValueError, "a polytope needs at least one vertex",
                 id="<lambda>-ValueError-Minkowski sum of an empty polytope"),
    (lambda: mixed_volume([]), ValueError, "need at least one body"),
    pytest.param(lambda: mixed_volume([POINT, LatticePolytope(())]),
                 ValueError, "a polytope needs at least one vertex",
                 id="<lambda>-ValueError-mixed volume of an empty polytope"),
    (lambda: mixed_volume([POINT, LatticePolytope.from_points([(0, 0, 0)])]),
     ValueError, "ambient dimension mismatch"),
    # the command line refuses this pair first, with its own message
    (lambda: pencil_germ(CUSP, parse_germ("z1^3", ["s", "z1"])),
     ValueError, "germs live in different variable counts"),
    # a negative count of z-variables, not a negative shift
    (lambda: index_sets_with_zero(-1),
     ValueError, "n = -1 z-variables: the count cannot be negative"),
    # only what pretty() writes is read; the empty product is written "1",
    # never as blank text
    *[pytest.param(lambda text=text: parse_factored(text), ValueError,
                   f"not a factored form as pretty() writes it: {text!r}",
                   id=f"ValueError-parse_factored-{text!r}")
      for text in ["x", "", "   "]],
    # only a factored form multiplies a factored form
    # the base of zeta_torus(z1^(10^18) + z2^3 - s): trial division up to
    # its square root would take minutes
    (lambda: (factor(2) * factor(3 * 10 ** 18)).cyclotomic_signature(), ValueError,
     "base 3000000000000000000 is above 10^12, too large to factor by trial division"),
    (lambda: factor(2) * 3, TypeError,
     "unsupported operand type(s) for *: 'FactoredZeta' and 'int'"),
    # a factor list that no constructor makes: unsorted, m = 0, a float m,
    # e = 0, a list
    *[pytest.param(lambda factors=factors: FactoredZeta(factors), ValueError,
                   "factors must be int pairs (m, e), m > 0 rising, e != 0",
                   id=f"ValueError-FactoredZeta-{factors}")
      for factors in [((2, 1), (1, 1)), ((0, 2),), ((2.5, 1),), ((1, 0),),
                      ((1, 1), (1, 2)), ((1, 1, 1),), [(1, 1)]]],
    (lambda: GermSeries(2, {(1,): Fraction(1)}),
     ValueError, "exponent (1,) has wrong length"),
    (lambda: GermSeries(2, {(0, 1): Fraction(0)}), ValueError, "zero coefficient stored"),
    (lambda: newton_polyhedron_facets([], 2), ValueError, "empty support"),
    # vectors of unequal length are refused, never truncated to the shorter
    *[pytest.param(call, ValueError, message, id=f"ValueError-{name}-{case}")
      for name, case, message, call in [
          ("coords_in_basis", "vector longer than the basis rows",
           "basis rows and vector differ in length",
           lambda: coords_in_basis([(1, 0)], (1, 0, 5))),
          ("coords_in_basis", "basis rows of two lengths",
           "basis rows and vector differ in length",
           lambda: coords_in_basis([(1, 0), (0, 1, 3)], (1, 1))),
          # a matrix whose rows are not as long as it is tall
          *[("int_det", case, "matrix is not square", lambda rows=rows: int_det(rows))
            for case, rows in [("two rows of three", [[1, 2, 3], [4, 5, 6]]),
                               ("three rows of two", [[1, 2], [3, 4], [5, 6]]),
                               ("one empty row", [[]]),
                               ("a long second row", [[1], [2, 3]]),
                               ("a short second row", [[1, 2], [3]])]],
          ("newton_polyhedron_facets", "points in Z^3",
           "support points must have 2 coordinates",
           lambda: newton_polyhedron_facets([(1, 0, 0), (0, 1, 0)], 2)),
          ("newton_polyhedron_facets", "points of two lengths",
           "support points must have 2 coordinates",
           lambda: newton_polyhedron_facets([(1, 0), (0,)], 2)),
          # one name per variable, or the rendering would not read back
          ("germ_to_string", "one name for three variables",
           "expected 3 variable names, got 1",
           lambda: germ_to_string(suspend_germ(CUSP), ["s"])),
          ("germ_to_string", "four names for three variables",
           "expected 3 variable names, got 4",
           lambda: germ_to_string(suspend_germ(CUSP), ["s", "a", "b", "c"])),
          ("germ_to_json", "one name for three variables",
           "expected 3 variable names, got 1",
           lambda: germ_to_json(suspend_germ(CUSP), ["s"])),
          # names the grammar would not read back as the same germ
          *[(name, case, message, lambda printer=printer, names=names:
             printer(suspend_germ(CUSP), names))
            for name, printer in [("germ_to_string", germ_to_string),
                                  ("germ_to_json", germ_to_json)]
            for case, names, message in [
                ("a name that is two tokens", ["s", "z 1", "z1"],
                 "variable name 'z 1' is not a name the germ grammar reads"),
                ("a repeated name", ["s", "z1", "z1"], "duplicate variable names")]],
      ]],
    # a non-integer is refused, never truncated to the integer below it
    *[pytest.param(call, TypeError, NOT_INT % kind, id=f"TypeError-{name}")
      for name, kind, call in [
          ("convex_hull", "float", lambda: convex_hull([(0.5, 0), (2, 0), (0, 2)])),
          ("int_det", "Fraction", lambda: int_det([[Fraction(1, 2), 0], [0, 2]])),
          ("smith_normal_form", "Fraction",
           lambda: smith_normal_form([[Fraction(3, 2), 1]])),
          ("newton_polyhedron_facets", "float",
           lambda: newton_polyhedron_facets([(1.5, 0), (0, 2)], 2)),
          ("make_germ", "float",
           lambda: make_germ(3, [((0, 1.5, 0), 1), ((1, 0, 0), -1)])),
          # a variable count too, never stored to fail deep in a shift
          ("make_germ-count", "float",
           lambda: make_germ(3.0, [((0, 1, 0), 1), ((1, 0, 0), -1)])),
          ("check_z_variables", "float", lambda: check_z_variables(2.5)),
          ("index_sets_with_zero", "float", lambda: index_sets_with_zero(2.0)),
          ("GermSeries", "float", lambda: GermSeries(
              3, {(0, 1.5, 0): Fraction(1), (1, 0, 0): Fraction(-1)})),
          # a float coefficient is refused too, never rounded to the
          # Fraction nearest it, nor stored to fail later or print as "2.0"
          ("make_germ-coefficient", "float", lambda: make_germ(
              2, [((0, 2), 0.1), ((1, 1), -0.2), ((2, 0), 0.1)])),
          ("GermSeries-coefficient", "float", lambda: GermSeries(
              2, {(0, 2): 1.0, (1, 1): -2.0, (2, 0): 1.0})),
          ("restrict_support", "float",
           lambda: restrict_support(support(CUSP), (0, 1.5))),
          ("_normalize_index_set", "float",
           lambda: diagram_facets(suspend_germ(CUSP), (0, 1.5))),
          ("factor", "float", lambda: factor(2.5)),
          ("factor-string", "str", lambda: factor("3")),
          ("FactoredZeta.__pow__", "float", lambda: factor(2) ** 1.5),
          ("LatticePolytope", "Fraction",
           lambda: LatticePolytope(((0, 0), (Fraction(1, 2), 1)))),
          ("normalized_volume", "float",
           lambda: normalized_volume(LatticePolytope(((0.5, 0),)))),
          ("mixed_volume", "float", lambda: mixed_volume(
              [LatticePolytope(((0.5, 0),)), LatticePolytope(((0.25, 1),))])),
      ]],
])
def test_library_refusals(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert (type(refused.value), str(refused.value)) == (error, message)
