"""Monodromy zeta functions of one-parameter deformations of hypersurface
germs, computed from their Newton diagrams with exact lattice geometry."""

from .diagram import (
    DiagramFacet,
    IdentityInapplicable,
    cayley_mixed_volume_identity,
    cone_reduction_identity,
    diagram_facets,
    euler_char_torus_hypersurface,
    zeta_classical,
    zeta_full,
    zeta_torus,
)
from .factored import FactoredZeta, factor, one, parse_factored, product
from .germ import (
    GermSeries,
    ParseError,
    germ_from_json,
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
from .lattice import (
    LatticePolytope,
    convex_hull,
    minkowski_sum,
    mixed_volume,
    normalized_volume,
    normalized_volume_at,
    primitive,
    saturation_basis,
    smith_normal_form,
)
from .nondegeneracy import (
    COUNTEREXAMPLE,
    UNCHECKED,
    VERIFIED,
    FaceVerdict,
    NondegeneracyReport,
    nondegeneracy_check,
)

__version__ = "0.9.0"
