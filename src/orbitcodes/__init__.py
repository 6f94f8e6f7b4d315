"""Exact-arithmetic workbench for evaluation codes on affine-group orbits.

Builds translation/scaling subgroup pairs inside AGL(1, F), the coset
bipartite graph they induce, and the polynomial evaluation code whose
local views are Reed-Solomon; verifies spectral, rate and distance claims
against independent oracles at desk scale.
"""

from orbitcodes.errors import (
    BudgetError,
    ConfigurationError,
    ConstraintViolation,
    InternalError,
    OrbitcodesError,
    ParameterError,
)
from orbitcodes.gf import (
    FieldContext,
    FieldElement,
    FpSubspace,
    build_field,
    char_exponent,
    dual_subspace,
    trace,
)
from orbitcodes.polyring import (
    MINUS_INFINITY,
    Poly,
    lagrange_interpolate,
    translation_invariant_poly,
)
from orbitcodes.groupgeom import (
    GroupA,
    ScalingGroup,
    TranslationGroup,
    find_free_point,
    orbit,
    roots_of_linearized,
    scaling_closure,
    scaling_subgroup,
)
from orbitcodes.cosetgraph import (
    CosetGraph,
    SpectralReport,
    build_graph,
    char_sum_max,
    sigma2_exact,
    sigma2_svd,
    spectral_bounds,
)
from orbitcodes.codecore import (
    CodeParams,
    DistanceResult,
    MessageSpace,
    check_local_rs,
    encode,
    message_space,
    min_distance_exhaustive,
    monomial_count,
    schur_check,
    weight_closed_form,
)
from orbitcodes.bounds import (
    counting_baseline,
    distance_bounds,
    rate_lower_bound,
    volume_i,
    volume_ii,
    volume_monte_carlo,
)
from orbitcodes.instance import Instance, InstanceConfig, build_instance

__version__ = "0.1.0"
