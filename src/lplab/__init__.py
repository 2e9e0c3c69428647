"""Numerical laboratory for Cesaro-mean extraction in discretized L^p spaces.

Discretizes function spaces on weighted quadrature grids, generates canonical
weakly convergent (and deliberately divergent) sequences, runs constructive
subsequence extractions whose arithmetic means converge strongly, and
verifies liminf inequalities for integrals of convex compositions.
"""

from .errors import (
    ConfigError,
    DomainViolationError,
    ExtractionStalledError,
    GridMismatchError,
    InternalConsistencyError,
    InvalidArgumentError,
    LabError,
    LevelStalledError,
    PoolBudgetError,
    PreconditionViolationError,
)
from .grid import (
    QuadratureGrid,
    RegionMask,
    ScalarField,
    VectorField,
    build_uniform_grid,
    integrate,
    truncate_region,
)
from .norms import (
    INFINITY,
    conjugate_exponent,
    dual_pairing,
    holder_minkowski_check,
    lp_norm,
    product_lp_norm,
)
from .gallery import (
    CONSTANT,
    CONVERGING,
    CUSTOM,
    INCONCLUSIVE,
    NOT_CONVERGING,
    OSCILLATORY,
    RADEMACHER,
    SPIKE,
    ProbeReport,
    SequenceSpec,
    VectorSequenceSpec,
    default_probe_dictionary,
    generate,
    generate_vector,
    member_pool,
    weak_probe,
    weak_star_probe,
)
from .extraction import (
    ExtractionTrace,
    GrowthBoundReport,
    InequalityConstants,
    SzlenkSchedule,
    banach_saks_extract,
    cesaro_curve,
    check_pointwise_inequality,
    decay_rate_fit,
    estimate_a_constant,
    floor_exponent,
    generalized_binomial,
    remainder_term,
    szlenk_extract,
    verify_growth_bound,
)
from .convexity import (
    BALL,
    BOX,
    HALFSPACES,
    MAX_AFFINE,
    POWER,
    SQUARED_NORM,
    WHOLE_SPACE,
    CesaroReplay,
    ConvexFunctionSpec,
    ConvexSetSpec,
    LiminfReport,
    WeakStarReport,
    evaluate_composite,
    jensen_check,
    liminf_verify,
    mazur_scenario_verify,
    weak_star_verify,
)

__version__ = "0.1.0"
