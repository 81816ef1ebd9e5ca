"""opuckit: orthogonal polynomials on the unit circle, Muckenhoupt weights,
Szego functions, Aleksandrov-Clark measures, and weighted Riesz projections,
with a reproducible desk-scale experiment suite."""

__version__ = "0.1.0"

from .grid import (
    CircleGrid,
    GridFunction,
    MomentSequence,
    band_project,
    conjugate_function,
    mean,
    riesz_project,
    trig_moments,
)
from .weights import (
    ARC_KINDS,
    ApReport,
    Weight,
    ap_characteristic,
    arc_lengths,
    bmo_norm,
    bmo_norm_bruteforce,
    fh_a2_exact,
    fh_subarc_product,
    make_weight,
    poisson_characteristics,
    renormalized,
    resample,
)
from .opuc import (
    OPUCSystem,
    RecursionBreakdownError,
    cd_kernel,
    gram_matrix,
    gram_schmidt_monic,
    phi_values,
    poly_eval,
    poly_values,
    projection_norm_probe,
    second_kind,
    steklov_norms,
    system_from_weight,
    szego_recursion,
    weighted_lp_norm,
)
from .szego import (
    SzegoData,
    entropy,
    entropy_limit_target,
    estimate_qcr,
    strong_szego_error,
    szego_function,
)
from .clark import (
    ClarkData,
    caratheodory_boundary,
    clark_weight,
    generalized_entropy,
    schur_from_caratheodory,
)
from .operators import (
    NormEstimate,
    OperatorProbe,
    build_Q,
    compress_band,
    continuity_experiment,
    materialize_band,
    operator_norm,
    power_method_lp,
    probe_difference,
    weighted_riesz,
)
from .fits import classify_growth, fit_loglog, threshold_intercept
