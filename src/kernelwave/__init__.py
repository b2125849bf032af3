"""kernelwave: universal transition kernels of polynomial contour type.

Evaluates extended Airy / quartic ("Pearcey") / sine kernels and the two
one-sided stationary kernels they converge to, by adaptive complex contour
quadrature with two independent contour geometries ("direct" and "saddle").
Computes the complete asymptotic expansions of the rescaled kernels around
their limits, including closed-form leading fluctuation terms, and verifies
the predicted decay rates by residual slope studies.

Public surface
--------------
``quadrature``  contour primitives and adaptive Gauss--Legendre integration
``phase``       polynomial phases, saddles, steepest paths, branch maps
``kernels``     kernel evaluation, rescaled left-hand sides, exact relations
``cseries``     truncated power-series arithmetic in one and two variables
``expansion``   amplitude coefficients, Gaussian moments, partial sums
``verify``      residual rate studies, slope windows, backend cross-checks
``cli``         command-line front end (``kernelwave`` console script)
"""

from __future__ import annotations

from .cseries import (
    BranchError,
    DegenerateSaddleError,
    SeriesUsageError,
    SingularSeriesError,
    TruncatedSeries1,
    TruncatedSeries2,
    conjugate_coeffs,
    solve_branch,
)
from .expansion import (
    TRANSITIONS,
    ExpansionCoefficients,
    GaussMoments,
    airy_c00,
    build_amplitudes,
    coefficients_to_json,
    correction_term,
    expansion_partial_sum,
    fluc_s1,
    fluc_s2,
    gauss_moment_B,
    gauss_moment_C,
    gauss_moments,
    symmetry_starred_b,
    symmetry_starred_c,
)
from .kernels import (
    KERNEL_NAMES,
    KernelQuery,
    KernelValue,
    eval_kernel,
    eval_kernels,
    heat_term,
    relation_connS,
    relation_connSS,
    rescaled_airy_lhs,
    rescaled_pearcey_lhs,
    transition_interpolation_check,
)
from .phase import (
    BranchPath,
    PathPolyline,
    PhaseSpec,
    airy_branch_paths,
    export_level_curve,
    make_branch_path,
    make_phase,
    pearcey_branch_paths,
    trace_steepest,
)
from .quadrature import (
    AccuracyWarning,
    Contour,
    GeometryError,
    QuadOptions,
    Ray,
    StraightArc,
    integrate_double,
    integrate_single,
    refine_panels,
    truncate_rays,
)
from .verify import (
    ACCEPTANCE_WINDOWS,
    DEFAULT_A_GRID,
    DEFAULT_STUDY_POINTS,
    CrossCheckReport,
    CrossCheckRow,
    PrecisionError,
    RateFitError,
    ResidualTable,
    check_windows,
    cross_validate,
    fit_loglog_slope,
    residual_study,
    table_summary_json,
    table_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # quadrature
    "GeometryError", "AccuracyWarning", "QuadOptions", "StraightArc", "Ray",
    "Contour", "truncate_rays", "refine_panels", "integrate_single",
    "integrate_double",
    # phase
    "PhaseSpec", "make_phase", "PathPolyline", "trace_steepest",
    "export_level_curve", "BranchPath", "make_branch_path",
    "airy_branch_paths", "pearcey_branch_paths",
    # kernels
    "KERNEL_NAMES", "KernelQuery", "KernelValue", "heat_term", "eval_kernel",
    "eval_kernels", "rescaled_airy_lhs", "rescaled_pearcey_lhs", "relation_connS",
    "relation_connSS", "transition_interpolation_check",
    # series
    "SeriesUsageError", "SingularSeriesError", "BranchError",
    "DegenerateSaddleError", "TruncatedSeries1", "TruncatedSeries2",
    "conjugate_coeffs", "solve_branch",
    # expansion
    "TRANSITIONS", "ExpansionCoefficients", "GaussMoments", "gauss_moment_B",
    "gauss_moment_C", "gauss_moments", "build_amplitudes",
    "symmetry_starred_b", "symmetry_starred_c", "airy_c00", "fluc_s1",
    "fluc_s2", "correction_term", "expansion_partial_sum",
    "coefficients_to_json",
    # verify
    "RateFitError", "PrecisionError", "ResidualTable", "ACCEPTANCE_WINDOWS",
    "DEFAULT_A_GRID", "DEFAULT_STUDY_POINTS", "fit_loglog_slope",
    "residual_study", "check_windows", "table_to_csv", "table_summary_json",
    "CrossCheckRow", "CrossCheckReport", "cross_validate",
]
