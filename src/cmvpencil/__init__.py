"""Reflection-coefficient pencils on the half line.

A linear pencil of two involutive block matrices built from reflection
coefficients, the tridiagonal recurrences it generates, the transform
calculus connecting them (Christoffel-type shifts, even/odd splits,
rescalings), closed-form weights with singularity-aware quadrature, the
Weyl functions of the constant-coefficient case, and an exact
reflection-differential operator whose eigenfunctions the two-interval
family provides.
"""

from .cmv import (
    BandedMatrix,
    BandedSymmetricMatrix,
    TruncationSpec,
    banded_product,
    build_H,
    build_J,
    build_K,
    build_L,
    build_M,
    eigenvalue_counts,
    tridiagonal_eigenvalues,
    verify_identities,
)
from .dunkl import (
    DunklReport,
    PolynomialCoeffs,
    apply_dunkl,
    dunkl_eigenvalue,
    fourth_kind_coeffs,
    fourth_kind_identity_residual,
    third_kind_coeffs,
    third_kind_identity_residual,
    verify_eigenfunction,
)
from .errors import (
    BandEdgeError,
    CmvPencilError,
    InstabilityError,
    InternalConsistencyError,
    InvalidParameterError,
    NonConvergenceError,
    OperatorImageError,
    PolePointError,
    ReflectionBoundError,
    TruncationError,
)
from .maps import (
    BigM1Parameters,
    ChiharaSplit,
    ChristoffelData,
    big_m1_parameters,
    big_m1_recurrence,
    chihara_split,
    christoffel,
    companion_eval_from_circle,
    dg_eval_from_circle,
    lambda_reduction,
    little_m1_recurrence,
    reflect_map,
    scale_map,
    sdg_eval_from_circle,
)
from .measures import (
    Measure,
    discretize,
    essential_spectrum_periodic,
    gram,
    integrate,
    m_full,
    m_per,
    named_weight,
    periodic_weight_verbatim,
    stieltjes_perron_density,
    stieltjes_recurrence,
    validate_periodic_density,
)
from .recurrences import (
    CirclePoint,
    MonicThreeTerm,
    ReflectionSequence,
    chebyshev_closed_form,
    companion_symmetric_recurrence,
    dg_symmetric_recurrence,
    eval_monic,
    jacobi_opuc_reflections,
    pencil_recurrence,
    reflections_from_u,
    sdg_recurrence,
    szego_eval,
)
from .verify import SUITES, CheckResult, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # recurrences
    "ReflectionSequence",
    "MonicThreeTerm",
    "CirclePoint",
    "jacobi_opuc_reflections",
    "pencil_recurrence",
    "sdg_recurrence",
    "dg_symmetric_recurrence",
    "companion_symmetric_recurrence",
    "eval_monic",
    "szego_eval",
    "reflections_from_u",
    "chebyshev_closed_form",
    # pencil matrices
    "TruncationSpec",
    "BandedMatrix",
    "BandedSymmetricMatrix",
    "banded_product",
    "build_L",
    "build_M",
    "build_J",
    "build_K",
    "build_H",
    "verify_identities",
    "tridiagonal_eigenvalues",
    "eigenvalue_counts",
    # transform calculus
    "ChristoffelData",
    "ChiharaSplit",
    "BigM1Parameters",
    "christoffel",
    "lambda_reduction",
    "chihara_split",
    "scale_map",
    "reflect_map",
    "big_m1_recurrence",
    "little_m1_recurrence",
    "big_m1_parameters",
    "dg_eval_from_circle",
    "sdg_eval_from_circle",
    "companion_eval_from_circle",
    # measures and Weyl functions
    "Measure",
    "named_weight",
    "discretize",
    "integrate",
    "gram",
    "stieltjes_recurrence",
    "essential_spectrum_periodic",
    "m_per",
    "m_full",
    "stieltjes_perron_density",
    "periodic_weight_verbatim",
    "validate_periodic_density",
    # reflection-differential operator
    "PolynomialCoeffs",
    "DunklReport",
    "apply_dunkl",
    "dunkl_eigenvalue",
    "verify_eigenfunction",
    "third_kind_coeffs",
    "fourth_kind_coeffs",
    "third_kind_identity_residual",
    "fourth_kind_identity_residual",
    # verification
    "CheckResult",
    "SUITES",
    "run_suite",
    "run_all",
    # errors
    "CmvPencilError",
    "InvalidParameterError",
    "ReflectionBoundError",
    "TruncationError",
    "PolePointError",
    "InstabilityError",
    "NonConvergenceError",
    "InternalConsistencyError",
    "OperatorImageError",
    "BandEdgeError",
]
