"""Exact central-extension and second-cohomology toolkit for the
quasi-unitary Cayley-Klein families su_omega(N+1) and u_omega(N+1)."""

from .algebra import LieAlgebra, build_su_omega, build_u_omega, jacobi_residual
from .cochains import OneCochain, TwoCochain, pair_list
from .cohomology import (
    CohomologyResult,
    NotACocycleError,
    central_extension,
    coboundary_matrix,
    cocycle_system,
    delta,
    h2,
    is_coboundary,
)
from .extensions import (
    BasicCoefficients,
    ConstraintViolation,
    ExtensionClassification,
    appendix_violations,
    build_extended,
    classify,
    contract,
    dim_h2_formula,
    extension_cocycle,
    extract_basic,
    table_rows,
    trivializing_cochain,
    verify_theorem,
)
from .omega import OmegaVector, sign_vectors
from .realization import (
    ComplexMatrix,
    fundamental_matrices,
    isometry_defect,
    metric_matrix,
    representation_defects,
)
from .sparse import SparseMatrix, nullspace, rank, solve_many
from .structure import (
    SignedPermutation,
    cartan_generator,
    involution_automorphism,
    polarity_map,
    subalgebra_closure_check,
    translation_block_indices,
    transport_constants,
)

__version__ = "0.1.0"

__all__ = [
    "BasicCoefficients",
    "CohomologyResult",
    "ComplexMatrix",
    "ConstraintViolation",
    "ExtensionClassification",
    "LieAlgebra",
    "NotACocycleError",
    "OmegaVector",
    "OneCochain",
    "SignedPermutation",
    "SparseMatrix",
    "TwoCochain",
    "appendix_violations",
    "build_extended",
    "build_su_omega",
    "build_u_omega",
    "cartan_generator",
    "central_extension",
    "classify",
    "coboundary_matrix",
    "cocycle_system",
    "contract",
    "delta",
    "dim_h2_formula",
    "extension_cocycle",
    "extract_basic",
    "fundamental_matrices",
    "h2",
    "involution_automorphism",
    "is_coboundary",
    "isometry_defect",
    "jacobi_residual",
    "metric_matrix",
    "nullspace",
    "pair_list",
    "polarity_map",
    "rank",
    "representation_defects",
    "sign_vectors",
    "solve_many",
    "subalgebra_closure_check",
    "table_rows",
    "translation_block_indices",
    "transport_constants",
    "trivializing_cochain",
    "verify_theorem",
]
