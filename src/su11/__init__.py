"""Holomorphic discrete series of SU(1,1).

Numerical toolkit for the lowest-weight unitary irreducible representations
of SU(1,1) realized on holomorphic functions on the unit disk: group
parametrizations and the invariant measure, matrix elements in two forms,
characters, orthogonality integrals with independent Monte Carlo
cross-checks, and tensor-product decompositions certified through compact
characters.
"""

from .characters import (
    BOUNDARY_TOL,
    ELLIPTIC,
    HYPERBOLIC,
    CharacterValue,
    abel_trace,
    abel_trace_closed_form,
    character,
    character_cartan,
    character_compact,
    damped_trace_sum,
    trace_partial_sum,
)
from .errors import (
    BoundaryConjugacyClass,
    DeterminantViolation,
    InvalidDamping,
    InvalidParams,
    SingularAngle,
    Su11Error,
    UnsupportedClass,
)
from .group import (
    DET_TOL,
    IDENTITY,
    CartanCoords,
    DiskPoint,
    GroupElement,
    compact_element,
    disk_point,
    from_cartan,
    haar_density,
    inverse,
    multiply,
    to_cartan,
)
from .halfint import HalfInteger, RepLabel, as_rep_label
from .jacobi import gauss_legendre, jacobi_sequence, log_poch_ratio
from .orthogonality import (
    MonteCarloEstimate,
    OrthoRequest,
    OrthoResult,
    angular_selection,
    formal_dimension,
    monte_carlo_haar,
    orthogonality_integral,
    radial_integral,
)
from .repmatrix import (
    MatrixBlock,
    homomorphism_defect,
    matrix_element,
    matrix_element_batch,
    matrix_element_cartan,
    truncated_operator,
    unitarity_defect,
)
from .tensor import (
    Decomposition,
    DecompositionTerm,
    abel_character_sum,
    abel_character_sum_closed_form,
    character_product,
    decompose,
    multiplicity,
)

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_TOL",
    "BoundaryConjugacyClass",
    "CartanCoords",
    "CharacterValue",
    "DET_TOL",
    "Decomposition",
    "DecompositionTerm",
    "DeterminantViolation",
    "DiskPoint",
    "ELLIPTIC",
    "GroupElement",
    "HYPERBOLIC",
    "HalfInteger",
    "IDENTITY",
    "InvalidDamping",
    "InvalidParams",
    "MatrixBlock",
    "MonteCarloEstimate",
    "OrthoRequest",
    "OrthoResult",
    "RepLabel",
    "SingularAngle",
    "Su11Error",
    "UnsupportedClass",
    "abel_character_sum",
    "abel_character_sum_closed_form",
    "abel_trace",
    "abel_trace_closed_form",
    "angular_selection",
    "as_rep_label",
    "character",
    "character_cartan",
    "character_compact",
    "character_product",
    "compact_element",
    "damped_trace_sum",
    "decompose",
    "disk_point",
    "formal_dimension",
    "from_cartan",
    "gauss_legendre",
    "haar_density",
    "homomorphism_defect",
    "inverse",
    "jacobi_sequence",
    "log_poch_ratio",
    "matrix_element",
    "matrix_element_batch",
    "matrix_element_cartan",
    "monte_carlo_haar",
    "multiplicity",
    "multiply",
    "orthogonality_integral",
    "radial_integral",
    "to_cartan",
    "trace_partial_sum",
    "truncated_operator",
    "unitarity_defect",
]
