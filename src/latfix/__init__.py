"""Exact analysis of fixed spaces of positive linear contractions.

Everything is rational arithmetic: kernels and characteristic
polynomials, polyhedral cone geometry of fixed spaces, suprema within
them read off the extreme rays of their positive cones (exact linear
programs where a space is not a lattice subspace), symbolic
sequence-space operators for the infinite-dimensional counterexamples,
and cyclicity checks on the peripheral spectrum.
"""
from .conegeom import (
    LatticeClassification,
    Subspace,
    Verdict,
    classify_subspace,
    least_element_above,
    least_upper_bound_in,
    modulus_in,
    positive_cone,
)
from .cyclicity import (
    CyclicityReport,
    SemigroupReport,
    probe_random_contractions,
    root_of_unity_spectrum,
    semigroup_imaginary_check,
    verify_dimension_cyclicity,
)
from .exactnum.rational import QMatrix, QVector, rat
from .fixlattice import (
    FixedSpaceReport,
    TheoremViolationError,
    TransfiniteTrace,
    fixed_space_of_family,
    fixed_space_report,
    least_fixed_above,
    sup_in_fixspace,
    transfinite_trace,
)
from .opcore import (
    ONE_NORM,
    SUP_NORM,
    NormTag,
    OperatorFamily,
    PositiveMatrixOperator,
    contraction_check,
    operator_norm,
    power_bounded_verdict,
    super_fixed_check,
    weighted_one_norm,
)
from .seqspace import (
    IndexSchema,
    ShiftInsertOperator,
    SymbolicVector,
    builtin_operator,
    orbit_sup,
    symbolic_eigenspace,
    symbolic_fixed_space,
    symbolic_operator_norm,
)

__all__ = [
    "LatticeClassification",
    "Subspace",
    "Verdict",
    "classify_subspace",
    "least_element_above",
    "least_upper_bound_in",
    "modulus_in",
    "positive_cone",
    "CyclicityReport",
    "SemigroupReport",
    "probe_random_contractions",
    "root_of_unity_spectrum",
    "semigroup_imaginary_check",
    "verify_dimension_cyclicity",
    "QMatrix",
    "QVector",
    "rat",
    "FixedSpaceReport",
    "TheoremViolationError",
    "TransfiniteTrace",
    "fixed_space_of_family",
    "fixed_space_report",
    "least_fixed_above",
    "sup_in_fixspace",
    "transfinite_trace",
    "ONE_NORM",
    "SUP_NORM",
    "NormTag",
    "OperatorFamily",
    "PositiveMatrixOperator",
    "contraction_check",
    "operator_norm",
    "power_bounded_verdict",
    "super_fixed_check",
    "weighted_one_norm",
    "IndexSchema",
    "ShiftInsertOperator",
    "SymbolicVector",
    "builtin_operator",
    "orbit_sup",
    "symbolic_eigenspace",
    "symbolic_fixed_space",
    "symbolic_operator_norm",
]

__version__ = "0.1.0"
