"""Exact rational linear algebra and polynomial analysis.

Scalars are arbitrary-precision rationals; no certified code path ever
touches floating point.  Kernel bases are canonicalized by reduced row
echelon form so that equal subspaces produce byte-identical bases.

`record` (in `exactnum.record`) is the frozen-record decorator of every
latfix result and operator class.  It stands in for the standard frozen
dataclass because each command is a fresh interpreter: that module's
import and its per-class method generation cost more than a small
command's answer.  A record holds only its fields; derived state is a
``cached_property`` or is set by ``__post_init__``.
"""
from .linalg import (
    DefectiveEigenvalueError,
    char_poly,
    fix_projection,
    kernel_basis,
    poly_of_matrix,
    rank,
    row_space_basis,
    rref,
    solve,
)
from .polynomials import (
    QPolynomial,
    cyclotomic,
    cyclotomic_order,
    euler_phi,
    orders_with_phi_at_most,
    poly_gcd,
    squarefree_decomposition,
    sturm_count,
)
from .rational import ONE, ZERO, QMatrix, QVector, rat, rat_str


class TheoremViolationError(RuntimeError):
    """A guarantee of the fixed-space theory failed on a validated
    input; this signals a defect, not a legitimate outcome."""


__all__ = [
    "DefectiveEigenvalueError",
    "ONE",
    "QMatrix",
    "QPolynomial",
    "QVector",
    "TheoremViolationError",
    "ZERO",
    "char_poly",
    "cyclotomic",
    "cyclotomic_order",
    "euler_phi",
    "fix_projection",
    "kernel_basis",
    "orders_with_phi_at_most",
    "poly_gcd",
    "poly_of_matrix",
    "rank",
    "rat",
    "rat_str",
    "row_space_basis",
    "rref",
    "solve",
    "squarefree_decomposition",
    "sturm_count",
]
