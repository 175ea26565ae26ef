"""Fixed spaces of positive contractions and their lattice structure.

The central objects are the fixed space of a commuting family of
positive contractions and the order structure it inherits: for a valid
family the fixed space is always a lattice subspace (and under a
strictly monotone norm a sublattice), suprema taken within the fixed
space dominate ambient suprema, and for nonnegative ambient suprema the
two have equal norm.  This module assembles those facts into checkable
reports, computes suprema within fixed spaces from the extreme rays of
their positive cones (conegeom.least_upper_bound_in), and reproduces
the transfinite iteration that climbs to a fixed point through repeated
monotone limit steps.

Two independent routes to the least fixed vector above a super fixed g
coexist deliberately: the LP least-element construction (order
certified) and the monotone-orbit limit through the fixed-space
projection.  Agreement between the two is a test invariant, not an
implementation shortcut.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

from .conegeom import (
    LatticeClassification,
    Subspace,
    Verdict,
    classify_subspace,
    least_element_above,
    least_upper_bound_in,
)
from .conegeom.core import _least_upper_bound
from .exactnum import TheoremViolationError
from .exactnum.linalg import fix_projection, intersect_kernels
from .exactnum.rational import QMatrix, QVector
from .opcore import (
    OperatorFamily,
    PositiveMatrixOperator,
    contraction_check,
    super_fixed_check,
    vector_norm,
)
from . import seqspace
from .seqspace import ShiftInsertOperator, SymbolicVector


class BudgetExceededError(RuntimeError):
    """The transfinite trace did not settle within its step budget."""


def fixed_space_of_family(family: OperatorFamily) -> Subspace:
    """Common fixed space: the intersection of ker(I - T) over the
    family, with the RREF-canonical basis intersect_kernels returns."""
    n = family.dim
    eye = QMatrix.identity(n)
    basis = intersect_kernels([eye - member.matrix for member in family.members])
    return Subspace(n, basis)


@dataclass(frozen=True)
class NormCheck:
    """Norm comparison for G = {b, -b}: the ambient supremum |b| versus
    the least upper bound within the fixed space."""

    description: str
    ambient_norm: Fraction
    fixed_norm: Fraction | None
    equal: bool


@dataclass(frozen=True)
class FixedSpaceReport:
    family_valid: bool
    fixed_space: Subspace
    classification: LatticeClassification
    theorem_conformant: bool | None
    norm_checks: tuple[NormCheck, ...]


def fixed_space_report(family: OperatorFamily) -> FixedSpaceReport:
    """Validity, fixed space, classification, and conformance verdict.

    theorem_conformant is None when the family is not contractive (the
    guarantees simply do not apply); otherwise it asserts that the
    classification is at least a lattice subspace, upgraded to
    sublattice under a strictly monotone norm.  Failures are carried in
    the report, never raised.
    """
    family_valid = all(contraction_check(t) for t in family.members)
    fixed = fixed_space_of_family(family)
    classification = classify_subspace(fixed)
    if not family_valid:
        conformant: bool | None = None
    else:
        conformant = classification.verdict != Verdict.NOT_LATTICE_SUBSPACE
        if family.norm_tag.strictly_monotone:
            conformant = classification.verdict == Verdict.SUBLATTICE
    checks: list[NormCheck] = []
    for i, b in enumerate(fixed.basis):
        ambient = b.abs()
        ambient_norm = vector_norm(ambient, family.norm_tag)
        lub = _least_upper_bound(fixed, classification, [b, b.scale(-1)])
        fixed_norm = None if lub is None else vector_norm(lub, family.norm_tag)
        checks.append(
            NormCheck(
                description=f"{{b{i + 1}, -b{i + 1}}}",
                ambient_norm=ambient_norm,
                fixed_norm=fixed_norm,
                equal=fixed_norm == ambient_norm,
            )
        )
    return FixedSpaceReport(
        family_valid=family_valid,
        fixed_space=fixed,
        classification=classification,
        theorem_conformant=conformant,
        norm_checks=tuple(checks),
    )


def _require_valid(family: OperatorFamily) -> None:
    if not all(contraction_check(t) for t in family.members):
        raise ValueError("family is not contractive in its stated norm")


def _ambient_max(vectors: Sequence[QVector]) -> QVector:
    out = vectors[0]
    for v in vectors[1:]:
        out = out.cwise_max(v)
    return out


def sup_in_fixspace(
    family: OperatorFamily, vectors: Sequence[QVector]
) -> tuple[QVector, QVector]:
    """(g_F, g_E): the supremum of the given fixed vectors within the
    fixed space and in the ambient lattice.

    For a valid family g_F always exists, dominates g_E, and matches
    its norm whenever g_E is nonnegative; any failure of those
    guarantees raises TheoremViolationError.
    """
    _require_valid(family)
    if not vectors:
        raise ValueError("empty vector collection")
    fixed = fixed_space_of_family(family)
    for v in vectors:
        if not fixed.contains(v):
            raise ValueError("vector outside the fixed space")
    g_e = _ambient_max(vectors)
    g_f = least_upper_bound_in(fixed, vectors)
    if g_f is None:
        raise TheoremViolationError(
            "least upper bound absent in the fixed space of a valid family"
        )
    if not g_f.ge(g_e):
        raise TheoremViolationError("fixed-space supremum below ambient supremum")
    if g_e.is_nonneg() and vector_norm(g_f, family.norm_tag) != vector_norm(
        g_e, family.norm_tag
    ):
        raise TheoremViolationError(
            "norm of the fixed-space supremum differs from the ambient one"
        )
    return g_f, g_e


def least_fixed_above(family: OperatorFamily, g: QVector) -> QVector:
    """Smallest fixed vector dominating a super fixed g.

    When g is nonnegative the result has the same norm as g; violation
    raises TheoremViolationError.
    """
    _require_valid(family)
    for member in family.members:
        if not super_fixed_check(member, g):
            raise ValueError("vector is not super fixed for every member")
    fixed = fixed_space_of_family(family)
    f = least_element_above(fixed, g)
    if f is None:
        raise TheoremViolationError(
            "no least fixed vector above a super fixed one"
        )
    if g.is_nonneg() and vector_norm(f, family.norm_tag) != vector_norm(
        g, family.norm_tag
    ):
        raise TheoremViolationError("least fixed vector changed the norm")
    return f


# ---------------------------------------------------------------------------
# transfinite iteration


@dataclass(frozen=True)
class TraceStep:
    limit_step_index: int
    vector: Union[QVector, SymbolicVector]
    is_fixed: bool


@dataclass(frozen=True)
class TransfiniteTrace:
    """Record of repeated monotone limit steps.  outcome is
    "FixedPointReached" (fixed_point and limit_steps set) or
    "Unbounded" (evidence carries the diverging limit-step norms)."""

    steps: tuple[TraceStep, ...]
    outcome: str
    fixed_point: Union[QVector, SymbolicVector, None] = None
    limit_steps: int | None = None
    evidence: tuple[Fraction, ...] = ()


def _matrix_trace(
    op: PositiveMatrixOperator, vectors: Sequence[QVector], power: int
) -> TransfiniteTrace:
    m = op.matrix.power(power)
    for v in vectors:
        if m @ v != v:
            raise ValueError("vector outside the fixed space")
    g_e = _ambient_max(vectors)
    proj = fix_projection(m)
    h = proj @ g_e
    if not h.ge(g_e):
        raise TheoremViolationError(
            "monotone orbit of the ambient supremum is unbounded"
        )
    if m @ h != h:
        raise TheoremViolationError(
            "monotone orbit limit of the ambient supremum is not fixed"
        )
    step = TraceStep(limit_step_index=1, vector=h, is_fixed=True)
    return TransfiniteTrace(
        steps=(step,),
        outcome="FixedPointReached",
        fixed_point=h,
        limit_steps=1,
    )


def _symbolic_trace(
    op: ShiftInsertOperator,
    vectors: Sequence[SymbolicVector],
    power: int,
    budget: int,
) -> TransfiniteTrace:
    for v in vectors:
        if seqspace.apply_power(op, v, power) != v:
            raise ValueError("vector outside the fixed space")
    current = seqspace.ambient_sup(vectors)
    steps: list[TraceStep] = []
    for index in range(1, budget + 1):
        result = seqspace.orbit_sup(op, current, power)
        if result.outcome == "NotSuperFixed":
            raise TheoremViolationError(
                "the supremum of fixed vectors is not super fixed"
            )
        if result.outcome == "Unbounded":
            return TransfiniteTrace(
                steps=tuple(steps),
                outcome="Unbounded",
                evidence=result.evidence,
            )
        if result.supremum is None:
            raise TheoremViolationError("orbit settled without a supremum")
        current = result.supremum
        is_fixed = seqspace.apply_power(op, current, power) == current
        steps.append(TraceStep(index, current, is_fixed))
        if is_fixed:
            return TransfiniteTrace(
                steps=tuple(steps),
                outcome="FixedPointReached",
                fixed_point=current,
                limit_steps=index,
            )
    raise BudgetExceededError(
        f"no fixed point within {budget} limit steps"
    )


def transfinite_trace(
    op: Union[PositiveMatrixOperator, ShiftInsertOperator],
    vectors: Sequence,
    power: int = 1,
    budget: int = 8,
) -> TransfiniteTrace:
    """Iterated monotone limit steps from the ambient supremum of fixed
    vectors up to a fixed point.

    Each step replaces the current vector with the supremum of its
    orbit under the power-fold operator.  A matrix operator reaches
    fixity in a single step (the orbit limit is the fixed-space
    projection of the start); the symbolic case can need several, and
    can also certify that the limit steps themselves grow without
    bound, which is reported as Unbounded rather than an error.  The
    power argument iterates the square (or a higher power) of the
    operator, matching the example where only the square admits a
    monotone orbit.
    """
    if power < 1:
        raise ValueError("power must be a positive integer")
    if not vectors:
        raise ValueError("empty vector collection")
    if isinstance(op, PositiveMatrixOperator):
        return _matrix_trace(op, vectors, power)
    if isinstance(op, ShiftInsertOperator):
        return _symbolic_trace(op, vectors, power, budget)
    raise TypeError("unsupported operator type")
