"""Positive matrix operators: norms, power boundedness, orbit limits.

Supported norms are the sup norm, the l1 norm, and weighted l1 norms,
the lattice norms whose induced operator norms have exact closed forms.
The l1 family is strictly monotone (0 <= x < y forces a strictly
smaller norm); the sup norm is not.

Unimodular spectra are read off one trial division of the characteristic
polynomial chi of a nonnegative matrix M by the cyclotomics.  The
spectral radius rho is a real eigenvalue (Perron-Frobenius) and no
cyclotomic has a real root other than +-1, so rho > 1 exactly when the
cyclotomic-free rest has a root on (1, oo) (a Sturm count), and
otherwise rho = 1 exactly when x - 1 divides chi; at rho = 1 every
unimodular eigenvalue is a root of unity, and none has a larger index
than rho (Rothblum 1975), so only the rank of M - I is taken.  Nothing
is factored.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from operator import mul

from .conegeom import Subspace
from .exactnum import TheoremViolationError
from .exactnum.linalg import char_poly, kernel_basis, rank
from .exactnum.polynomials import (
    QPolynomial,
    cyclotomic,
    cyclotomic_division,
    has_unimodular_root,
    sturm_count,
)
from .exactnum.rational import ONE, ZERO, QMatrix, QVector
from .exactnum.record import record


@record
class NormTag:
    """Identifies the lattice norm carried by an operator's space."""

    kind: str
    weights: QVector | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("sup", "one", "weighted_one"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == "weighted_one":
            if self.weights is None or self.weights.dim == 0:
                raise ValueError("weighted norm needs weights")
            if any(w <= 0 for w in self.weights.nums):
                raise ValueError("norm weights must be strictly positive")
        elif self.weights is not None:
            raise ValueError("weights only apply to the weighted norm")

    @property
    def strictly_monotone(self) -> bool:
        return self.kind != "sup"


SUP_NORM = NormTag("sup")
ONE_NORM = NormTag("one")


def weighted_one_norm(weights: QVector) -> NormTag:
    return NormTag("weighted_one", weights)


def vector_norm(x: QVector, tag: NormTag) -> Fraction:
    if tag.kind == "sup":
        return x.sup_norm()
    if tag.kind == "one":
        return x.one_norm()
    if tag.weights.dim != x.dim:
        raise ValueError("weight dimension mismatch")
    return sum((w * abs(v) for w, v in zip(tag.weights, x)), Fraction(0))


@record
class PositiveMatrixOperator:
    matrix: QMatrix
    norm_tag: NormTag = SUP_NORM

    def __post_init__(self) -> None:
        if not self.matrix.is_square():
            raise ValueError("operator matrix must be square")
        if not self.matrix.is_nonneg():
            raise ValueError("operator matrix must be entrywise nonnegative")
        tag = self.norm_tag
        if tag.kind == "weighted_one" and tag.weights.dim != self.matrix.nrows:
            raise ValueError("norm weights must match the ambient dimension")

    @property
    def dim(self) -> int:
        return self.matrix.nrows

    def apply(self, x: QVector) -> QVector:
        return self.matrix @ x


@record
class OperatorFamily:
    """Commuting positive operators on one space with one norm, carrying
    their contractivity and common fixed space, each computed once.
    The members may be given as any iterable; they are kept as a tuple.

    Commutation is checked on integers: with A = a / da and B = b / db
    over their common denominators, AB and BA share the denominator
    da db, so they are equal exactly when the integer products ab and
    ba are."""

    members: tuple[PositiveMatrixOperator, ...]

    def __post_init__(self) -> None:
        mem = tuple(self.members)
        if not mem:
            raise ValueError("empty operator family")
        dim = mem[0].dim
        tag = mem[0].norm_tag
        for op in mem[1:]:
            if op.dim != dim:
                raise ValueError("family members act on different spaces")
            if op.norm_tag != tag:
                raise ValueError("family members carry different norms")
        ints = [op.matrix.int_rows()[0] for op in mem]
        for i in range(len(mem)):
            for j in range(i + 1, len(mem)):
                a, b = ints[i], ints[j]
                if _int_product(a, b) != _int_product(b, a):
                    raise ValueError(
                        f"family members {i} and {j} do not commute"
                    )
        object.__setattr__(self, "members", mem)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    @property
    def norm_tag(self) -> NormTag:
        return self.members[0].norm_tag

    @cached_property
    def contractive(self) -> bool:
        """Whether every member is a contraction in the family's norm."""
        return all(contraction_check(t) for t in self.members)

    @cached_property
    def fixed_space(self) -> Subspace:
        """Common fixed space, by restriction along the members: the
        RREF-canonical kernel of the rows of I - T_1, each taken times
        its denominator (den e_i - x), cut down by one d x d system per
        further member.

        Commuting members leave each other's fixed spaces invariant: if
        T_1 b = b then T_1 T b = T T_1 b = T b.  So for the basis B of
        F = Fix(T_1) and any other member T, T B = B C for the d x d
        matrix C whose column j holds the coefficients of T b_j, read at
        the pivots, and F meet Fix(T) = B ker(I - C).  A member that
        fixes every b_j keeps F at the cost of d products.  Otherwise
        B Y, for Y the RREF basis of ker(I - C) with pivots q_i, is the
        RREF basis of the smaller space: b_k is zero before its pivot
        p_k and has no entry at the other pivots, so row i of B Y is
        zero before p_(q_i), one there and zero at the other p_(q_l).
        The result is the canonical basis of the intersection, the one
        kernel of all the stacked I - T rows would give.  A T b_j
        outside F means two members do not commute, a
        TheoremViolationError."""
        first, *rest = (t.matrix for t in self.members)
        rows = QMatrix(
            QVector.from_ints([r.den * (i == j) - x for j, x in enumerate(r.nums)])
            for i, r in enumerate(first.rows)
        )
        fixed = Subspace(self.dim, kernel_basis(rows))
        for t in rest:
            if fixed.is_zero():
                break
            images = [t @ b for b in fixed.basis]
            if images == list(fixed.basis):
                continue
            coefficients = [fixed.coefficients_of(v) for v in images]
            if None in coefficients:
                raise TheoremViolationError(
                    "a family member moves the fixed space of another"
                )
            cut = QMatrix.identity(fixed.dim) - QMatrix(coefficients).transpose()
            basis = tuple(map(fixed.from_coefficients, kernel_basis(cut)))
            fixed = Subspace(self.dim, basis)
        return fixed


def _int_product(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """The product of two integer matrices given as sequences of rows."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def operator_norm(op: PositiveMatrixOperator) -> Fraction:
    """Exact induced norm of the operator for its norm tag: the largest
    absolute row sum (sup norm), absolute column sum (one norm) or
    weighted absolute column sum over the column's weight (weighted one
    norm), each an integer sum over the row's or the matrix's denominator."""
    m = op.matrix
    tag = op.norm_tag
    if tag.kind == "sup":
        return max((r.one_norm() for r in m.rows), default=ZERO)
    a, d = m.int_rows()
    columns = [list(map(abs, col)) for col in zip(*a)]
    if tag.kind == "one":
        return Fraction(max(map(sum, columns), default=0), d)
    # sum_i w_i |m_ij| / w_j with w = W / dw, the dw cancelling
    w = tag.weights.nums
    return max(
        Fraction(sum(map(mul, w, col)), d * wj) for col, wj in zip(columns, w)
    )


def contraction_check(op: PositiveMatrixOperator) -> bool:
    return operator_norm(op) <= ONE


def super_fixed_check(op: PositiveMatrixOperator, g: QVector) -> bool:
    """Whether Tg >= g componentwise."""
    if g.dim != op.dim:
        raise ValueError("vector dimension mismatch")
    return op.apply(g).ge(g)


@record
class PowerBoundAnalysis:
    verdict: str
    offending_factor: QPolynomial | None
    reason: str


def power_bounded_analysis(op: PositiveMatrixOperator) -> PowerBoundAnalysis:
    """Power boundedness from the Perron root and the cyclotomic content.

    No when the spectral radius exceeds 1, Yes when it is below 1.  At
    spectral radius 1 no unimodular eigenvalue has a larger index than 1
    itself, so the answer is No exactly when dim ker(M - I) is below the
    multiplicity of the root 1 (the offending factor x - 1 is then the
    smallest defective cyclotomic by degree, then coefficients), Yes
    otherwise.
    """
    algebraic, rest = cyclotomic_division(char_poly(op.matrix))
    if sturm_count(rest, lo=ONE) > 0:
        return PowerBoundAnalysis("No", None, "a root lies outside the unit disk")
    if 1 not in algebraic:
        return PowerBoundAnalysis("Yes", None, "all roots strictly inside")
    if has_unimodular_root(rest):
        raise TheoremViolationError(
            "unimodular eigenvalue of a nonnegative matrix is not a root of unity"
        )
    mult = algebraic[1]  # a simple root 1 has a one-dimensional eigenspace
    if mult > 1 and op.dim - rank(op.matrix - QMatrix.identity(op.dim)) < mult:
        return PowerBoundAnalysis(
            "No", cyclotomic(1), "a repeated boundary factor is defective"
        )
    return PowerBoundAnalysis("Yes", None, "boundary roots all semisimple")


def increasing_orbit_limit(m: QMatrix, proj: QMatrix, s: QVector) -> QVector | None:
    """Limit of the increasing orbit s, Ms, M^2 s, ... of a nonnegative M
    with Ms >= s, from P = fix_projection(M): Ps, or None if unbounded.

    If h = Ps >= s, then M >= 0 and Mh = h give M^n s <= h, so the orbit
    increases to a fixed L; s - L = lim sum_{k<n} (I - M) M^k s lies in
    range(I - M), along which P projects onto ker(I - M), so L = Ps.
    The same argument makes any limit Ps and >= s, so otherwise the
    orbit has no limit and is unbounded.  A power bounded M has bounded
    orbits, so for it that is a TheoremViolationError (the spectrum is
    read only on this path), as is Mh != h.
    """
    h = proj @ s
    if m @ h != h:
        raise TheoremViolationError("increasing orbit limit is not fixed")
    if h.ge(s):
        return h
    if power_bounded_analysis(PositiveMatrixOperator(m)).verdict == "Yes":
        raise TheoremViolationError("orbit of a power bounded matrix is unbounded")
    return None
