"""Positive matrix operators: norms, contractivity, power boundedness.

Supported norms are the sup norm, the l1 norm, and weighted l1 norms,
the lattice norms whose induced operator norms have exact closed forms.
The l1 family is strictly monotone (0 <= x < y forces a strictly
smaller norm); the sup norm is not.

Unimodular spectra are decided from two cheap facts about the
characteristic polynomial chi of a nonnegative matrix (Perron-Frobenius):
the spectral radius rho is itself an eigenvalue, so a Sturm count of chi
on (1, oo) compares rho with 1; and when rho = 1 every unimodular
eigenvalue is a root of unity, so trial division of chi by the
cyclotomic polynomials finds them all.  Nothing is factored.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exactnum import TheoremViolationError
from .exactnum.linalg import char_poly, poly_of_matrix, rank
from .exactnum.polynomials import (
    QPolynomial,
    cyclotomic,
    euler_phi,
    has_unimodular_root,
    orders_with_phi_at_most,
    sturm_count,
)
from .exactnum.rational import ONE, QMatrix, QVector


@dataclass(frozen=True)
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
            if any(w <= 0 for w in self.weights):
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class OperatorFamily:
    """Commuting positive operators on one space with one norm."""

    members: tuple[PositiveMatrixOperator, ...]

    def __init__(self, members: Iterable[PositiveMatrixOperator]) -> None:
        mem = tuple(members)
        if not mem:
            raise ValueError("empty operator family")
        dim = mem[0].dim
        tag = mem[0].norm_tag
        for op in mem[1:]:
            if op.dim != dim:
                raise ValueError("family members act on different spaces")
            if op.norm_tag != tag:
                raise ValueError("family members carry different norms")
        for i in range(len(mem)):
            for j in range(i + 1, len(mem)):
                a, b = mem[i].matrix, mem[j].matrix
                if a @ b != b @ a:
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


def operator_norm(op: PositiveMatrixOperator) -> Fraction:
    """Exact induced norm of the operator for its norm tag."""
    m = op.matrix
    n = m.nrows
    tag = op.norm_tag
    if tag.kind == "sup":
        if n == 0:
            return Fraction(0)
        return max(sum(map(abs, row), Fraction(0)) for row in m.rows)
    if tag.kind == "one":
        if n == 0:
            return Fraction(0)
        return max(
            sum((abs(m.entry(i, j)) for i in range(n)), Fraction(0))
            for j in range(n)
        )
    w = tag.weights
    return max(
        sum((w[i] * abs(m.entry(i, j)) for i in range(n)), Fraction(0)) / w[j]
        for j in range(n)
    )


def contraction_check(op: PositiveMatrixOperator) -> bool:
    return operator_norm(op) <= ONE


def super_fixed_check(op: PositiveMatrixOperator, g: QVector) -> bool:
    """Whether Tg >= g componentwise."""
    if g.dim != op.dim:
        raise ValueError("vector dimension mismatch")
    return op.apply(g).ge(g)


_X_MINUS_ONE = QPolynomial((-ONE, ONE))


def perron_root_vs_one(chi: QPolynomial) -> int:
    """Sign of rho - 1 for the spectral radius rho of a nonnegative
    matrix with characteristic polynomial chi.  rho is a real eigenvalue,
    so rho > 1 exactly when chi has a real root above 1: divide out the
    factors x - 1, then Sturm count on (1, oo)."""
    root_at_one = False
    while chi.evaluate(ONE) == 0:
        chi = chi.divmod(_X_MINUS_ONE)[0]
        root_at_one = True
    if sturm_count(chi, lo=ONE) > 0:
        return 1
    return 0 if root_at_one else -1


def _exact_quotient(p: list[int], divisor: list[int]) -> list[int] | None:
    """p / divisor when the monic integer divisor divides p exactly, else
    None; ascending integer coefficients.  A monic divisor keeps every
    quotient coefficient an integer."""
    rem = list(p)
    shift = len(divisor) - 1
    quotient = [0] * (len(rem) - shift)
    for i in range(len(rem) - 1, shift - 1, -1):
        f = rem[i]
        if f:
            quotient[i - shift] = f
            for j, c in enumerate(divisor):
                if c:
                    rem[i - shift + j] -= f * c
    return None if any(rem[:shift]) else quotient


def cyclotomic_content(
    op: PositiveMatrixOperator, chi: QPolynomial
) -> tuple[dict[int, int], dict[int, int], QPolynomial]:
    """order -> geometric and order -> algebraic multiplicity of the
    primitive n-th roots of unity, and the cyclotomic-free remainder of
    the characteristic polynomial chi.  Trial division runs on the
    primitive integer form of chi.

    Those roots are algebraically indistinguishable over the rationals,
    so ker of the n-th cyclotomic at the matrix splits evenly among
    them: its dimension is g * phi(n) with 1 <= g <= the algebraic
    multiplicity.  When the n-th cyclotomic divides chi exactly once
    that forces g = 1, and the matrix is not evaluated; otherwise g is
    read off the rank of the cyclotomic at the matrix."""
    n = op.dim
    prim, unit = chi.primitive_integer()
    rest = [int(c) for c in prim.coeffs]
    geometric: dict[int, int] = {}
    algebraic: dict[int, int] = {}
    for order in orders_with_phi_at_most(n):
        phi = euler_phi(order)
        if phi > len(rest) - 1:
            continue
        phi_n = cyclotomic(order)
        divisor = [int(c) for c in phi_n.coeffs]
        mult = 0
        quotient = _exact_quotient(rest, divisor)
        while quotient is not None:
            rest = quotient
            mult += 1
            quotient = _exact_quotient(rest, divisor)
        if mult == 0:
            continue
        algebraic[order] = mult
        if mult == 1:
            geometric[order] = 1
            continue
        kernel_dim = n - rank(poly_of_matrix(phi_n, op.matrix))
        g, leftover = divmod(kernel_dim, phi)
        if leftover or not 1 <= g <= mult:
            raise TheoremViolationError(
                f"kernel of the order-{order} cyclotomic at the matrix has"
                f" dimension {kernel_dim}, not g * {phi} with 1 <= g <= {mult}"
            )
        geometric[order] = g
    return geometric, algebraic, QPolynomial(rest).scale(unit)


@dataclass(frozen=True)
class PowerBoundAnalysis:
    verdict: str
    offending_factor: QPolynomial | None
    reason: str


def power_bounded_analysis(op: PositiveMatrixOperator) -> PowerBoundAnalysis:
    """Power boundedness from the Perron root and the cyclotomic content.

    No when the spectral radius exceeds 1, Yes when it is below 1.  At
    spectral radius 1 the unimodular eigenvalues are roots of unity:
    No when one has geometric multiplicity below its algebraic
    multiplicity (the offending factor is the smallest such cyclotomic
    polynomial by degree, then coefficients), Yes otherwise.
    """
    chi = char_poly(op.matrix)
    side = perron_root_vs_one(chi)
    if side > 0:
        return PowerBoundAnalysis("No", None, "a root lies outside the unit disk")
    if side < 0:
        return PowerBoundAnalysis("Yes", None, "all roots strictly inside")
    geometric, algebraic, rest = cyclotomic_content(op, chi)
    if has_unimodular_root(rest):
        raise TheoremViolationError(
            "unimodular eigenvalue of a nonnegative matrix is not a root of unity"
        )
    defective = [
        cyclotomic(order)
        for order, mult in algebraic.items()
        if geometric[order] < mult
    ]
    if defective:
        return PowerBoundAnalysis(
            "No",
            min(defective, key=lambda f: (f.degree, f.coeffs)),
            "a repeated boundary factor is defective",
        )
    return PowerBoundAnalysis("Yes", None, "boundary roots all semisimple")


def power_bounded_verdict(op: PositiveMatrixOperator) -> str:
    """One of "Yes", "No"."""
    return power_bounded_analysis(op).verdict
