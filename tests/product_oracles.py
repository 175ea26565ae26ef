"""Test-only reference products: the earlier `Fraction` versions of
`QVector.dot`, `QMatrix.matvec`, `QMatrix.matmul`,
`Subspace.from_coefficients`/`coefficients_of`, `opcore.operator_norm`
and `linalg.poly_of_matrix`, and the earlier route to a family's common
fixed space.

Each product sums `Fraction` products term by term, one gcd per
operation, so the integer kernels (sums of the integer numerators over
the operands' denominators) can be compared with them exactly.
"""

from __future__ import annotations

from fractions import Fraction

from latfix.conegeom import Subspace
from latfix.exactnum.linalg import kernel_basis
from latfix.exactnum.polynomials import QPolynomial
from latfix.exactnum.rational import ZERO, QMatrix, QVector
from latfix.opcore import PositiveMatrixOperator


def reference_dot(x: QVector, y: QVector) -> Fraction:
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return sum((a * b for a, b in zip(x.entries, y.entries)), ZERO)


def reference_matvec(m: QMatrix, v: QVector) -> QVector:
    if v.dim != m.ncols:
        raise ValueError("matvec dimension mismatch")
    return QVector(reference_dot(r, v) for r in m.rows)


def reference_matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    if a.ncols != b.nrows:
        raise ValueError("matmul dimension mismatch")
    cols = [QVector(r[j] for r in b.rows) for j in range(b.ncols)]
    return QMatrix(
        QVector(reference_dot(row, col) for col in cols) for row in a.rows
    )


def reference_poly_of_matrix(poly: QPolynomial, m: QMatrix) -> QMatrix:
    """Horner's scheme on `Fraction` matrices."""
    n = m.nrows
    result = QMatrix.zero(n, n)
    for c in reversed(poly.coeffs):
        result = reference_matmul(m, result) + QMatrix.identity(n).scale(c)
    return result


def reference_from_coefficients(subspace: Subspace, c: QVector) -> QVector:
    out = QVector.zero(subspace.ambient_dim)
    for ci, b in zip(c, subspace.basis):
        out = out + b.scale(ci)
    return out


def reference_coefficients_of(subspace: Subspace, v: QVector) -> QVector | None:
    c = QVector(v[next(j for j, x in enumerate(b) if x)] for b in subspace.basis)
    return c if reference_from_coefficients(subspace, c) == v else None


def reference_operator_norm(op: PositiveMatrixOperator) -> Fraction:
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
            sum((abs(m.rows[i][j]) for i in range(n)), Fraction(0))
            for j in range(n)
        )
    w = tag.weights
    return max(
        sum((w[i] * abs(m.rows[i][j]) for i in range(n)), Fraction(0)) / w[j]
        for j in range(n)
    )


def reference_fixed_space(matrices: list[QMatrix]) -> Subspace:
    """The common fixed space as one kernel of every member's I - T rows,
    stacked as rational rows."""
    n = matrices[0].nrows
    eye = QMatrix.identity(n)
    return Subspace(n, kernel_basis(QMatrix(r for m in matrices for r in (eye - m).rows)))
