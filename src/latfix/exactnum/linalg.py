"""Exact linear algebra over the rationals.

`eliminate` is the one row step of the package: a fraction-free
(Bareiss) Gauss-Jordan step on integer rows that share one common
denominator.  `rref` (and through it rank, kernels, solving and
projection), the double-description start in `conegeom.core` and the
simplex in `conegeom.simplex` reduce with it and with nothing else.
No step pays a gcd; rows enter as their `QVector` numerators (scaling
a row keeps its RREF) and leave as `QVector`s over the final common
denominator.

Kernel bases are canonical: the spanning set produced by back
substitution is itself brought to reduced row echelon form, so equal
subspaces always yield identical bases.  The characteristic polynomial
is computed with division-free Berkowitz on plain integers, after
clearing one common denominator, into a `QPolynomial`'s ``nums`` over
``den``; `poly_of_matrix` runs Horner's scheme on the same integer matrix.
"""
from __future__ import annotations

from math import lcm
from operator import mul

from .polynomials import QPolynomial
from .rational import QMatrix, QVector


def eliminate(rows: list[list[int]], r: int, c: int, prev: int) -> int:
    """Fraction-free Gauss-Jordan step on pivot (r, c), in place.

    The rows are integers over the common denominator prev > 0.  Every
    row i != r becomes (p row_i - row_i[c] row_r) / prev, p = row_r[c];
    the division is exact (Bareiss 1968: the entries are minors of the
    starting rows).  The pivot row is left as it is.  When p < 0 every
    row is negated.  Returns |p|, the new common denominator.
    """
    pivot_row = rows[r]
    p = pivot_row[c]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and (f or p != prev):
            rows[i] = [(p * a - f * b) // prev for a, b in zip(row, pivot_row)]
    if p < 0:
        rows[:] = [[-x for x in row] for row in rows]
        p = -p
    return p


def row_reduce(rows: list[list[int]], width: int) -> tuple[int, list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place,
    pivoting greedily on the first `width` columns.

    Returns the common denominator and the pivot columns; pivot k ends
    in row k with the common denominator as its entry, and the rows
    below the pivots are zero in the first `width` columns.
    """
    nrows = len(rows)
    prev = 1
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prev = eliminate(rows, r, c, prev)
        pivots.append(c)
        if r + 1 == nrows:
            break
    return prev, pivots


def rref(matrix: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices: the row
    numerators reduced by `row_reduce`, and the pivot rows divided by the
    common denominator they end with."""
    rows = [list(r.nums) for r in matrix.rows]
    prev, pivots = row_reduce(rows, matrix.ncols)
    return (
        QMatrix([QVector.from_ints(row, prev) for row in rows]),
        tuple(pivots),
    )


def rank(matrix: QMatrix) -> int:
    """Pivot count of `row_reduce` on the row numerators."""
    rows = [list(r.nums) for r in matrix.rows]
    return len(row_reduce(rows, matrix.ncols)[1])


def row_space_basis(matrix: QMatrix) -> tuple[QVector, ...]:
    """RREF-canonical basis of the row space (no zero rows)."""
    reduced, pivots = rref(matrix)
    return tuple(reduced.rows[i] for i in range(len(pivots)))


def kernel_basis(matrix: QMatrix) -> tuple[QVector, ...]:
    """RREF-canonical basis of the null space {v : Mv = 0}; each
    spanning vector is taken times d, which the final RREF undoes.

    An empty tuple means the kernel is trivial.
    """
    reduced, pivots = rref(matrix)
    ncols = reduced.ncols
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    d = lcm(*(r.den for r in reduced.rows))
    vectors = []
    for free in free_cols:
        v = [0] * ncols
        v[free] = d
        for r, pc in zip(reduced.rows, pivots):
            v[pc] = -r.nums[free] * (d // r.den)
        vectors.append(QVector.from_ints(v))
    if not vectors:
        return ()
    return row_space_basis(QMatrix(vectors))


def solve(matrix: QMatrix, rhs: QVector) -> QVector | None:
    """One exact solution of Mx = b, or None when inconsistent."""
    if rhs.dim != matrix.nrows:
        raise ValueError("solve dimension mismatch")
    # row i of [M | b] times row.den * rhs.den
    augmented = QMatrix(
        QVector.from_ints((*(x * rhs.den for x in row.nums), b * row.den))
        for row, b in zip(matrix.rows, rhs.nums)
    )
    reduced, pivots = rref(augmented)
    ncols = matrix.ncols
    if ncols in pivots:
        return None
    x = [0] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = reduced.rows[i][ncols]
    return QVector(x)


def char_poly(matrix: QMatrix) -> QPolynomial:
    """Characteristic polynomial det(xI - M), monic, by division-free
    Berkowitz on the integer matrix A = D*M, D the common denominator of
    the entries.

    Bordering the leading k-by-k block A_k of A by its next row r,
    column c and diagonal entry a gives
    det(xI - A_(k+1)) as a Toeplitz product of det(xI - A_k) with
    1, -a, -r c, -r A_k c, ..., -r A_k^(k-1) c (Berkowitz 1984).  The
    coefficient of x^(n-k) of det(xI - A) is D^k times that of M, so
    there is one division per coefficient, at the end.
    """
    if not matrix.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = matrix.nrows
    a, d = matrix.int_rows()
    coeffs = [1]  # det(xI - A_k), descending
    for k in range(n):
        block = [a[i][:k] for i in range(k)]
        row = a[k][:k]
        col = [a[i][k] for i in range(k)]
        toeplitz = [1, -a[k][k]]
        for j in range(k):
            if j:
                col = [sum(map(mul, block_row, col)) for block_row in block]
            toeplitz.append(-sum(map(mul, row, col)))
        coeffs = [
            sum(toeplitz[i - j] * coeffs[j] for j in range(min(i, k) + 1))
            for i in range(k + 2)
        ]
    return QPolynomial.from_ints(
        [coeffs[n - i] * d**i for i in range(n + 1)], d**n
    )


def poly_of_matrix(poly: QPolynomial, matrix: QMatrix) -> QMatrix:
    """Evaluate p(M) by Horner's scheme on the integer matrix A = D*M,
    D the common denominator of the entries.

    With p's coefficients integers c_k over E, and
    m = deg p, E D^m p(M) = sum c_k D^(m-k) A^k: Horner multiplies by A
    and adds c_k D^(m-k) on the diagonal, and each row of p(M) is one
    QVector over E D^m at the end.
    """
    if not matrix.is_square():
        raise ValueError("polynomial of a non-square matrix")
    n = matrix.nrows
    if poly.is_zero():
        return QMatrix.zero(n, n)
    a, d = matrix.int_rows()
    coeffs, e = poly.nums, poly.den
    result = [[coeffs[-1] if i == j else 0 for j in range(n)] for i in range(n)]
    power = 1
    for c in reversed(coeffs[:-1]):
        power *= d
        cols = list(zip(*result))
        result = [[sum(map(mul, row, col)) for col in cols] for row in a]
        for i in range(n):
            result[i][i] += c * power
    return QMatrix(QVector.from_ints(row, e * power) for row in result)


class DefectiveEigenvalueError(ValueError):
    """Eigenvalue 1 carries a nontrivial Jordan block, so no projection
    onto the fixed space along the range of (I - M) exists."""


def fix_projection(matrix: QMatrix) -> QMatrix:
    """Projection onto ker(I - M) along range(I - M): F (G^T F)^-1 G^T,
    where the columns of F span ker(I - M) and those of G span
    ker((I - M)^T), whose orthogonal complement is range(I - M).  One
    RREF of [G^T F | G^T] leaves (G^T F)^-1 G^T in its right block.

    Returns the zero matrix when 1 is not an eigenvalue.  Raises
    DefectiveEigenvalueError when eigenvalue 1 is not semisimple, that
    is when G^T F is singular.
    """
    if not matrix.is_square():
        raise ValueError("projection of a non-square matrix")
    n = matrix.nrows
    complement = QMatrix.identity(n) - matrix
    fixed = kernel_basis(complement)
    if not fixed:
        return QMatrix.zero(n, n)
    f = QMatrix.from_columns(fixed)
    left = QMatrix(kernel_basis(complement.transpose()))
    # row i of [G^T F | G^T], taken times both row denominators
    augmented = QMatrix(
        QVector.from_ints((*(x * g.den for x in a.nums), *(x * a.den for x in g.nums)))
        for a, g in zip(left.matmul(f).rows, left.rows)
    )
    reduced, pivots = rref(augmented)
    k = len(fixed)
    if pivots != tuple(range(k)):
        raise DefectiveEigenvalueError(
            "eigenvalue 1 is defective: ker(I-M) meets range(I-M)"
        )
    # the leading block is I, so the right block is (G^T F)^-1 G^T
    right = QMatrix(QVector.from_ints(r.nums[k:], r.den) for r in reduced.rows)
    return f.matmul(right)


def intersect_kernels(matrices: list[QMatrix]) -> tuple[QVector, ...]:
    """Canonical basis of the intersection of the kernels of the inputs."""
    if not matrices:
        raise ValueError("empty matrix list")
    ncols = matrices[0].ncols
    if any(m.ncols != ncols for m in matrices):
        raise ValueError("ambient dimension mismatch")
    stacked = QMatrix([row for m in matrices for row in m.rows])
    return kernel_basis(stacked)
