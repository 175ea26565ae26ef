"""Exact linear algebra over the rationals.

`eliminate` is the one row step of the package: a fraction-free
(Bareiss) Gauss-Jordan step on integer rows that share one common
denominator.  `row_reduce` (and through it rank, RREF, solving, kernels
and the fixed-space projection) and the simplex in `conegeom.simplex`
reduce with it and with nothing else; double description in
`conegeom.core` starts from a subspace's RREF basis and reduces
nothing.  No step pays a gcd; rows enter as their
`QVector` numerators (scaling a row keeps its RREF) and leave as
`QVector`s over the final common denominator.

Kernel bases are canonical: one reduction with the columns reversed
yields the RREF basis of the null space by back substitution, so equal
subspaces always yield identical bases.  The characteristic polynomial
is computed with division-free Berkowitz on plain integers, after
clearing one common denominator, into a `QPolynomial`'s ``nums`` over
``den``; `poly_of_matrix` runs Horner's scheme on the same integer matrix.
"""
from __future__ import annotations

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
    """RREF-canonical basis of the null space {v : Mv = 0}, or () when
    it is trivial, from one `row_reduce` with the columns reversed.

    Back substitution gives one null vector per free column, zero at the
    other free columns; the pivot rows reach only later columns in the
    original order, so the free column is its first nonzero entry.
    Scaled to a leading 1 and ordered by free column, these vectors are
    the RREF basis itself, so equal kernels give identical bases.
    """
    ncols = matrix.ncols
    rows = [list(r.nums[::-1]) for r in matrix.rows]
    prev, pivots = row_reduce(rows, ncols)
    vectors = []
    for free in sorted(set(range(ncols)) - set(pivots), reverse=True):
        v = [0] * ncols
        v[free] = prev
        for row, pc in zip(rows, pivots):
            v[pc] = -row[free]
        vectors.append(QVector.from_ints(v[::-1], prev))
    return tuple(vectors)


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
    """Projection P onto ker(I - M) along range(I - M), from two
    `row_reduce` calls; the zero matrix when 1 is not an eigenvalue.

    With the rows of G^T spanning the left kernel of I - M, whose
    orthogonal complement is range(I - M), P is the unique solution of
    (I - M) P = 0 (fixed columns) and G^T P = G^T (columns of I - P in
    range(I - M)).  The system is singular, a DefectiveEigenvalueError,
    exactly when ker(I - M) meets range(I - M): when eigenvalue 1 is not
    semisimple.  Reducing [I - M | I] leaves G^T in the right block of
    the rows that are zero on the left; reducing the pivot rows beside a
    zero block, stacked on [G^T | G^T], leaves den * [I | P].
    """
    if not matrix.is_square():
        raise ValueError("projection of a non-square matrix")
    n = matrix.nrows
    # row i of [I - M | I], taken times the row's denominator
    rows = [
        [r.den * (i == j) - x for j, x in enumerate(r.nums)]
        + [r.den * (i == j) for j in range(n)]
        for i, r in enumerate(matrix.rows)
    ]
    k = len(row_reduce(rows, n)[1])
    if k == n:
        return QMatrix.zero(n, n)
    system = [row[:n] + [0] * n for row in rows[:k]]
    system += [row[n:] * 2 for row in rows[k:]]  # [G^T | G^T]
    den, pivots = row_reduce(system, n)
    if len(pivots) < n:
        raise DefectiveEigenvalueError(
            "eigenvalue 1 is defective: ker(I-M) meets range(I-M)"
        )
    return QMatrix(QVector.from_ints(row[n:], den) for row in system)
