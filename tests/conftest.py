"""Shared generators and independent oracles for the test suite.

Oracles here must not reuse the implementation's algorithms: rank is
recomputed with Bareiss elimination over integers, eigenvalues with
numpy, polynomial factorizations with sympy, linear programs with
scipy.  Generators are deterministic (seeded random.Random) so every
run sees the same instances.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from latfix.conegeom import Subspace
from latfix.exactnum.polynomials import QPolynomial
from latfix.exactnum.rational import QMatrix, QVector, rat


# ---------------------------------------------------------------------------
# deterministic generators


def rng_for(label: str) -> random.Random:
    """One stream per test, independent of execution order."""
    return random.Random(f"latfix-tests::{label}")


def random_fraction(rng: random.Random, span: int = 6, den_max: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den_max))


def random_qvector(rng: random.Random, dim: int, **kw) -> QVector:
    return QVector(random_fraction(rng, **kw) for _ in range(dim))


def random_qmatrix(rng: random.Random, nrows: int, ncols: int, **kw) -> QMatrix:
    return QMatrix(
        [QVector(random_fraction(rng, **kw) for _ in range(ncols)) for _ in range(nrows)]
    )


def random_substochastic(rng: random.Random, dim: int) -> QMatrix:
    """Nonnegative rows with sums at most one (sup-norm contraction)."""
    rows = []
    for _ in range(dim):
        den = rng.randint(2, 12)
        nums = [rng.randint(0, den) for _ in range(dim)]
        scale = max(sum(nums), den)
        rows.append(QVector(Fraction(a, scale) for a in nums))
    return QMatrix(rows)


def random_row_stochastic(rng: random.Random, dim: int) -> QMatrix:
    """Nonnegative rows with sums exactly one, so 1 is an eigenvalue."""
    rows = []
    for _ in range(dim):
        nums = [rng.randint(0, 9) for _ in range(dim)]
        nums[rng.randrange(dim)] += 1  # keep the row nonzero
        total = sum(nums)
        rows.append(QVector(Fraction(a, total) for a in nums))
    return QMatrix(rows)


def random_column_stochastic(rng: random.Random, dim: int) -> QMatrix:
    return random_row_stochastic(rng, dim).transpose()


def random_subspace_mix(rng: random.Random, index: int) -> Subspace:
    """Mixture covering all three verdicts: generic spans, spans of
    positive vectors, and disjoint-support sublattices."""
    n = rng.randint(2, 6)
    kind = index % 3
    if kind == 0:
        d = rng.randint(1, n - 1)
        vecs = [random_qvector(rng, n, span=4, den_max=4) for _ in range(d)]
    elif kind == 1:
        d = rng.randint(1, min(3, n - 1))
        vecs = [
            QVector(Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n))
            for _ in range(d)
        ]
    else:
        d = rng.randint(1, n)
        parts = [j % d for j in range(n)]
        rng.shuffle(parts)
        vecs = [
            QVector(
                Fraction(rng.randint(1, 5)) if parts[j] == i else Fraction(0)
                for j in range(n)
            )
            for i in range(d)
        ]
    return Subspace.from_vectors(n, vecs)


def cycle_matrix(n: int) -> QMatrix:
    """Permutation matrix of one n-cycle."""
    return QMatrix(
        [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    )


def block_diag(*blocks: QMatrix) -> QMatrix:
    n = sum(b.nrows for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i in range(b.nrows):
            for j in range(b.ncols):
                rows[offset + i][offset + j] = b.rows[i][j]
        offset += b.nrows
    return QMatrix(rows)


def random_nonneg_poly_coeffs(
    rng: random.Random, degree: int, total: Fraction
) -> list[Fraction]:
    """Nonnegative rationals of the given length summing to total."""
    weights = [rng.randint(0, 6) for _ in range(degree + 1)]
    if sum(weights) == 0:
        weights[rng.randrange(degree + 1)] = 1
    s = sum(weights)
    return [Fraction(w, s) * total for w in weights]


def poly_from_roots(roots) -> QPolynomial:
    """Monic polynomial with the given rational roots."""
    p = QPolynomial.one()
    for r in roots:
        p = p * QPolynomial((-rat(r), 1))
    return p


def poly_of(matrix: QMatrix, coeffs: list[Fraction]) -> QMatrix:
    out = QMatrix.zero(matrix.nrows, matrix.ncols)
    p = QMatrix.identity(matrix.nrows)
    for c in coeffs:
        out = out + p.scale(c)
        p = p @ matrix
    return out


# ---------------------------------------------------------------------------
# independent oracles


def bareiss_rank(matrix: QMatrix) -> int:
    """Fraction-free rank over the integers after clearing denominators."""
    if matrix.nrows == 0 or matrix.ncols == 0:
        return 0
    scale = 1
    for row in matrix.rows:
        for x in row:
            scale = scale * x.denominator // _gcd(scale, x.denominator)
    a = [[int(x * scale) for x in row] for row in matrix.rows]
    m, n = len(a), len(a[0])
    rank = 0
    prev = 1
    for col in range(n):
        pivot_row = next(
            (r for r in range(rank, m) if a[r][col] != 0), None
        )
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        for r in range(rank + 1, m):
            for c in range(col + 1, n):
                a[r][c] = (a[rank][col] * a[r][c] - a[r][col] * a[rank][c]) // prev
            a[r][col] = 0
        prev = a[rank][col]
        rank += 1
        if rank == m:
            break
    return rank


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def to_numpy(matrix: QMatrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in matrix.rows], dtype=float)


def vec_to_numpy(v: QVector) -> np.ndarray:
    return np.array([float(x) for x in v], dtype=float)
