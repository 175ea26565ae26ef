"""Exact vector/matrix arithmetic and kernel machinery.

Rank is cross-checked against a fraction-free Bareiss oracle, the
characteristic polynomial exactly against sympy and against
Cayley-Hamilton and numpy, and the
fixed-space projection against its defining algebraic identities.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from latfix.exactnum import linalg
from latfix.exactnum.linalg import (
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
from latfix.exactnum.rational import QMatrix, QVector, rat

from conftest import bareiss_rank, random_qmatrix, random_qvector, rng_for, to_numpy

fractions_st = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


# coprime and mixed denominators, so the common denominator of a matrix
# ranges from 1 to large products
denominators_st = st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9, 11, 12, 13))


@st.composite
def charpoly_matrix_st(draw):
    """Square matrices of size 1-8 with signed entries over mixed and
    coprime denominators, some rows entirely zero."""
    n = draw(st.integers(1, 8))
    rows = []
    for _ in range(n):
        if draw(st.booleans()) and draw(st.booleans()):
            rows.append([Fraction(0)] * n)
            continue
        rows.append(
            [
                Fraction(draw(st.integers(-12, 12)), draw(denominators_st))
                for _ in range(n)
            ]
        )
    return QMatrix(rows)


def qmatrix_st(max_dim: int = 5):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: st.lists(
                st.lists(fractions_st, min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            ).map(QMatrix)
        )
    )


class TestQVector:
    def test_arithmetic(self):
        u = QVector([1, rat("1/2"), -3])
        v = QVector([0, rat("3/2"), 1])
        assert u + v == QVector([1, 2, -2])
        assert u - v == QVector([1, -1, -4])
        assert (-u).scale(2) == QVector([-2, -1, 6])
        assert u.dot(v) == Fraction(3, 4) - 3

    def test_lattice_operations(self):
        u = QVector([1, -2, 0])
        assert u.abs() == QVector([1, 2, 0])
        assert u.cwise_max(QVector([0, 0, -1])) == QVector([1, 0, 0])
        assert u.support() == frozenset({0, 1})
        assert not u.is_nonneg()
        assert u.abs().is_nonneg()
        assert QVector([1, 0, 0]).ge(QVector([0, -1, 0]))
        assert not QVector([1, 0, 0]).ge(QVector([2, 0, 0]))

    def test_norms(self):
        u = QVector([rat("1/2"), -2, rat("3/2")])
        assert u.sup_norm() == 2
        assert u.one_norm() == 4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            QVector([1]) + QVector([1, 2])


class TestRat:
    def test_rejects_bool(self):
        for flag in (True, False):
            with pytest.raises(TypeError):
                rat(flag)
        with pytest.raises(TypeError):
            QVector([True, False])

    def test_zero_denominator_is_value_error(self):
        for text in ("1/0", " -3/0 ", "0/0"):
            with pytest.raises(ValueError):
                rat(text)

    def test_surrounding_whitespace(self):
        assert rat(" 3/4\n") == Fraction(3, 4)
        assert rat("\t-2 ") == -2


class TestQMatrix:
    def test_matvec_and_matmul(self):
        a = QMatrix([[1, 2], [3, 4]])
        assert a @ QVector([1, -1]) == QVector([-1, -1])
        assert a @ QMatrix.identity(2) == a
        assert a.power(0) == QMatrix.identity(2)
        assert a.power(3) == a @ a @ a

    def test_transpose(self):
        a = QMatrix([[1, 2], [3, 4]])
        assert a.transpose() == QMatrix([[1, 3], [2, 4]])


class TestRref:
    @given(qmatrix_st())
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_bareiss(self, a):
        assert rank(a) == bareiss_rank(a)

    @given(qmatrix_st())
    @settings(max_examples=60, deadline=None)
    def test_rref_pivots_are_unit_columns(self, a):
        r, pivots = rref(a)
        for k, j in enumerate(pivots):
            col = [r.entry(i, j) for i in range(r.nrows)]
            assert col[k] == 1
            assert all(x == 0 for i, x in enumerate(col) if i != k)

    def test_row_space_canonical(self):
        # two bases of the same plane must normalize identically
        b1 = row_space_basis(QMatrix([[1, 1, 0], [0, 1, 1]]))
        b2 = row_space_basis(QMatrix([[1, 2, 1], [2, 3, 1]]))
        assert b1 == b2


class TestKernel:
    @given(qmatrix_st())
    @settings(max_examples=60, deadline=None)
    def test_kernel_vectors_annihilate(self, a):
        basis = kernel_basis(a)
        assert len(basis) == a.ncols - bareiss_rank(a)
        for v in basis:
            assert (a @ v).is_zero()
        # independence of the kernel basis itself
        if basis:
            assert bareiss_rank(QMatrix(basis)) == len(basis)

    def test_intersect_kernels(self):
        # the joint kernel of two matrices is the kernel of their
        # stacked rows
        a = QMatrix([[1, -1, 0]])
        b = QMatrix([[0, 1, -1]])
        assert kernel_basis(QMatrix(a.rows + b.rows)) == (QVector([1, 1, 1]),)

    def test_solve_consistent_and_inconsistent(self):
        a = QMatrix([[1, 2], [2, 4]])
        assert solve(a, QVector([1, 2])) is not None
        assert solve(a, QVector([1, 3])) is None
        x = solve(QMatrix([[2, 1], [1, 1]]), QVector([3, 2]))
        assert x == QVector([1, 1])


@st.composite
def elimination_matrix_st(draw, square=False):
    """Wide, tall and square matrices of size up to 6 x 7 over mixed and
    coprime denominators, rank-deficient as often as not: rows are
    rational combinations of at most as many generators as there are
    rows, and some rows are zero."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 7))

    def scalar():
        return Fraction(draw(st.integers(-9, 9)), draw(denominators_st))

    generators = [
        [scalar() for _ in range(ncols)]
        for _ in range(draw(st.integers(1, nrows)))
    ]
    rows = []
    for _ in range(nrows):
        if draw(st.integers(0, 5)) == 0:
            rows.append([Fraction(0)] * ncols)
            continue
        weights = [scalar() for _ in generators]
        rows.append(
            [sum(w * g[j] for w, g in zip(weights, generators)) for j in range(ncols)]
        )
    return QMatrix(rows)


def to_sympy(a: QMatrix) -> sympy.Matrix:
    return sympy.Matrix(
        a.nrows,
        a.ncols,
        [sympy.Rational(x.numerator, x.denominator) for row in a.rows for x in row],
    )


def from_sympy(m: sympy.Matrix) -> list[list[Fraction]]:
    return [
        [Fraction(int(m[i, j].p), int(m[i, j].q)) for j in range(m.cols)]
        for i in range(m.rows)
    ]


class TestAgainstSympy:
    """The fraction-free elimination against sympy's, exactly."""

    @given(elimination_matrix_st())
    @settings(max_examples=150, deadline=None)
    def test_rref(self, a):
        expected, expected_pivots = to_sympy(a).rref()
        reduced, pivots = rref(a)
        assert [list(r) for r in reduced.rows] == from_sympy(expected)
        assert pivots == expected_pivots
        assert all(type(x) is Fraction for r in reduced.rows for x in r)

    @given(elimination_matrix_st())
    @example(QMatrix([]))
    @example(QMatrix.zero(2, 5))
    @example(QMatrix.zero(5, 2))
    @settings(max_examples=150, deadline=None)
    def test_kernel_basis(self, a):
        nullspace = to_sympy(a).nullspace()
        if not nullspace:
            assert kernel_basis(a) == ()
            return
        # sympy's kernel vectors, brought to RREF
        canonical = sympy.Matrix.hstack(*nullspace).T.rref()[0]
        expected = [row for row in from_sympy(canonical) if any(row)]
        assert [list(v) for v in kernel_basis(a)] == expected

    @given(elimination_matrix_st(square=True))
    # I - A is a Jordan block at 1 beside a fixed vector: defective
    @example(QMatrix([[0, -1, 0], [0, 0, 0], [0, 0, 0]]))
    # A invertible: 1 is not an eigenvalue of I - A
    @example(QMatrix([[rat("1/2"), 1], [0, rat("2/3")]]))
    @settings(max_examples=100, deadline=None)
    def test_fix_projection(self, a):
        """fix_projection(I - A) against sympy's change of basis: the
        kernel of A and its column space as columns of B, and the
        projection B diag(1, ..., 1, 0, ..., 0) B^-1 keeping the kernel
        coordinates; a singular B means eigenvalue 1 is defective."""
        n = a.nrows
        m = QMatrix.identity(n) - a
        oracle = to_sympy(a)
        fixed = oracle.nullspace()
        if not fixed:
            assert fix_projection(m) == QMatrix.zero(n, n)
            return
        basis = sympy.Matrix.hstack(*fixed, *oracle.columnspace())
        if basis.rank() < n:
            with pytest.raises(DefectiveEigenvalueError):
                fix_projection(m)
            return
        keep = sympy.diag(*([1] * len(fixed) + [0] * (n - len(fixed))))
        expected = basis * keep * basis.inv()
        assert [list(r) for r in fix_projection(m).rows] == from_sympy(expected)


class TestOneReduction:
    """`kernel_basis` reads the null space off one `row_reduce` and
    `fix_projection` reads P off two, with no RREF, kernel, transpose
    or product in between."""

    def count_calls(self, monkeypatch):
        calls = Counter()

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("row_reduce", "rref", "kernel_basis"):
            counting(linalg, name)
        counting(QMatrix, "transpose")
        counting(QMatrix, "matmul")
        return calls

    def test_kernel_basis_is_one_reduction(self, monkeypatch):
        a = QMatrix([[1, 2, 0, 3], [2, 4, 1, 1], [3, 6, 1, 4]])
        calls = self.count_calls(monkeypatch)
        # the kernel is spanned by (-2, 1, 0, 0) and (-3, 0, 5, 1)
        assert kernel_basis(a) == (
            QVector([1, 0, rat("-5/3"), rat("-1/3")]),
            QVector([0, 1, rat("-10/3"), rat("-2/3")]),
        )
        assert calls == Counter(row_reduce=1)

    def test_fix_projection_is_two_reductions(self, monkeypatch):
        third = rat("1/3")
        a = QMatrix([[1, 0, 0], [third, third, third], [0, 0, 1]])
        calls = self.count_calls(monkeypatch)
        assert fix_projection(a) == QMatrix(
            [[1, 0, 0], [rat("1/2"), 0, rat("1/2")], [0, 0, 1]]
        )
        assert calls == Counter(row_reduce=2)
        calls.clear()
        # no eigenvalue 1: the first reduction already decides
        assert fix_projection(a.scale(rat("1/2"))) == QMatrix.zero(3, 3)
        assert calls == Counter(row_reduce=1)
        calls.clear()
        with pytest.raises(DefectiveEigenvalueError):
            fix_projection(QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
        assert calls == Counter(row_reduce=2)


class TestCharPoly:
    @given(st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_cayley_hamilton(self, n):
        rng = rng_for(f"cayley-{n}")
        a = random_qmatrix(rng, n, n)
        p = char_poly(a)
        assert p.degree == n
        assert p.leading == 1
        assert poly_of_matrix(p, a) == QMatrix.zero(n, n)

    def test_matches_numpy(self):
        rng = rng_for("charpoly-numpy")
        for _ in range(10):
            a = random_qmatrix(rng, 4, 4)
            ours = [float(c) for c in char_poly(a).coeffs]
            # numpy returns leading-first coefficients
            theirs = np.poly(to_numpy(a))[::-1]
            assert np.allclose(ours, theirs, atol=1e-6)

    @given(charpoly_matrix_st())
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy_exactly(self, a):
        oracle = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a.rows]
        ).charpoly().all_coeffs()
        # sympy lists the leading coefficient first
        expected = [Fraction(int(c.p), int(c.q)) for c in reversed(oracle)]
        assert list(char_poly(a).coeffs) == expected

    def test_constant_terms(self):
        a = QMatrix([[2, 1], [1, 2]])
        p = char_poly(a)
        # det = p(0) * (-1)^n, trace = -second-highest coefficient
        assert p.evaluate(0) == 3
        assert p.coeffs[1] == -4


class TestFixProjection:
    def test_projects_onto_fixed_space(self):
        rng = rng_for("fixproj")
        for _ in range(15):
            n = rng.randint(1, 5)
            rows = []
            for _ in range(n):
                nums = [rng.randint(0, 9) for _ in range(n)]
                nums[rng.randrange(n)] += 1
                total = sum(nums)
                rows.append(QVector(Fraction(v, total) for v in nums))
            a = QMatrix(rows)  # row stochastic: eigenvalue 1 is semisimple
            p = fix_projection(a)
            assert p @ p == p
            assert a @ p == p
            assert p @ a == p
            for v in kernel_basis(QMatrix.identity(n) - a):
                assert p @ v == v

    def test_zero_matrix_when_one_not_eigenvalue(self):
        a = QMatrix([[rat("1/2"), 0], [0, rat("1/3")]])
        assert fix_projection(a) == QMatrix.zero(2, 2)

    def test_defective_eigenvalue_raises(self):
        jordan = QMatrix([[1, 1], [0, 1]])
        with pytest.raises(DefectiveEigenvalueError):
            fix_projection(jordan)
        # a Jordan block beside a semisimple fixed vector
        with pytest.raises(DefectiveEigenvalueError):
            fix_projection(QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


class TestRandomVectors:
    def test_generator_shapes(self):
        rng = rng_for("shapes")
        v = random_qvector(rng, 4)
        assert v.dim == 4
