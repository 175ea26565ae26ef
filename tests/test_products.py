"""Integer product kernels against their `Fraction` references.

`QVector.dot`, `QMatrix.matvec`, `QMatrix.matmul` (and `@`, `power`),
`Subspace.from_coefficients`/`coefficients_of`, `operator_norm` and
`poly_of_matrix` are integer sums over the operands' denominators.
Hypothesis compares them exactly with the term-by-term `Fraction`
versions in `product_oracles.py`, on mixed and coprime denominators,
signed and zero entries, and empty and 1x1 shapes; every output entry
must be a `Fraction` itself.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latfix.conegeom import Subspace
from latfix.exactnum.linalg import poly_of_matrix
from latfix.exactnum.polynomials import QPolynomial
from latfix.exactnum.rational import QMatrix, QVector
from latfix.opcore import (
    ONE_NORM,
    SUP_NORM,
    PositiveMatrixOperator,
    operator_norm,
    weighted_one_norm,
)

from product_oracles import (
    reference_coefficients_of,
    reference_dot,
    reference_from_coefficients,
    reference_matmul,
    reference_matvec,
    reference_operator_norm,
    reference_poly_of_matrix,
)

# coprime and mixed denominators, one of them large, so row and column
# denominators differ and their products do not reduce away
denominators_st = st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 10**12 + 39))
entry_st = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-20, 20), denominators_st),
)
nonneg_entry_st = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(1, 20), denominators_st),
)


def vector_st(dim: int, entries=entry_st):
    return st.lists(entries, min_size=dim, max_size=dim).map(QVector)


def matrix_st(nrows: int, ncols: int, entries=entry_st):
    """nrows x ncols; with no rows the matrix is 0 x 0."""
    return st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    ).map(QMatrix)


@st.composite
def product_pair_st(draw):
    """(a, b) with a.ncols == b.nrows: 0-row, 0-column and 1x1 shapes
    included.  A matrix without rows has no columns either."""
    r = draw(st.integers(0, 4))
    k = draw(st.integers(0, 4)) if r else 0
    c = draw(st.integers(0, 4)) if k else 0
    return draw(matrix_st(r, k)), draw(matrix_st(k, c))


@st.composite
def subspace_st(draw):
    """A subspace of R^n, n 0-5, spanned by 0-4 drawn vectors, and its
    RREF basis."""
    n = draw(st.integers(0, 5))
    vectors = draw(st.lists(vector_st(n), max_size=4))
    return Subspace.from_vectors(n, vectors)


def assert_all_fractions(values) -> None:
    assert all(type(x) is Fraction for x in values)


class TestDotAndMatvec:
    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(vector_st(n), vector_st(n))))
    @settings(max_examples=150, deadline=None)
    def test_dot_matches_reference(self, pair):
        x, y = pair
        value = x.dot(y)
        assert value == reference_dot(x, y)
        assert type(value) is Fraction

    @given(product_pair_st())
    @settings(max_examples=150, deadline=None)
    def test_matvec_matches_reference(self, pair):
        a, b = pair
        for col in b.transpose().rows or [QVector.zero(a.ncols)]:
            out = a.matvec(col)
            assert out == reference_matvec(a, col)
            assert_all_fractions(out)
            assert a @ col == out

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            QVector([1, 2]).dot(QVector([1]))
        with pytest.raises(ValueError):
            QMatrix([[1, 2]]).matvec(QVector([1]))
        with pytest.raises(ValueError):
            QMatrix([[1, 2]]).matmul(QMatrix([[1, 2]]))


class TestMatmul:
    @given(product_pair_st())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, pair):
        a, b = pair
        product = a.matmul(b)
        assert product == reference_matmul(a, b)
        assert product.shape == (a.nrows, b.ncols)
        for row in product.rows:
            assert_all_fractions(row)
        assert a @ b == product

    @given(
        st.integers(0, 3).flatmap(lambda n: matrix_st(n, n)),
        st.integers(0, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_power_matches_repeated_reference(self, m, k):
        expected = QMatrix.identity(m.nrows)
        for _ in range(k):
            expected = reference_matmul(expected, m)
        result = m.power(k)
        assert result == expected
        for row in result.rows:
            assert_all_fractions(row)


class TestPolyOfMatrix:
    @given(
        st.integers(0, 4).flatmap(lambda n: matrix_st(n, n)),
        st.lists(entry_st, max_size=5).map(QPolynomial),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, m, p):
        result = poly_of_matrix(p, m)
        assert result == reference_poly_of_matrix(p, m)
        assert result.shape == m.shape
        for row in result.rows:
            assert_all_fractions(row)

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="non-square"):
            poly_of_matrix(QPolynomial([1, 1]), QMatrix([[1, 2]]))


class TestSubspaceCombinations:
    @given(subspace_st(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_from_coefficients_matches_reference(self, f, data):
        c = data.draw(vector_st(f.dim))
        v = f.from_coefficients(c)
        assert v == reference_from_coefficients(f, c)
        assert_all_fractions(v)
        assert f.coefficients_of(v) == c

    @given(subspace_st(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_coefficients_of_matches_reference(self, f, data):
        v = data.draw(vector_st(f.ambient_dim))
        c = f.coefficients_of(v)
        assert c == reference_coefficients_of(f, v)
        if c is not None:
            assert_all_fractions(c)

    @given(subspace_st(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_vector_outside_is_none(self, f, data):
        # off the pivot columns the coefficients read at the pivots do
        # not see the added unit vector; only the rebuilt check does
        pivots = {next(j for j, x in enumerate(b) if x) for b in f.basis}
        free = [j for j in range(f.ambient_dim) if j not in pivots]
        if not free:
            return
        c = data.draw(vector_st(f.dim))
        j = data.draw(st.sampled_from(free))
        v = f.from_coefficients(c) + QVector.unit(f.ambient_dim, j)
        assert f.coefficients_of(v) is None
        assert reference_coefficients_of(f, v) is None
        assert not f.contains(v)


class TestOperatorNorm:
    @given(st.integers(0, 4).flatmap(lambda n: matrix_st(n, n, nonneg_entry_st)))
    @settings(max_examples=150, deadline=None)
    def test_sup_and_one_norms_match_reference(self, m):
        for tag in (SUP_NORM, ONE_NORM):
            op = PositiveMatrixOperator(m, tag)
            norm = operator_norm(op)
            assert norm == reference_operator_norm(op)
            assert type(norm) is Fraction

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                matrix_st(n, n, nonneg_entry_st),
                vector_st(n, st.builds(Fraction, st.integers(1, 20), denominators_st)),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_weighted_one_norm_matches_reference(self, pair):
        m, weights = pair
        op = PositiveMatrixOperator(m, weighted_one_norm(weights))
        norm = operator_norm(op)
        assert norm == reference_operator_norm(op)
        assert type(norm) is Fraction
