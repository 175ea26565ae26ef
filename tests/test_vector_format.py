"""The integer vector format against the `Fraction`-tuple reference.

A `QVector` is integers `nums` over one positive denominator `den` with
gcd(den, *nums) == 1.  Hypothesis checks every `QVector` and `QMatrix`
operation for exact equality with `vector_oracles.py`, on mixed, coprime
and 10^12-size denominators, zero entries and empty vectors, and checks
that every result is in that unique form.  A guard then counts
`Fraction` constructions: the integer kernels, the characteristic
polynomial and the spectral tail build none from `QVector` and
`QPolynomial` inputs.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from latfix.conegeom import Subspace
from latfix.conegeom.core import extreme_rays_of_inequality_cone
from latfix.exactnum import polynomials
from latfix.exactnum.linalg import (
    char_poly,
    fix_projection,
    kernel_basis,
    poly_of_matrix,
    rank,
)
from latfix.exactnum.polynomials import (
    QPolynomial,
    cyclotomic,
    cyclotomic_division,
    has_unimodular_root,
    poly_gcd,
    sturm_count,
)
from latfix.exactnum.rational import ONE, QMatrix, QVector
from latfix import serialize as ser
from latfix.seqspace import (
    C_ZERO,
    L_INFTY,
    ZERO_CHAIN,
    ChainDecl,
    GridDecl,
    IndexSchema,
    LinearFunctionalSpec,
    SymbolicVector,
    chain_value,
    pointwise_sup,
)

from vector_oracles import FMatrix, FVector

denominators_st = st.sampled_from(
    (1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 10**12, 10**12 + 39)
)
entry_st = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10**13, 10**13), denominators_st),
    st.builds(Fraction, st.integers(-20, 20), denominators_st),
)
scalar_st = entry_st


def entries_st(dim: int):
    return st.lists(entry_st, min_size=dim, max_size=dim)


dim_st = st.integers(0, 5)


@st.composite
def pair_st(draw):
    n = draw(dim_st)
    return draw(entries_st(n)), draw(entries_st(n))


@st.composite
def matrix_entries_st(draw, nrows=None, ncols=None):
    r = draw(st.integers(0, 4)) if nrows is None else nrows
    c = (draw(st.integers(0, 4)) if r else 0) if ncols is None else ncols
    return [draw(entries_st(c)) for _ in range(r)]


def assert_canonical(v: QVector) -> None:
    assert type(v.den) is int and v.den > 0
    assert all(type(x) is int for x in v.nums)
    assert gcd(v.den, *v.nums) == 1


def assert_same(q: QVector, f: FVector) -> None:
    assert_canonical(q)
    assert q.entries == f.entries
    assert all(type(x) is Fraction for x in q.entries)


def assert_same_matrix(q: QMatrix, f: FMatrix) -> None:
    assert q.nrows == f.nrows and q.ncols == f.ncols
    for qr, fr in zip(q.rows, f.rows):
        assert_same(qr, fr)


class TestCanonicalForm:
    def test_half(self):
        u, v = QVector([Fraction(2, 4)]), QVector.from_ints([2], 4)
        assert u == v
        assert (u.nums, u.den) == (v.nums, v.den) == ((1,), 2)
        assert hash(u) == hash(v)

    def test_denominator_must_be_positive(self):
        for den in (0, -2):
            with pytest.raises(ValueError):
                QVector.from_ints([1], den)

    def test_zero_and_empty(self):
        assert (QVector([]).nums, QVector([]).den) == ((), 1)
        assert QVector.from_ints([], 7) == QVector([])
        assert QVector.from_ints([0, 0], 10**12) == QVector.zero(2)
        assert QVector.zero(3).den == 1

    @given(entries_st(4) | dim_st.flatmap(entries_st))
    def test_views(self, entries):
        q, f = QVector(entries), FVector(entries)
        assert_same(q, f)
        assert list(q) == list(f.entries)
        assert [q[i] for i in range(q.dim)] == list(f.entries)
        assert q.dim == len(q) == f.dim
        assert q.den == lcm(*(x.denominator for x in f.entries))

    @given(st.lists(st.integers(-10**13, 10**13), max_size=5), denominators_st)
    def test_from_ints(self, nums, den):
        q = QVector.from_ints(nums, den)
        p = QVector(Fraction(x, den) for x in nums)
        assert_canonical(q)
        assert (q.nums, q.den) == (p.nums, p.den)
        assert q == p and hash(q) == hash(p)

    @given(pair_st())
    def test_equality_and_hash(self, pair):
        a, b = pair
        qa, qb = QVector(a), QVector(b)
        assert (qa == qb) == (FVector(a) == FVector(b))
        assert qa == QVector(a) and hash(qa) == hash(QVector(a))
        assert qa != a


class TestVectorOperations:
    @settings(max_examples=150)
    @given(pair_st(), scalar_st)
    def test_against_fraction_tuples(self, pair, c):
        a, b = pair
        qa, qb, fa, fb = QVector(a), QVector(b), FVector(a), FVector(b)
        assert_same(qa + qb, fa + fb)
        assert_same(qa - qb, fa - fb)
        assert_same(-qa, -fa)
        assert_same(qa.scale(c), fa.scale(c))
        assert_same(qa.abs(), fa.abs())
        assert_same(qa.cwise_max(qb), fa.cwise_max(fb))
        assert qa.dot(qb) == fa.dot(fb)
        assert qa.ge(qb) == fa.ge(fb) and qb.ge(qa) == fb.ge(fa)
        assert qa.is_nonneg() == fa.is_nonneg()
        assert qa.is_zero() == fa.is_zero()
        assert qa.support() == fa.support()
        assert qa.sup_norm() == fa.sup_norm()
        assert qa.one_norm() == fa.one_norm()

    @given(dim_st, st.data())
    def test_zero_and_unit(self, n, data):
        assert_same(QVector.zero(n), FVector.zero(n))
        if n:
            k = data.draw(st.integers(0, n - 1))
            assert_same(QVector.unit(n, k), FVector.unit(n, k))

    def test_dimension_mismatch(self):
        for op in ("__add__", "__sub__", "cwise_max", "dot", "ge"):
            with pytest.raises(ValueError):
                getattr(QVector([1]), op)(QVector([1, 2]))


@st.composite
def product_st(draw):
    """(a, b) with a.ncols == b.nrows; a matrix without rows has no
    columns."""
    r = draw(st.integers(0, 4))
    k = draw(st.integers(0, 4)) if r else 0
    c = draw(st.integers(0, 4)) if k else 0
    return draw(matrix_entries_st(r, k)), draw(matrix_entries_st(k, c))


class TestMatrixOperations:
    @settings(max_examples=150)
    @given(product_st(), st.data())
    def test_products(self, pair, data):
        a, b = pair
        qa, qb, fa, fb = QMatrix(a), QMatrix(b), FMatrix(a), FMatrix(b)
        assert_same_matrix(qa.matmul(qb), fa.matmul(fb))
        assert_same_matrix(qa @ qb, fa.matmul(fb))
        v = data.draw(entries_st(qa.ncols))
        assert_same(qa.matvec(QVector(v)), fa.matvec(FVector(v)))
        assert_same(qa @ QVector(v), fa.matvec(FVector(v)))

    @given(matrix_entries_st(), scalar_st)
    def test_shape_operations(self, rows, c):
        q, f = QMatrix(rows), FMatrix(rows)
        assert_same_matrix(q.transpose(), f.transpose())
        assert_same_matrix(q.scale(c), f.scale(c))
        assert_same_matrix(q + q.scale(c), f + f.scale(c))
        assert_same_matrix(q - q.scale(c), f - f.scale(c))
        assert q.is_nonneg() == f.is_nonneg()
        ints, d = q.int_rows()
        assert d == lcm(*(x.denominator for r in f.rows for x in r.entries))
        assert ints == tuple(tuple(x * d for x in r.entries) for r in f.rows)

    def test_int_rows_are_computed_once_as_tuples(self):
        q = QMatrix([[Fraction(1, 2), 3], [Fraction(-1, 3), 0]])
        ints = q.int_rows()
        assert q.int_rows() is ints
        assert ints == (((3, 18), (-2, 0)), 6)
        assert type(ints[0]) is tuple and all(type(r) is tuple for r in ints[0])
        # every product with q reads the one integer form
        q.matvec(QVector([1, 1]))
        QMatrix.identity(2).matmul(q)
        q.transpose()
        assert q.int_rows() is ints

    @given(st.integers(0, 3).flatmap(lambda n: matrix_entries_st(n, n)), st.integers(0, 3))
    def test_power_identity_zero(self, rows, k):
        q, f = QMatrix(rows), FMatrix(rows)
        assert_same_matrix(q.power(k), f.power(k))
        n = q.nrows
        assert_same_matrix(QMatrix.identity(n), FMatrix.identity(n))
        assert_same_matrix(QMatrix.zero(n, n + 1), FMatrix.zero(n, n + 1))


def count_fraction_builds(monkeypatch) -> list:
    """Patch `Fraction.__new__` to record the arguments of every
    construction from here on, in the list returned."""
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    Fraction(1, 3)
    assert built == [(1, 3)]  # the patch sees every construction
    built.clear()
    return built


class TestNoFractionBuilt:
    """The integer kernels read `nums`/`den` and build no `Fraction` from
    `QVector` and `QPolynomial` inputs, the JSON input edge builds none
    from "p/q" and "p" strings, and symbolic-vector arithmetic builds none
    from its chains."""

    def test_kernels_build_no_fraction(self, monkeypatch):
        h = Fraction(1, 2)
        m = QMatrix([[h, Fraction(1, 3), 0, 1], [2, Fraction(-5, 10**12), 1, h],
                     [Fraction(5, 2), Fraction(1, 3), 1, Fraction(3, 2)]])
        b = QMatrix([[1, h], [Fraction(2, 3), 0], [0, 7], [Fraction(-1, 9), 1]])
        f = Subspace.from_vectors(4, m.rows)
        c = QVector([1, Fraction(-1, 3), h])
        outside = QVector([1, 0, 0, 0])
        # substochastic with an eigenvalue 1 and a 2-cycle: chi has the
        # roots 1, -1 and 1/3
        s = QMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0],
                     [Fraction(1, 3), 0, Fraction(1, 3), Fraction(1, 3)]])
        g = QPolynomial([Fraction(-1, 3), 0, 1, Fraction(5, 7)])

        def kernels():
            v = f.from_coefficients(c)
            chi = char_poly(s)
            algebraic, rest = cyclotomic_division(chi)
            return (rank(m), m.matmul(b), v, f.coefficients_of(v),
                    f.coefficients_of(outside), extreme_rays_of_inequality_cone(f),
                    chi, poly_of_matrix(chi, s),
                    (algebraic, rest, sturm_count(rest, lo=ONE)),
                    poly_gcd(chi, g * chi.derivative()), has_unimodular_root(rest),
                    cyclotomic(12), kernel_basis(m), fix_projection(s))

        expected = kernels()
        built = count_fraction_builds(monkeypatch)
        # cyclotomic(12) and the cyclotomics of its divisors are built anew
        monkeypatch.setattr(polynomials, "_cyclotomic_cache", {})
        got = kernels()
        assert built == []
        assert got == expected
        assert expected[0] == 3 and expected[3] == c and expected[4] is None
        third = Fraction(1, 3)
        chi = QPolynomial([-third, 4 * third, -2 * third, -4 * third, 1])
        assert expected[6] == chi and expected[7] == QMatrix.zero(4, 4)
        assert expected[8] == ({1: 2, 2: 1}, QPolynomial([-third, 1]), 0)
        assert expected[9] == QPolynomial([-1, 1])
        assert expected[10] is False
        assert expected[11] == QPolynomial([1, 0, -1, 0, 1])
        assert expected[12] == (QVector([1, 0, Fraction(-7, 4), -h]),)
        # s averages its 2-cycle, keeps coordinate 2, and its last
        # coordinate settles at a quarter of the cycle and half of 2
        q = Fraction(1, 4)
        assert expected[13] == QMatrix([[h, h, 0, 0], [h, h, 0, 0],
                                        [0, 0, 1, 0], [q, q, h, 0]])

    def test_input_edge_builds_no_fraction(self, monkeypatch):
        rows = [["1/2", "1/3", "0", "1/6"], ["0", "1", "0", "0"],
                ["1/4", "0", "3/4", "0"], ["0", "0", "0", "1"]]
        weights = ["1", "2", "3/2", "007/010"]

        def parse_all():
            operator = ser.parse_operator(
                {"matrix": {"rows": rows}, "norm": {"weighted_one": weights}})
            identity = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
            family = ser.parse_family(
                {"matrices": [{"rows": rows}, {"rows": identity}], "norm": "one"})
            subspace = ser.parse_subspace(
                {"ambient_dim": 4, "basis": [["2/4", "-1", "0", "3"], ["0", "1/3", "1", "-0"]]})
            vectors = ser.parse_vector_list({"vectors": [["1/2", "0", "0", "1/2"]]})
            norm = ser.parse_norm({"weighted_one": weights})
            text = ser.canonical_json({"v": ser.vector_to_json(vectors[0]),
                                       "ok": [True, None, -3, ("a", "\u00e9")]})
            return operator.matrix, family.members[0].matrix, subspace, vectors, norm, text

        expected = parse_all()
        built = count_fraction_builds(monkeypatch)
        got = parse_all()
        assert built == []
        assert got == expected
        assert expected[0] == QMatrix([[Fraction(x) for x in row] for row in rows])
        assert expected[2].basis == (QVector([1, 0, 6, 6]), QVector([0, 1, 3, 0]))

    def test_symbolic_arithmetic_builds_no_fraction(self, monkeypatch):
        h, t = Fraction(1, 2), Fraction(1, 3)
        s = IndexSchema(("a", "b"), (ChainDecl("c", L_INFTY), ChainDecl("z", C_ZERO)),
                        GridDecl("g", L_INFTY))
        u = SymbolicVector(s, QVector([h, -3]),
                           (chain_value([1, -2 * t], Fraction(1, 4)), chain_value([5], 0)),
                           (chain_value([], 2), chain_value([Fraction(1, 6)], -1)))
        w = SymbolicVector(s, QVector([-t, 7]), (chain_value([h], 2), ZERO_CHAIN),
                           (chain_value([3, 3], Fraction(1, 5)),))
        spec = LinearFunctionalSpec.build(s, finite={"a": h, "b": 3},
                                          chain_tails={"c": 2 * t})

        def arithmetic():
            sup = pointwise_sup(u, w)
            return (u + w, u - w, -u, u.abs(), sup, u.ge(w), sup.ge(u),
                    ser.chain_to_json(u.chains[0]), ser.chain_to_json(w.grid_rows[0]))

        expected = arithmetic()
        built = count_fraction_builds(monkeypatch)
        got = arithmetic()
        assert built == []
        value = spec.evaluate(u)
        assert len(built) == 1
        assert got == expected
        assert expected[5] is False and expected[6] is True
        assert expected[7] == {"prefix": ["1", "-2/3"], "tail": "1/4"}
        assert expected[8] == {"prefix": ["3", "3"], "tail": "1/5"}
        assert value == h * h + 3 * -3 + 2 * t * Fraction(1, 4)
