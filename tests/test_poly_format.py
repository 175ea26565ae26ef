"""The integer polynomial format against the `Fraction`-tuple reference.

A `QPolynomial` holds its ascending coefficients as one canonical
`QVector`: integers `nums` over one positive `den` with gcd 1, the last
numerator nonzero.  Hypothesis checks every operation for exact
equality with `FPolynomial` in `poly_oracles.py`, on mixed, coprime and
10^12-size denominators, zero and constant polynomials and trailing
zeros, and checks that every result is in that unique form.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from latfix.exactnum.polynomials import QPolynomial, cyclotomic

from poly_oracles import FPolynomial

denominators_st = st.sampled_from(
    (1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 10**12, 10**12 + 39)
)
coeff_st = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10**13, 10**13), denominators_st),
    st.builds(Fraction, st.integers(-20, 20), denominators_st),
)
coeffs_st = st.one_of(
    st.lists(coeff_st, max_size=7),
    st.lists(coeff_st, max_size=1),  # zero and constant polynomials
    st.lists(coeff_st, min_size=1, max_size=5).map(lambda cs: cs + [0, 0]),
)
point_st = st.one_of(coeff_st, st.integers(-5, 5))


def assert_canonical(p: QPolynomial) -> None:
    assert type(p.den) is int and p.den > 0
    assert all(type(x) is int for x in p.nums)
    assert gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0


def assert_same(q: QPolynomial, f: FPolynomial) -> None:
    assert_canonical(q)
    assert q.coeffs == f.coeffs
    assert all(type(c) is Fraction for c in q.coeffs)
    assert q.degree == f.degree and q.is_zero() == f.is_zero()
    assert repr(q) == repr(f)


class TestCanonicalForm:
    def test_half(self):
        p, q = QPolynomial([Fraction(1, 2), 1, 0]), QPolynomial.from_ints([1, 2], 2)
        assert p == q
        assert (p.nums, p.den) == (q.nums, q.den) == ((1, 2), 2)
        assert hash(p) == hash(q)

    def test_from_ints_strips_and_reduces(self):
        assert QPolynomial.from_ints([2, 4, 0, 0], 6) == QPolynomial([Fraction(1, 3), Fraction(2, 3)])
        assert (QPolynomial.from_ints([0, 0], 10**12).nums, QPolynomial.from_ints([0], 7).den) == ((), 1)
        assert QPolynomial.from_ints([]) == QPolynomial.zero() == QPolynomial([0, 0])
        assert QPolynomial.from_ints([5], 5) == QPolynomial.one()

    def test_denominator_must_be_positive(self):
        for den in (0, -2):
            with pytest.raises(ValueError):
                QPolynomial.from_ints([1], den)

    @given(coeffs_st)
    def test_views(self, cs):
        q, f = QPolynomial(cs), FPolynomial(cs)
        assert_same(q, f)
        if not f.is_zero():
            assert q.leading == f.leading
        else:
            with pytest.raises(ValueError):
                q.leading

    @given(st.lists(st.integers(-10**13, 10**13), max_size=6), denominators_st)
    def test_from_ints(self, nums, den):
        q = QPolynomial.from_ints(nums, den)
        p = QPolynomial(Fraction(x, den) for x in nums)
        assert_canonical(q)
        assert (q.nums, q.den) == (p.nums, p.den)
        assert q == p and hash(q) == hash(p)

    @given(coeffs_st, coeffs_st)
    def test_equality_and_hash(self, a, b):
        qa, qb = QPolynomial(a), QPolynomial(b)
        assert (qa == qb) == (FPolynomial(a) == FPolynomial(b))
        assert qa == QPolynomial(a) and hash(qa) == hash(QPolynomial(a))
        assert qa != qa.vector


class TestOperations:
    @settings(max_examples=150, deadline=None)
    @given(coeffs_st, coeffs_st, coeff_st, point_st)
    def test_arithmetic(self, a, b, c, x):
        qa, qb, fa, fb = QPolynomial(a), QPolynomial(b), FPolynomial(a), FPolynomial(b)
        assert_same(qa + qb, fa + fb)
        assert_same(qa - qb, fa - fb)
        assert_same(qa - qa, FPolynomial.zero())
        assert_same(-qa, -fa)
        assert_same(qa * qb, fa * fb)
        assert_same(qa.scale(c), fa.scale(c))
        assert_same(qa.power(2), fa.power(2))
        assert_same(qa.derivative(), fa.derivative())
        assert_same(qa.reciprocal(), fa.reciprocal())
        assert_same(qa.monic(), fa.monic())
        assert qa.evaluate(x) == fa.evaluate(x)
        assert type(qa.evaluate(x)) is Fraction

    @settings(max_examples=150, deadline=None)
    @given(coeffs_st)
    def test_primitive_integer(self, a):
        (qp, qu), (fp, fu) = QPolynomial(a).primitive_integer(), FPolynomial(a).primitive_integer()
        assert_same(qp, fp)
        assert qp.den == 1
        assert qu == fu and type(qu) is Fraction

    @settings(max_examples=150, deadline=None)
    @given(coeffs_st, coeffs_st.filter(lambda cs: any(cs)))
    def test_divmod_and_exact_quotient(self, a, b):
        qa, qb, fa, fb = QPolynomial(a), QPolynomial(b), FPolynomial(a), FPolynomial(b)
        (qq, qr), (fq, fr) = qa.divmod(qb), fa.divmod(fb)
        assert_same(qq, fq)
        assert_same(qr, fr)
        exact = qa.exact_quotient(qb)
        if fr.is_zero():
            assert_same(exact, fq)
        else:
            assert exact is None
        product = qa * qb
        assert_same(product.exact_quotient(qb), fa)
        assert_same(product.exact_quotient(qb.scale(Fraction(-3, 10**12))), fa.scale(Fraction(-10**12, 3)))

    def test_division_by_zero(self):
        p = QPolynomial([1, 1])
        with pytest.raises(ZeroDivisionError):
            p.divmod(QPolynomial.zero())
        with pytest.raises(ZeroDivisionError):
            p.exact_quotient(QPolynomial.zero())

    @pytest.mark.parametrize("n", range(1, 41))
    def test_cyclotomic_against_fraction_division(self, n):
        expected = FPolynomial([-1] + [0] * (n - 1) + [1])
        for d in range(1, n):
            if n % d == 0:
                expected = expected.divmod(FPolynomial(cyclotomic(d).coeffs))[0]
        assert_same(cyclotomic(n), expected)
        assert cyclotomic(n).den == 1
