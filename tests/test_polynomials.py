"""Polynomial arithmetic, factorization, and root location.

Factorizations and totients are cross-checked against sympy, root
counts against numpy roots, so every nontrivial computation has an
oracle that shares no code with the implementation.
"""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from latfix.exactnum.polynomials import (
    BoundaryAnalysis,
    DegreeBoundError,
    QPolynomial,
    cyclotomic,
    cyclotomic_order,
    euler_phi,
    factor_over_rationals,
    orders_with_phi_at_most,
    poly_gcd,
    squarefree_decomposition,
    sturm_count,
    unimodular_part,
    unit_circle_root_count,
)
from latfix.exactnum.rational import rat

from conftest import poly_from_roots, rng_for

coeff_st = st.fractions(min_value=-8, max_value=8, max_denominator=6)
poly_st = st.lists(coeff_st, min_size=0, max_size=7).map(QPolynomial)
nonzero_poly_st = poly_st.filter(lambda p: not p.is_zero())

_x = sympy.Symbol("x")


def to_sympy(p: QPolynomial) -> sympy.Poly:
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
        _x,
        domain="QQ",
    )


class TestArithmetic:
    @given(poly_st, nonzero_poly_st)
    @settings(max_examples=80, deadline=None)
    def test_divmod_identity(self, a, b):
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree

    @given(poly_st, poly_st)
    @settings(max_examples=60, deadline=None)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
            return
        assert g.leading == 1
        assert a.divmod(g)[1].is_zero()
        assert b.divmod(g)[1].is_zero()

    def test_from_roots_and_evaluate(self):
        p = poly_from_roots([1, rat("1/2"), -2])
        for r in (1, rat("1/2"), -2):
            assert p.evaluate(r) == 0
        assert p.leading == 1
        assert p.degree == 3

    def test_reciprocal(self):
        p = QPolynomial([2, 0, 1])  # 2 + x^2
        assert p.reciprocal() == QPolynomial([1, 0, 2])


class TestSquarefree:
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_reconstructs_input(self, roots):
        p = poly_from_roots([Fraction(r) for r in roots])
        parts = squarefree_decomposition(p)
        rebuilt = QPolynomial.one()
        for q, mult in parts:
            rebuilt = rebuilt * q.power(mult)
            # each level is squarefree: gcd with derivative is constant
            assert poly_gcd(q, q.derivative()).degree == 0
        assert rebuilt.monic() == p.monic()


class TestCyclotomic:
    def test_totient_matches_sympy(self):
        for n in range(1, 80):
            assert euler_phi(n) == int(sympy.totient(n))

    def test_polynomials_match_sympy(self):
        for n in range(1, 40):
            ours = cyclotomic(n)
            theirs = sympy.Poly(sympy.cyclotomic_poly(n, _x), _x, domain="QQ")
            assert to_sympy(ours) == theirs

    def test_product_over_divisors(self):
        # x^n - 1 is the product of the cyclotomics of the divisors
        for n in (1, 2, 6, 12):
            prod = QPolynomial.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            expect = QPolynomial([-1] + [0] * (n - 1) + [1])
            assert prod == expect

    def test_order_roundtrip(self):
        for n in range(1, 30):
            assert cyclotomic_order(cyclotomic(n)) == n
        assert cyclotomic_order(QPolynomial([1, 1, 1, 1])) is None  # reducible
        assert cyclotomic_order(QPolynomial([2, 1])) is None

    def test_orders_with_phi_at_most(self):
        brute = sorted(n for n in range(1, 200) if euler_phi(n) <= 4)
        assert orders_with_phi_at_most(4) == brute
        # phi(n) <= b forces n <= 2 b^2 for b >= 1, so the bound is safe
        assert orders_with_phi_at_most(1) == [1, 2]


class TestSturm:
    def test_known_roots(self):
        p = poly_from_roots([1, 2, -3])
        assert sturm_count(p) == 3
        assert sturm_count(p, lo=0) == 2
        assert sturm_count(p, hi=0) == 1
        assert sturm_count(p, lo=rat("3/2"), hi=rat("5/2")) == 2 - 1
        # repeated roots count once
        q = p * p
        assert sturm_count(q) == 3

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_on_integer_roots(self, roots):
        p = poly_from_roots([Fraction(r) for r in roots])
        assert sturm_count(p) == len(set(roots))
        # interval (-1/2, 11/2) catches exactly the roots 0..5
        want = len({r for r in roots if 0 <= r <= 5})
        assert sturm_count(p, lo=rat("-1/2"), hi=rat("11/2")) == want


class TestFactor:
    @given(st.lists(coeff_st, min_size=2, max_size=6).filter(
        lambda cs: any(c != 0 for c in cs[1:])
    ))
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy(self, coeffs):
        p = QPolynomial(coeffs)
        result = factor_over_rationals(p)
        assert result.expand() == p
        for q, _ in result.factors:
            # primitive integer normalization with positive leading
            assert q.leading > 0
            assert all(c.denominator == 1 for c in q.coeffs)
        ours = sorted(
            (tuple(q.monic().coeffs), mult) for q, mult in result.factors
        )
        _, sym_factors = to_sympy(p).factor_list()
        theirs = sorted(
            (
                tuple(
                    Fraction(c.p, c.q)
                    for c in reversed(sympy.Poly(f, _x).monic().all_coeffs())
                ),
                mult,
            )
            for f, mult in sym_factors
        )
        assert ours == theirs

    def test_degree_bound_enforced(self):
        with pytest.raises(DegreeBoundError):
            factor_over_rationals(QPolynomial([1] + [0] * 16 + [1, 1]))


class TestRootLocation:
    def test_complex_boundary_roots(self):
        # x^2 + 1 has both roots on the circle
        p = QPolynomial([1, 0, 1])
        analysis = unit_circle_root_count(p)
        assert analysis.count_on_circle == 2
        assert not analysis.mixed

    def test_circle_count_matches_numpy(self):
        rng = rng_for("circle-count")
        for _ in range(25):
            deg = rng.randint(1, 6)
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(deg)] + [
                Fraction(1)
            ]
            p = QPolynomial(coeffs)
            analysis = unit_circle_root_count(p)
            roots = np.roots([float(c) for c in reversed(p.coeffs)])
            near = sum(1 for z in roots if abs(abs(z) - 1.0) < 1e-9)
            assert analysis.count_on_circle == near

    def test_mixed_factor_detection(self):
        # x^2 - 5/2 x + 1 has roots 2 and 1/2: an irreducible-over-Q
        # factor would be needed to mix; this one splits, so the
        # boundary report sees no mixed factor and nothing on the circle
        p = QPolynomial([1, rat("-5/2"), 1])
        analysis = unit_circle_root_count(p)
        assert analysis.count_on_circle == 0
        assert not analysis.mixed
        # Salem-like trick: x^2 - 3x + 1 (roots (3 +- sqrt 5)/2) is
        # irreducible with one root outside, none on the circle
        q = QPolynomial([1, -3, 1])
        analysis_q = unit_circle_root_count(q)
        assert analysis_q.count_on_circle == 0

    def test_unimodular_part(self):
        # roots 0, 1 (twice), -1, 1/2, 2, 1/3: the part keeps each root
        # r with 1/r also a root, once, as a monic polynomial
        p = poly_from_roots(
            [0, 1, 1, -1, rat("1/2"), 2, rat("1/3")]
        ).scale(5)
        expected = poly_from_roots([1, -1, rat("1/2"), 2])
        assert unimodular_part(p) == expected
        assert unimodular_part(poly_from_roots([rat("1/3")])) == (
            QPolynomial.one()
        )

    def test_boundary_analysis_type(self):
        assert isinstance(unit_circle_root_count(QPolynomial([- 1, 1])), BoundaryAnalysis)
