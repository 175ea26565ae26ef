"""The integer spectral tail against its `Fraction` references and sympy.

`poly_gcd`, `sturm_count` and `has_unimodular_root` clear each
polynomial to integers once and run primitive pseudo-remainder
sequences.  Hypothesis compares them exactly with the `Fraction` Euclid
versions in `poly_oracles.py`, on mixed, coprime and 10^12-size
denominators, repeated and zero roots, negative leading coefficients at
odd and even degrees, constant inputs, and rational or infinite interval
ends; sympy pins the gcd and the root counts.  The side of the Perron
root against 1 is read from `cyclotomic_division` and a Sturm count on
(1, oo) of the cyclotomic-free rest, and that reading is checked
against the `Fraction` version that divides out x - 1 alone.
"""

from fractions import Fraction
from math import prod

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from latfix.exactnum.polynomials import (
    QPolynomial,
    cyclotomic,
    cyclotomic_division,
    has_unimodular_root,
    poly_gcd,
    sturm_count,
)
from latfix.exactnum.rational import ONE

from poly_oracles import (
    reference_has_unimodular_root,
    reference_perron_root_vs_one,
    reference_poly_gcd,
    reference_sturm_count,
)

BIG = 10**12 + 39
denominators_st = st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9, 11, 13, BIG))
coeff_st = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-20, 20), denominators_st),
)
nonzero_coeff_st = st.builds(
    Fraction, st.integers(1, 20).flatmap(lambda n: st.sampled_from((n, -n))),
    denominators_st,
)
# small roots, with each root's inverse available, so that repeated
# roots, zero roots and inversion-closed root sets all come up
root_st = st.sampled_from(
    tuple(Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3))
    + (Fraction(1, BIG), Fraction(BIG))
)


def _from_roots(roots, scale: Fraction) -> QPolynomial:
    p = QPolynomial((scale,))
    for r in roots:
        p = p * QPolynomial((-r, 1))
    return p


coeff_poly_st = st.lists(coeff_st, min_size=0, max_size=8).map(QPolynomial)
root_poly_st = st.builds(
    _from_roots, st.lists(root_st, min_size=0, max_size=6), nonzero_coeff_st
)
inverted_root_poly_st = st.builds(
    lambda roots, extra, scale: _from_roots(
        roots + [1 / r for r in roots if r] + extra, scale
    ),
    st.lists(root_st, min_size=0, max_size=3),
    st.lists(root_st, min_size=0, max_size=2),
    nonzero_coeff_st,
)
# x^2 + b x + 1 has a conjugate pair on the circle for |b| < 2 (roots
# of unity only for b in {0, +-1}) and a real pair r, 1/r for |b| > 2
reciprocal_quadratic_st = st.builds(
    lambda n, d: QPolynomial([1, Fraction(n, d), 1]),
    st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 5)),
)
circle_poly_st = st.builds(
    lambda base, quadratics, orders: prod(
        quadratics + [cyclotomic(n) for n in orders], start=base
    ),
    root_poly_st,
    st.lists(reciprocal_quadratic_st, max_size=2),
    st.lists(st.integers(1, 12), max_size=2),
)
poly_st = st.one_of(coeff_poly_st, root_poly_st, inverted_root_poly_st)
nonzero_poly_st = poly_st.filter(lambda p: not p.is_zero())
endpoint_st = st.one_of(
    st.none(), st.integers(-4, 4).map(Fraction),
    st.builds(Fraction, st.integers(-40, 40), denominators_st),
)


def _answer(f, *args):
    """f's result, or its ValueError message."""
    try:
        return f(*args)
    except ValueError as e:
        return f"ValueError: {e}"


def _perron_side(p: QPolynomial) -> int:
    """Sign of rho - 1 read as `opcore` and `seqspace` read it: a root of
    the cyclotomic-free rest on (1, oo), else whether x - 1 divides p."""
    algebraic, rest = cyclotomic_division(p)
    if sturm_count(rest, lo=ONE) > 0:
        return 1
    return 0 if 1 in algebraic else -1


class TestAgainstFractionReference:
    @given(poly_st, poly_st)
    @settings(max_examples=150, deadline=None)
    def test_poly_gcd(self, a, b):
        assert poly_gcd(a, b) == reference_poly_gcd(a, b)

    @given(st.lists(root_st, max_size=4), root_poly_st, root_poly_st)
    @settings(max_examples=80, deadline=None)
    def test_poly_gcd_with_common_roots(self, common, a, b):
        shared = _from_roots(common, Fraction(1))
        assert poly_gcd(a * shared, b * shared) == reference_poly_gcd(
            a * shared, b * shared
        )

    @given(nonzero_poly_st, endpoint_st, endpoint_st)
    @settings(max_examples=200, deadline=None)
    def test_sturm_count(self, p, lo, hi):
        assert _answer(sturm_count, p, lo, hi) == _answer(
            reference_sturm_count, p, lo, hi
        )

    @given(st.one_of(nonzero_poly_st, circle_poly_st))
    @settings(max_examples=150, deadline=None)
    def test_has_unimodular_root(self, p):
        assert has_unimodular_root(p) == reference_has_unimodular_root(p)

    @given(st.one_of(nonzero_poly_st, circle_poly_st))
    @settings(max_examples=100, deadline=None)
    def test_perron_root_vs_one(self, p):
        # no cyclotomic has a real root other than +-1, so dividing all
        # of them out moves no root on (1, oo)
        assert _perron_side(p) == reference_perron_root_vs_one(p)

    @pytest.mark.parametrize("degree", range(7))
    def test_negative_leading_coefficient(self, degree):
        # -x^n + 3x - 1 is sparse, so a pseudo-division step can drop
        # several degrees and the step count is odd as often as even
        if degree >= 2:
            sparse = QPolynomial([-1, 3] + [0] * (degree - 2) + [-1])
        else:
            sparse = QPolynomial([Fraction(-2, 3)] * (degree + 1))
        spread = _from_roots(
            range(-(degree // 2), degree - degree // 2), Fraction(-5, 7)
        )
        for p in (sparse, spread):
            assert p.degree == degree and p.leading < 0
            for lo, hi in (
                (None, None),
                (Fraction(1, 2), None),
                (None, Fraction(-1, 3)),
                (Fraction(-7, 2), Fraction(1, 2)),
            ):
                assert _answer(sturm_count, p, lo, hi) == _answer(
                    reference_sturm_count, p, lo, hi
                )
            assert _perron_side(p) == reference_perron_root_vs_one(p)
            assert has_unimodular_root(p) == reference_has_unimodular_root(p)

    def test_constant_inputs(self):
        c = QPolynomial([Fraction(-3, 7)])
        zero = QPolynomial.zero()
        assert poly_gcd(c, zero) == QPolynomial.one()
        assert poly_gcd(zero, zero) == zero
        assert poly_gcd(c, QPolynomial([1, 1])) == QPolynomial.one()
        assert sturm_count(c) == 0
        assert sturm_count(c, lo=0, hi=1) == 0
        assert not has_unimodular_root(c)
        assert cyclotomic_division(c) == ({}, c)
        assert _perron_side(c) == -1

    def test_reversed_interval_rejected(self):
        # (2, 0) once counted -1 root of x - 1
        for p in (QPolynomial([-1, 1]), QPolynomial([Fraction(-3, 7)])):
            for count in (sturm_count, reference_sturm_count):
                with pytest.raises(ValueError, match="lower end exceeds"):
                    count(p, 2, 0)
        assert sturm_count(QPolynomial([-1, 1]), 2, 2) == 0
        assert sturm_count(QPolynomial([-1, 1]), 0, 2) == 1


def _to_sympy(p: QPolynomial) -> sympy.Poly:
    x = sympy.Symbol("x")
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
        x,
        domain="QQ",
    )


class TestAgainstSympy:
    @given(poly_st, poly_st)
    @settings(max_examples=60, deadline=None)
    def test_poly_gcd_is_monic_sympy_gcd(self, a, b):
        g = poly_gcd(a, b)
        theirs = sympy.gcd(_to_sympy(a), _to_sympy(b))
        if g.is_zero():
            assert theirs.is_zero
            return
        assert _to_sympy(g) == theirs.monic()

    @given(nonzero_poly_st, endpoint_st, endpoint_st)
    @settings(max_examples=60, deadline=None)
    def test_sturm_count_is_sympy_real_root_count(self, p, lo, hi):
        if lo is not None and hi is not None:
            lo, hi = sorted((lo, hi))
        roots = set(_to_sympy(p).real_roots()) if p.degree > 0 else set()
        ends = [
            None if e is None else sympy.Rational(e.numerator, e.denominator)
            for e in (lo, hi)
        ]
        if any(r == e for r in roots for e in ends if e is not None):
            with pytest.raises(ValueError, match="endpoint is a root"):
                sturm_count(p, lo, hi)
            return
        lo_s, hi_s = ends
        inside = [
            r for r in roots
            if (lo_s is None or r > lo_s) and (hi_s is None or r < hi_s)
        ]
        assert sturm_count(p, lo, hi) == len(inside)


class TestNoFractionDivision:
    """The gcd, the Sturm chain, the cyclotomic division and the
    unimodular-root test never divide `QPolynomial`s."""

    def test_answers_with_divmod_disabled(self, monkeypatch):
        salem = QPolynomial([1, -1, -1, -1, 1])
        inputs = [
            salem,
            salem * QPolynomial([-1, 0, 3]),
            QPolynomial([2, -5, 2]),
            # roots 1 (twice), -1 and the primitive cube roots of unity
            QPolynomial([-1, 1]) * QPolynomial([-1, 1]) * QPolynomial([1, 1])
            * cyclotomic(3),
            QPolynomial([Fraction(1, 3), 0, Fraction(-5, BIG), 1, -7]),
        ]

        def answers():
            out = []
            for p in inputs:
                algebraic, rest = cyclotomic_division(p)
                out.append((
                    poly_gcd(p, p.derivative()),
                    poly_gcd(p, p.reciprocal()),
                    (algebraic, rest),
                    has_unimodular_root(p),
                    sturm_count(p),
                    sturm_count(p, lo=Fraction(-1, 2), hi=Fraction(5, 2)),
                    sturm_count(rest, lo=ONE),
                ))
            return out

        expected = answers()

        def no_divmod(self, other):
            raise AssertionError("QPolynomial.divmod called")

        monkeypatch.setattr(QPolynomial, "divmod", no_divmod)
        assert answers() == expected
        assert expected[0][3] and expected[1][3] and expected[3][3]
        assert not expected[2][3]
        # the Salem number, a root near 1.72, is the one root above 1
        assert expected[0][6] == expected[1][6] == 1
        assert expected[3][2] == ({1: 2, 2: 1, 3: 1}, QPolynomial.one())
        assert expected[3][6] == 0


class TestZeroPolynomial:
    def test_has_unimodular_root_rejects_zero(self):
        with pytest.raises(ValueError, match="of the zero polynomial"):
            has_unimodular_root(QPolynomial.zero())

    def test_perron_root_rejects_zero(self):
        zero = QPolynomial.zero()
        assert cyclotomic_division(zero) == ({}, zero)
        with pytest.raises(ValueError, match="on the zero polynomial"):
            _perron_side(zero)
