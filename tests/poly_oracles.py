"""Test-only reference spectral tail: the earlier `Fraction` versions of
`poly_gcd`, `sturm_count` (with its chain), `unimodular_part` and
`opcore.perron_root_vs_one`.

Each runs Euclid's algorithm on `QPolynomial.divmod` over `Fraction`s,
so the integer pseudo-remainder code (each polynomial cleared once,
primitive remainders scaled by |lc|) can be compared with them exactly.
"""

from __future__ import annotations

from fractions import Fraction

from latfix.exactnum.polynomials import QPolynomial
from latfix.exactnum.rational import ONE


def reference_poly_gcd(a: QPolynomial, b: QPolynomial) -> QPolynomial:
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
        if not b.is_zero():
            b = b.primitive_integer()[0]
    return a.monic() if not a.is_zero() else a


def reference_sturm_chain(f0: QPolynomial, f1: QPolynomial) -> list[QPolynomial]:
    chain = [f0, f1]
    while not chain[-1].is_zero():
        rem = chain[-2].divmod(chain[-1])[1]
        if rem.is_zero():
            break
        prim, unit = (-rem).primitive_integer()
        chain.append(prim if unit > 0 else prim.scale(-1))
    return chain


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations(signs: list[int]) -> int:
    filtered = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(filtered, filtered[1:]) if a != b)


def _sign_at_infinity(p: QPolynomial, positive: bool) -> int:
    s = _sign(p.leading)
    return s if positive or p.degree % 2 == 0 else -s


def _variations_at(chain: list[QPolynomial], point, positive: bool) -> int:
    if point is None:
        return _variations([_sign_at_infinity(p, positive) for p in chain])
    return _variations([_sign(p.evaluate(point)) for p in chain])


def reference_sturm_count(p: QPolynomial, lo=None, hi=None) -> int:
    if p.is_zero():
        raise ValueError("root counting on the zero polynomial")
    if lo is not None and hi is not None and lo > hi:
        raise ValueError("interval lower end exceeds its upper end")
    p = p.divmod(reference_poly_gcd(p, p.derivative()))[0] if p.degree > 0 else p
    if p.degree == 0:
        return 0
    for endpoint in (lo, hi):
        if endpoint is not None and p.evaluate(endpoint) == 0:
            raise ValueError("interval endpoint is a root")
    chain = reference_sturm_chain(p, p.derivative())
    return _variations_at(chain, lo, False) - _variations_at(chain, hi, True)


def _strip_zero_roots(p: QPolynomial) -> QPolynomial:
    coeffs = list(p.coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    return QPolynomial(coeffs)


def reference_unimodular_part(p: QPolynomial) -> QPolynomial:
    """Squarefree part first, then the reciprocal gcd (zero polynomial
    not supported)."""
    p = _strip_zero_roots(p)
    q = p.divmod(reference_poly_gcd(p, p.derivative()))[0]
    return reference_poly_gcd(q, q.reciprocal())


_X_MINUS_ONE = QPolynomial((-ONE, ONE))


def reference_perron_root_vs_one(chi: QPolynomial) -> int:
    root_at_one = False
    while chi.evaluate(ONE) == 0:
        chi = chi.divmod(_X_MINUS_ONE)[0]
        root_at_one = True
    if reference_sturm_count(chi, lo=ONE) > 0:
        return 1
    return 0 if root_at_one else -1
