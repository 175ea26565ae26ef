"""Test-only reference polynomials and spectral tail.

`FPolynomial` is the earlier `QPolynomial`, which stored a tuple of
`Fraction` coefficients: every operation works coefficient by
coefficient in `Fraction` arithmetic, so the integer form (numerators
over one least common denominator) can be compared with it exactly.

The earlier `Fraction` versions of `poly_gcd`, `sturm_count` (with its
chain), the unimodular part (the reciprocal gcd of the squarefree part)
and the Perron-root test (divide out x - 1, then a Sturm count on
(1, oo)) run Euclid's algorithm on `FPolynomial.divmod`, so the integer
pseudo-remainder code (primitive remainders scaled by |lc|) can be
compared with them too.  `reference_has_unimodular_root` reads the
unimodular part through its own trace substitution, peeled off from the
top degree.  They take and return `QPolynomial`s and convert through the
`Fraction` views at the edge.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from latfix.exactnum.polynomials import QPolynomial
from latfix.exactnum.rational import ONE, ZERO, rat, rat_str


class FPolynomial:
    """Univariate polynomial with Fraction coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @staticmethod
    def zero() -> "FPolynomial":
        return FPolynomial(())

    @staticmethod
    def one() -> "FPolynomial":
        return FPolynomial((ONE,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, FPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "QPolynomial(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(rat_str(c))
            else:
                xs = "x" if k == 1 else f"x^{k}"
                terms.append(xs if c == 1 else f"{rat_str(c)}*{xs}")
        return "QPolynomial(%s)" % " + ".join(reversed(terms))

    def __add__(self, other: "FPolynomial") -> "FPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FPolynomial(out)

    def __sub__(self, other: "FPolynomial") -> "FPolynomial":
        return self + (-other)

    def __neg__(self) -> "FPolynomial":
        return FPolynomial(-c for c in self.coeffs)

    def __mul__(self, other: "FPolynomial") -> "FPolynomial":
        if self.is_zero() or other.is_zero():
            return FPolynomial.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FPolynomial(out)

    def scale(self, c) -> "FPolynomial":
        c = rat(c)
        return FPolynomial(c * a for a in self.coeffs)

    def power(self, k: int) -> "FPolynomial":
        result = FPolynomial.one()
        for _ in range(k):
            result = result * self
        return result

    def divmod(self, other: "FPolynomial") -> tuple["FPolynomial", "FPolynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
        dden = len(den) - 1
        lead = den[-1]
        quo = [ZERO] * max(0, len(rem) - dden)
        for i in range(len(rem) - 1, dden - 1, -1):
            if rem[i] == 0:
                continue
            f = rem[i] / lead
            quo[i - dden] = f
            for j, c in enumerate(den):
                rem[i - dden + j] -= f * c
        return FPolynomial(quo), FPolynomial(rem)

    def evaluate(self, x) -> Fraction:
        x = rat(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "FPolynomial":
        return FPolynomial(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def monic(self) -> "FPolynomial":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading)

    def reciprocal(self) -> "FPolynomial":
        return FPolynomial(tuple(reversed(self.coeffs)))

    def primitive_integer(self) -> tuple["FPolynomial", Fraction]:
        if self.is_zero():
            return self, ONE
        den = lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
        content = gcd(*ints)
        if ints[-1] < 0:
            content = -content
        prim = FPolynomial(c // content for c in ints)
        return prim, self.leading / prim.leading


def _f(p: QPolynomial) -> FPolynomial:
    return FPolynomial(p.coeffs)


def _q(p: FPolynomial) -> QPolynomial:
    return QPolynomial(p.coeffs)


def _gcd(a: FPolynomial, b: FPolynomial) -> FPolynomial:
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
        if not b.is_zero():
            b = b.primitive_integer()[0]
    return a.monic() if not a.is_zero() else a


def reference_poly_gcd(a: QPolynomial, b: QPolynomial) -> QPolynomial:
    return _q(_gcd(_f(a), _f(b)))


def reference_sturm_chain(f0: FPolynomial, f1: FPolynomial) -> list[FPolynomial]:
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


def _sign_at_infinity(p: FPolynomial, positive: bool) -> int:
    s = _sign(p.leading)
    return s if positive or p.degree % 2 == 0 else -s


def _variations_at(chain: list[FPolynomial], point, positive: bool) -> int:
    if point is None:
        return _variations([_sign_at_infinity(p, positive) for p in chain])
    return _variations([_sign(p.evaluate(point)) for p in chain])


def _sturm_count(p: FPolynomial, lo=None, hi=None) -> int:
    if p.is_zero():
        raise ValueError("root counting on the zero polynomial")
    if lo is not None and hi is not None and lo > hi:
        raise ValueError("interval lower end exceeds its upper end")
    p = p.divmod(_gcd(p, p.derivative()))[0] if p.degree > 0 else p
    if p.degree == 0:
        return 0
    for endpoint in (lo, hi):
        if endpoint is not None and p.evaluate(endpoint) == 0:
            raise ValueError("interval endpoint is a root")
    chain = reference_sturm_chain(p, p.derivative())
    return _variations_at(chain, lo, False) - _variations_at(chain, hi, True)


def reference_sturm_count(p: QPolynomial, lo=None, hi=None) -> int:
    return _sturm_count(_f(p), lo, hi)


def _strip_zero_roots(p: FPolynomial) -> FPolynomial:
    coeffs = list(p.coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    return FPolynomial(coeffs)


def reference_unimodular_part(p: QPolynomial) -> QPolynomial:
    """Squarefree part first, then the reciprocal gcd (zero polynomial
    not supported)."""
    f = _strip_zero_roots(_f(p))
    q = f.divmod(_gcd(f, f.derivative()))[0]
    return _q(_gcd(q, q.reciprocal()))


_X_MINUS_ONE = FPolynomial((-ONE, ONE))


def reference_perron_root_vs_one(chi: QPolynomial) -> int:
    f = _f(chi)
    root_at_one = False
    while f.evaluate(ONE) == 0:
        f = f.divmod(_X_MINUS_ONE)[0]
        root_at_one = True
    if _sturm_count(f, lo=ONE) > 0:
        return 1
    return 0 if root_at_one else -1


def _trace_substitution(g: FPolynomial) -> FPolynomial:
    """The H with g(x) = x^m H(x + 1/x), for g self-reciprocal of degree
    2m: x^m (x + 1/x)^k = x^(m-k) (x^2 + 1)^k has top degree m + k, so
    the coefficients of H peel off from the top."""
    m = g.degree // 2
    rest, h = g, [ZERO] * (m + 1)
    for k in range(m, -1, -1):
        h[k] = rest.coeffs[m + k] if m + k < len(rest.coeffs) else ZERO
        term = FPolynomial([ZERO] * (m - k) + [ONE]) * FPolynomial(
            (ONE, ZERO, ONE)
        ).power(k)
        rest = rest - term.scale(h[k])
    if not rest.is_zero():
        raise ValueError("trace substitution needs a self-reciprocal input")
    return FPolynomial(h)


def reference_has_unimodular_root(p: QPolynomial) -> bool:
    """A root at 1 or -1 of the unimodular part, or else a root of its
    trace polynomial on (-2, 2): the rest of the part pairs roots r and
    1/r other than +-1, so it is self-reciprocal of even degree."""
    g = _f(reference_unimodular_part(p))
    if g.evaluate(ONE) == 0 or g.evaluate(-ONE) == 0:
        return True
    if g.degree <= 0:
        return False
    return _sturm_count(_trace_substitution(g), Fraction(-2), Fraction(2)) > 0
