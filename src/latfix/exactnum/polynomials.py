"""Exact univariate polynomial analysis over the rationals.

Polynomials are stored as tuples of Fraction coefficients in ascending
degree order, normalized so the last coefficient is nonzero (the zero
polynomial is the empty tuple).  The module provides

* arithmetic, gcd, and Yun squarefree decomposition,
* cyclotomic polynomial generation and identification,
* Sturm-sequence real root counting on intervals,
* complete factorization over the rationals for degree at most 16,
* exact detection of roots on the unit circle.

Root location never uses floating point.  Roots on the unit circle are
isolated through the reciprocal-gcd construction and the substitution
t = x + 1/x, which maps conjugate unimodular pairs to real points of
(-2, 2); roots are then counted with Sturm sequences.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from typing import Iterable

from .rational import ONE, ZERO, rat

DEGREE_BOUND = 16

# Enumeration cap for the bounded integer factor search.
_KRONECKER_BUDGET = 200_000
_TRIAL_DIVISION_LIMIT = 10**7


class DegreeBoundError(ValueError):
    """Factorization was requested beyond the supported degree bound."""


class FactorSearchBudgetError(ValueError):
    """The bounded integer-coefficient factor search exceeded its work cap."""


class QPolynomial:
    """Univariate polynomial with Fraction coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @staticmethod
    def zero() -> "QPolynomial":
        return QPolynomial(())

    @staticmethod
    def one() -> "QPolynomial":
        return QPolynomial((ONE,))

    @staticmethod
    def x() -> "QPolynomial":
        return QPolynomial((ZERO, ONE))

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        from .rational import rat_str

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

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(-c for c in self.coeffs)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if self.is_zero() or other.is_zero():
            return QPolynomial.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPolynomial(out)

    def scale(self, c) -> "QPolynomial":
        c = rat(c)
        return QPolynomial(c * a for a in self.coeffs)

    def power(self, k: int) -> "QPolynomial":
        result = QPolynomial.one()
        for _ in range(k):
            result = result * self
        return result

    def divmod(self, other: "QPolynomial") -> tuple["QPolynomial", "QPolynomial"]:
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
        return QPolynomial(quo), QPolynomial(rem)

    def evaluate(self, x) -> Fraction:
        x = rat(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "QPolynomial":
        return QPolynomial(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def monic(self) -> "QPolynomial":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading)

    def reciprocal(self) -> "QPolynomial":
        """x^deg * p(1/x): the coefficient sequence reversed."""
        return QPolynomial(tuple(reversed(self.coeffs)))

    def primitive_integer(self) -> tuple["QPolynomial", Fraction]:
        """Primitive integer polynomial with positive leading coefficient,
        and the rational unit u with  p = u * primitive."""
        if self.is_zero():
            return self, ONE
        denom_lcm = 1
        for c in self.coeffs:
            denom_lcm = denom_lcm * c.denominator // int_gcd(
                denom_lcm, c.denominator
            )
        ints = [int(c * denom_lcm) for c in self.coeffs]
        g = 0
        for v in ints:
            g = int_gcd(g, abs(v))
        ints = [v // g for v in ints]
        if ints[-1] < 0:
            ints = [-v for v in ints]
        prim = QPolynomial(ints)
        return prim, self.leading / prim.leading


def poly_gcd(a: QPolynomial, b: QPolynomial) -> QPolynomial:
    """Monic greatest common divisor (1 for coprime, 0 only if both zero)."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
        # content stripping keeps coefficient growth in check
        if not b.is_zero():
            b = b.primitive_integer()[0]
    return a.monic() if not a.is_zero() else a


def squarefree_decomposition(p: QPolynomial) -> list[tuple[QPolynomial, int]]:
    """Yun's algorithm: monic squarefree pairwise-coprime levels (q_i, i)
    with p = lc * prod q_i^i."""
    if p.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    dp = p.derivative()
    g = poly_gcd(p, dp)
    if g.degree == 0:
        return [(p, 1)]
    out: list[tuple[QPolynomial, int]] = []
    b = p.divmod(g)[0]
    c = dp.divmod(g)[0]
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((a.monic(), i))
            b = b.divmod(a)[0]
            c = d.divmod(a)[0]
        else:
            c = d
        d = c - b.derivative()
        i += 1
    return out


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    k = 2
    m = n
    while k * k <= m:
        if m % k == 0:
            while m % k == 0:
                m //= k
            result -= result // k
        k += 1
    if m > 1:
        result -= result // m
    return result


_cyclotomic_cache: dict[int, QPolynomial] = {}


def cyclotomic(n: int) -> QPolynomial:
    """The n-th cyclotomic polynomial, exact integer coefficients."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    cached = _cyclotomic_cache.get(n)
    if cached is not None:
        return cached
    xn_minus_1 = QPolynomial([-1] + [0] * (n - 1) + [1])
    result = xn_minus_1
    for d in range(1, n):
        if n % d == 0:
            result = result.divmod(cyclotomic(d))[0]
    _cyclotomic_cache[n] = result
    return result


def orders_with_phi_at_most(bound: int) -> list[int]:
    """All n with euler_phi(n) <= bound, ascending.  phi(n) >= sqrt(n/2)
    gives the search cutoff n <= 2*bound^2."""
    if bound < 1:
        return []
    return [n for n in range(1, 2 * bound * bound + 2) if euler_phi(n) <= bound]


def cyclotomic_order(p: QPolynomial) -> int | None:
    """The n with p == cyclotomic(n), or None."""
    d = p.degree
    if d < 1:
        return None
    # every cyclotomic polynomial is monic with constant term +-1
    if p.leading != 1 or abs(p.coeffs[0]) != 1:
        return None
    for n in orders_with_phi_at_most(d):
        if euler_phi(n) == d and cyclotomic(n) == p:
            return n
    return None


# ---------------------------------------------------------------------------
# Sturm sequences


def _sturm_chain(f0: QPolynomial, f1: QPolynomial) -> list[QPolynomial]:
    chain = [f0, f1]
    while not chain[-1].is_zero():
        rem = chain[-2].divmod(chain[-1])[1]
        if rem.is_zero():
            break
        nxt = -rem
        # shrink coefficients by the (positive) content only, signs matter
        prim, unit = nxt.primitive_integer()
        chain.append(prim if unit > 0 else prim.scale(-1))
    return chain


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_at(p: QPolynomial, point) -> int:
    """Sign of p at a finite point, or at -inf/+inf for point None pairs."""
    return _sign(p.evaluate(point))


def _sign_at_infinity(p: QPolynomial, positive: bool) -> int:
    if p.is_zero():
        return 0
    s = _sign(p.leading)
    if positive or p.degree % 2 == 0:
        return s
    return -s


def _variations(signs: list[int]) -> int:
    filtered = [s for s in signs if s != 0]
    return sum(
        1 for a, b in zip(filtered, filtered[1:]) if a != b
    )


def _variations_at(chain: list[QPolynomial], point) -> int:
    return _variations([_sign_at(p, point) for p in chain])


def _variations_at_infinity(chain: list[QPolynomial], positive: bool) -> int:
    return _variations([_sign_at_infinity(p, positive) for p in chain])


def sturm_count(p: QPolynomial, lo=None, hi=None) -> int:
    """Distinct real roots of p in the open interval (lo, hi).

    ``None`` endpoints mean -infinity / +infinity.  Finite endpoints must
    not be roots of p.
    """
    if p.is_zero():
        raise ValueError("root counting on the zero polynomial")
    p = p.divmod(poly_gcd(p, p.derivative()))[0] if p.degree > 0 else p
    if p.degree == 0:
        return 0
    for endpoint in (lo, hi):
        if endpoint is not None and p.evaluate(endpoint) == 0:
            raise ValueError("interval endpoint is a root")
    chain = _sturm_chain(p, p.derivative())
    v_lo = (
        _variations_at_infinity(chain, positive=False)
        if lo is None
        else _variations_at(chain, lo)
    )
    v_hi = (
        _variations_at_infinity(chain, positive=True)
        if hi is None
        else _variations_at(chain, hi)
    )
    return v_lo - v_hi


# ---------------------------------------------------------------------------
# factorization over the rationals


@dataclass(frozen=True)
class FactoredPolynomial:
    """Complete factorization p = unit * prod(factor^multiplicity).

    Factors are primitive integer polynomials with positive leading
    coefficient, sorted by degree then coefficients.  ``cyclotomic_orders``
    maps a factor index to n when that factor equals cyclotomic(n).
    """

    unit: Fraction
    factors: tuple[tuple[QPolynomial, int], ...]
    cyclotomic_orders: dict[int, int]

    def expand(self) -> QPolynomial:
        p = QPolynomial((self.unit,))
        for f, m in self.factors:
            p = p * f.power(m)
        return p


def _divisors(n: int) -> list[int] | None:
    """All positive divisors of |n|, or None when trial division would be
    too costly.  n must be nonzero."""
    n = abs(n)
    if n > 10**28:
        return None
    small: list[int] = []
    large: list[int] = []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k * k != n:
                large.append(n // k)
        k += 1
        if k > _TRIAL_DIVISION_LIMIT:
            return None
    return small + large[::-1]


def _rational_roots(p: QPolynomial) -> list[Fraction]:
    """All rational roots (without multiplicity) of a nonzero integer
    polynomial with nonzero constant term."""
    prim, _ = p.primitive_integer()
    a0 = int(prim.coeffs[0])
    an = int(prim.leading)
    nums = _divisors(a0)
    dens = _divisors(an)
    if nums is None or dens is None:
        raise FactorSearchBudgetError("rational root bound too large to factor")
    roots = []
    seen = set()
    for num in nums:
        for den in dens:
            for s in (1, -1):
                cand = Fraction(s * num, den)
                if cand in seen:
                    continue
                seen.add(cand)
                if prim.evaluate(cand) == 0:
                    roots.append(cand)
    return sorted(roots)


# --- small prime field helpers (irreducibility certificates) ---------------


def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = a[:]
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - 1, len(b) - 2, -1):
        if a[i] == 0:
            continue
        f = a[i] * inv % p
        q[i - len(b) + 1] = f
        for j, c in enumerate(b):
            a[i - len(b) + 1 + j] = (a[i - len(b) + 1 + j] - f * c) % p
    return _gf_trim(q), _gf_trim(a)


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _gf_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _gf_divmod(_gf_trim(out), f, p)[1] if out else []


def _gf_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _gf_divmod(a, f, p)[1]
    while e:
        if e & 1:
            result = _gf_mulmod(result, base, f, p)
        base = _gf_mulmod(base, base, f, p)
        e >>= 1
    return result


def _gf_distinct_degrees(f: list[int], p: int) -> list[tuple[int, int]] | None:
    """Distinct-degree split of a squarefree f mod p: list of (d, total
    degree of the degree-d part).  None when f is not squarefree mod p."""
    deriv = _gf_trim([(k * c) % p for k, c in enumerate(f)][1:])
    if not deriv or len(_gf_gcd(f[:], deriv, p)) > 1:
        return None
    out = []
    h = [0, 1]
    work = f[:]
    d = 0
    while len(work) - 1 > 0:
        d += 1
        if 2 * d > len(work) - 1:
            out.append((len(work) - 1, len(work) - 1))
            break
        h = _gf_powmod(h, p, work, p)
        diff = h[:]
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _gf_gcd(work[:], _gf_trim(diff), p)
        if len(g) > 1:
            out.append((d, len(g) - 1))
            work = _gf_divmod(work, g, p)[0]
            h = _gf_divmod(h, work, p)[1] if len(work) > 1 else []
    return out


def _achievable_factor_degrees(ddf: list[tuple[int, int]]) -> set[int]:
    """Possible degrees of rational factors, as subset sums of the modular
    irreducible degrees."""
    degrees = [0]
    mask = 1
    for d, total in ddf:
        for _ in range(total // d):
            mask |= mask << d
    total_deg = sum(t for _, t in ddf)
    return {k for k in range(total_deg + 1) if (mask >> k) & 1}


def _kronecker_search(p: QPolynomial, k: int) -> QPolynomial | None:
    """Search for an integer factor of degree exactly k by divisor
    interpolation.  p must be primitive integer, squarefree, with no
    rational roots.  Returns a primitive factor or None."""
    points_pool = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6]
    valued = []
    for x in points_pool:
        v = p.evaluate(x)
        if v == 0:
            raise AssertionError("rational root should have been stripped")
        valued.append((abs(v), x, int(v)))
    valued.sort()
    chosen = valued[: k + 1]
    divisor_lists = []
    for _, x, v in chosen:
        divs = _divisors(v)
        if divs is None:
            raise FactorSearchBudgetError(
                f"factor search stalled: value at {x} too hard to factor"
            )
        divisor_lists.append((x, divs))
    work = 1
    for i, (_, divs) in enumerate(divisor_lists):
        work *= len(divs) * (1 if i == 0 else 2)
        if work > _KRONECKER_BUDGET:
            raise FactorSearchBudgetError(
                f"factor search budget exceeded at degree {k}"
            )

    xs = [x for x, _ in divisor_lists]
    # Lagrange basis evaluated once
    def interpolate(values: list[Fraction]) -> QPolynomial:
        total = QPolynomial.zero()
        for i, xi in enumerate(xs):
            basis = QPolynomial.one()
            denom = ONE
            for j, xj in enumerate(xs):
                if i == j:
                    continue
                basis = basis * QPolynomial((-xj, 1))
                denom *= xi - xj
            total = total + basis.scale(values[i] / denom)
        return total

    def choices(i: int):
        x, divs = divisor_lists[i]
        if i == 0:
            for d in divs:
                yield Fraction(d)
        else:
            for d in divs:
                yield Fraction(d)
                yield Fraction(-d)

    stack = [choices(0)]
    current: list[Fraction] = []
    while stack:
        try:
            val = next(stack[-1])
        except StopIteration:
            stack.pop()
            if current:
                current.pop()
            continue
        if len(current) == len(stack) - 1:
            current.append(val)
        else:
            current[len(stack) - 1] = val
        if len(stack) < k + 1:
            stack.append(choices(len(stack)))
            continue
        cand = interpolate(current)
        if cand.degree != k:
            continue
        if any(c.denominator != 1 for c in cand.coeffs):
            continue
        if p.divmod(cand)[1].is_zero():
            prim, _ = cand.primitive_integer()
            return prim
    return None


def _factor_squarefree(q: QPolynomial) -> list[QPolynomial]:
    """Irreducible primitive integer factors of a squarefree monic q."""
    prim, _ = q.primitive_integer()
    factors: list[QPolynomial] = []
    # rational roots give the linear factors
    work = prim
    if work.coeffs[0] == 0:
        factors.append(QPolynomial((0, 1)))
        while work.coeffs[0] == 0:
            work = work.divmod(QPolynomial((0, 1)))[0]
    for root in _rational_roots(work) if work.degree > 0 else []:
        lin = QPolynomial((-root, 1)).primitive_integer()[0]
        factors.append(lin)
        work = work.divmod(lin)[0]
    # cyclotomic trial division
    if work.degree > 1:
        for n in orders_with_phi_at_most(work.degree):
            if n <= 2:
                continue  # the linear cyclotomics are rational roots
            phi_n = cyclotomic(n)
            if phi_n.degree > work.degree:
                continue
            quo, rem = work.divmod(phi_n)
            if rem.is_zero():
                factors.append(phi_n)
                work = quo
    factors.extend(_factor_hard(work.primitive_integer()[0]))
    return factors


def _factor_hard(r: QPolynomial) -> list[QPolynomial]:
    """Factor a primitive integer squarefree polynomial with no rational
    roots and no cyclotomic factors."""
    if r.degree <= 0:
        return []
    if r.degree <= 3:
        # a reducible quadratic or cubic would have a rational root
        return [r]
    n = r.degree
    lc = int(r.leading)
    patterns: set[int] | None = None
    primes_used = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        if lc % p == 0:
            continue
        fmod = _gf_trim([int(c) % p for c in r.coeffs])
        if len(fmod) - 1 != n:
            continue
        ddf = _gf_distinct_degrees(fmod, p)
        if ddf is None:
            continue
        degs = _achievable_factor_degrees(ddf)
        patterns = degs if patterns is None else patterns & degs
        primes_used += 1
        if patterns == {0, n}:
            return [r]
        if primes_used >= 4:
            break
    candidates = sorted(
        k
        for k in (patterns if patterns is not None else set(range(n + 1)))
        if 2 <= k <= n // 2
    )
    if not candidates:
        return [r]
    for k in candidates:
        found = _kronecker_search(r, k)
        if found is not None:
            rest = r.divmod(found)[0].primitive_integer()[0]
            return [found] + _factor_hard(rest)
    return [r]


def factor_over_rationals(p: QPolynomial) -> FactoredPolynomial:
    """Complete irreducible factorization over the rationals.

    Supported for degree <= 16.  The method is squarefree decomposition,
    rational root and cyclotomic stripping, then a bounded
    integer-coefficient factor search with small-prime irreducibility
    certificates.  Inputs that blow the search budget raise
    FactorSearchBudgetError rather than returning a partial answer.
    """
    if p.is_zero():
        raise ValueError("factorization of the zero polynomial")
    if p.degree > DEGREE_BOUND:
        raise DegreeBoundError(
            f"degree {p.degree} exceeds the factorization bound {DEGREE_BOUND}"
        )
    if p.degree == 0:
        return FactoredPolynomial(p.coeffs[0], (), {})
    merged: dict[QPolynomial, int] = {}
    for level, mult in squarefree_decomposition(p):
        for f in _factor_squarefree(level):
            merged[f] = merged.get(f, 0) + mult
    ordered = sorted(merged.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))
    product_lead = ONE
    for f, m in ordered:
        product_lead *= f.leading**m
    unit = p.leading / product_lead
    result = FactoredPolynomial(
        unit,
        tuple(ordered),
        {
            i: order
            for i, (f, _) in enumerate(ordered)
            if (order := cyclotomic_order(f)) is not None
        },
    )
    if result.expand() != p:
        raise AssertionError("factorization failed to reproduce the input")
    return result


# ---------------------------------------------------------------------------
# roots relative to the unit circle


@dataclass(frozen=True)
class BoundaryAnalysis:
    """Unit-circle content of a polynomial.

    ``count_on_circle`` counts roots on the circle with multiplicity.
    ``boundary_factor`` is the monic factor carrying exactly the roots
    that belong to wholly-unimodular irreducible factors, with their
    multiplicities; ``boundary_factors`` lists its irreducible parts.
    ``mixed`` flags irreducible factors that straddle the circle, whose
    unimodular roots cannot be split off as a rational factor.
    """

    count_on_circle: int
    boundary_factor: QPolynomial
    boundary_factors: tuple[tuple[QPolynomial, int], ...]
    mixed: bool
    mixed_factors: tuple[tuple[QPolynomial, int], ...] = ()


def _strip_zero_roots(p: QPolynomial) -> QPolynomial:
    coeffs = list(p.coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    return QPolynomial(coeffs)


def _trace_polynomial(g: QPolynomial) -> QPolynomial:
    """For self-reciprocal g of even degree 2m with g(1), g(-1) != 0,
    the H with g(x) = x^m H(x + 1/x)."""
    d = g.degree
    if d % 2 != 0:
        raise ValueError("trace substitution needs even degree")
    m = d // 2
    if g.reciprocal().monic() != g.monic():
        raise ValueError("trace substitution needs a self-reciprocal input")
    b = g.coeffs
    # C_k(t) = x^k + x^{-k} via the three-term recurrence
    c_prev = QPolynomial((2,))
    c_cur = QPolynomial((0, 1))
    h = QPolynomial((b[m],))
    t = QPolynomial((0, 1))
    for k in range(1, m + 1):
        ck = c_cur if k == 1 else t * c_cur - c_prev
        if k > 1:
            c_prev, c_cur = c_cur, ck
        h = h + ck.scale(b[m + k])
    return h


def _distinct_unimodular_count(g: QPolynomial) -> int:
    """Distinct unit-circle roots of a squarefree g with g(0) != 0 whose
    root set is closed under inversion."""
    count = 0
    for root in (ONE, -ONE):
        if g.evaluate(root) == 0:
            count += 1
            g = g.divmod(QPolynomial((-root, 1)))[0]
    if g.degree == 0:
        return count
    h = _trace_polynomial(g)
    count += 2 * sturm_count(h, Fraction(-2), Fraction(2))
    return count


def unimodular_part(p: QPolynomial) -> QPolynomial:
    """The monic reciprocal gcd of the squarefree part of p (zero roots
    stripped): its roots are the distinct roots r of p with 1/r also a
    root, so it carries every unimodular root once.  When no root of p
    lies outside the closed unit disk its roots are exactly those."""
    p = _strip_zero_roots(p)
    q = p.divmod(poly_gcd(p, p.derivative()))[0]
    return poly_gcd(q, q.reciprocal())


def has_unimodular_root(p: QPolynomial) -> bool:
    """True when p has a root on the unit circle, decided without
    factoring: a Sturm count on the trace polynomial of the unimodular
    part sees them."""
    g = unimodular_part(p)
    return g.degree > 0 and _distinct_unimodular_count(g) > 0


def unit_circle_root_count(p: QPolynomial) -> BoundaryAnalysis:
    """Count roots on the unit circle (with multiplicity) and extract the
    rational factor that carries them.

    The count is obtained exactly: the reciprocal gcd isolates the
    inversion-closed content, the substitution t = x + 1/x turns its
    unimodular pairs into real points of (-2, 2), and a Sturm sequence
    counts those.  The factor extraction additionally factors the gcd;
    irreducible parts that straddle the circle are flagged as mixed and
    excluded from the boundary factor.
    """
    if p.is_zero():
        raise ValueError("boundary analysis of the zero polynomial")
    p = _strip_zero_roots(p)
    count = 0
    boundary = QPolynomial.one()
    parts: dict[QPolynomial, int] = {}
    straddlers: dict[QPolynomial, int] = {}
    if p.degree > 0:
        for q, mult in squarefree_decomposition(p):
            g = poly_gcd(q, q.reciprocal())
            if g.degree == 0:
                continue
            distinct_on = _distinct_unimodular_count(g)
            count += mult * distinct_on
            if distinct_on == 0:
                continue
            for h, _ in factor_over_rationals(g).factors:
                status = _unimodular_factor_status(h)
                if status == "on":
                    monic_h = h.monic()
                    parts[monic_h] = parts.get(monic_h, 0) + mult
                    boundary = boundary * monic_h.power(mult)
                elif status == "mixed":
                    monic_h = h.monic()
                    straddlers[monic_h] = straddlers.get(monic_h, 0) + mult
    by_size = lambda fm: (fm[0].degree, fm[0].coeffs)
    ordered = tuple(sorted(parts.items(), key=by_size))
    mixed_ordered = tuple(sorted(straddlers.items(), key=by_size))
    return BoundaryAnalysis(
        count, boundary, ordered, bool(mixed_ordered), mixed_ordered
    )


def _unimodular_factor_status(h: QPolynomial) -> str:
    """Classify an irreducible factor: 'on' (all roots unimodular),
    'off' (none), or 'mixed'."""
    m = h.monic()
    if m == QPolynomial((-1, 1)) or m == QPolynomial((1, 1)):
        return "on"
    if m.evaluate(0) == 0:
        return "off"
    if m.reciprocal().monic() != m:
        return "off"
    if m.degree % 2 != 0:
        # self-reciprocal of odd degree has a root at -1, not irreducible
        return "mixed"
    trace = _trace_polynomial(m)
    inside = sturm_count(trace, Fraction(-2), Fraction(2))
    if 2 * inside == m.degree:
        return "on"
    return "mixed" if inside > 0 else "off"
