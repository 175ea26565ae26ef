"""Exact rational scalars, vectors, and matrices.

Scalars are ``fractions.Fraction``s; nothing in the certified code paths
ever touches a float.  A `QVector` is integers ``nums`` over one positive
``den`` with ``gcd(den, *nums) == 1``: ``den`` is the least common
denominator of the entries, the form is unique, and equality and hashing
compare ints.  The kernels (`QMatrix` products, `exactnum.linalg`, double
description, the simplex and `exactnum.polynomials`, whose `QPolynomial`
holds one `QVector`) read ``nums`` and ``den``; ``entries``, indexing and
iteration are `Fraction` views for the API edge.  A `QMatrix` is
cleared to integer rows over one common denominator once, on first use
(`int_rows`), and its products, the characteristic polynomial and
polynomials of it read that form; a product builds one `QVector` per
output row.  A scalar serializes to ``"p/q"`` in lowest
terms, or ``"p"`` when the denominator is one.
"""
from __future__ import annotations

import re
import sys
from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce ints (not bools), strings like ``"3/4"``, and Fractions to
    Fraction; a string with a zero denominator, or with an exponent that
    gives a numerator or denominator of more digits than `str` renders
    (``sys.get_int_max_str_digits()``), is a ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            q = _exponent_spelling(value)
            return Fraction(value) if q is None else q
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational scalar")


# "<mantissa>e<exponent>", the exponent as `Fraction` reads it; left to
# `re`'s cache on first use, as compiling it costs a few tenths of a
# millisecond at import
_EXPONENT = r"(.*?)[eE]([-+]?\d+(?:_\d+)*)\s*"


def _exponent_spelling(text: str) -> Fraction | None:
    """The value of an exponent spelling, decided from the exponent before
    `Fraction` builds 10**|e| (seconds for a nine-character string), or
    None for a string without one.  The mantissa is read with exponent 0,
    so `Fraction` accepts and rejects exactly the strings it would.  A
    zero mantissa is 0.  A nonzero one with |e| > limit + len(text) is a
    ValueError: its numerator or denominator would have more than `limit`
    digits (the mantissa's digits cancel at most len(text) of them)."""
    match = re.fullmatch(_EXPONENT, text, re.DOTALL)
    if match is None:
        return None
    mantissa = Fraction(match[1] + "e0")
    exponent = int(match[2])
    if mantissa == 0:
        return mantissa
    limit = sys.get_int_max_str_digits()
    if limit and abs(exponent) > limit + len(text):
        raise ValueError(f"exponent {exponent} beyond the digit limit")
    return Fraction(text)


def ratio_str(num: int, den: int) -> str:
    """Canonical string form of num/den, den > 0, ``"p/q"`` or ``"p"``."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def rat_str(value: Fraction) -> str:
    """Canonical string form, ``"p/q"`` or ``"p"`` for integers."""
    value = rat(value)
    return ratio_str(value.numerator, value.denominator)


class QVector:
    """Immutable vector of rationals: integer numerators ``nums`` over one
    positive denominator ``den``, with ``gcd(den, *nums) == 1``."""

    __slots__ = ("nums", "den")

    def __init__(self, entries: Iterable):
        values = [rat(e) for e in entries]
        den = lcm(*(x.denominator for x in values))
        self.nums: tuple[int, ...] = tuple(
            x.numerator * (den // x.denominator) for x in values
        )
        self.den: int = den

    @classmethod
    def from_ints(cls, numerators: Iterable[int], denominator: int = 1) -> "QVector":
        """The vector of numerators over one positive common denominator,
        brought to lowest terms by one gcd."""
        if denominator <= 0:
            raise ValueError(f"denominator {denominator} is not positive")
        nums = tuple(numerators)
        g = gcd(denominator, *nums)
        if g != 1:
            nums = tuple(x // g for x in nums)
            denominator //= g
        vector = object.__new__(cls)
        vector.nums = nums
        vector.den = denominator
        return vector

    @staticmethod
    def zero(dim: int) -> "QVector":
        return QVector.from_ints([0] * dim)

    @staticmethod
    def unit(dim: int, k: int) -> "QVector":
        return QVector.from_ints([int(i == k) for i in range(dim)])

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def dim(self) -> int:
        return len(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.den)

    def __eq__(self, other) -> bool:
        same = isinstance(other, QVector) and self.den == other.den
        return same and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return "QVector(%s)" % ", ".join(ratio_str(x, self.den) for x in self.nums)

    def __add__(self, other: "QVector") -> "QVector":
        return self._combine(other, add)

    def __sub__(self, other: "QVector") -> "QVector":
        return self._combine(other, sub)

    def __neg__(self) -> "QVector":
        return QVector.from_ints([-x for x in self.nums], self.den)

    def scale(self, c) -> "QVector":
        c = rat(c)
        return QVector.from_ints(
            [c.numerator * x for x in self.nums], c.denominator * self.den
        )

    def dot(self, other: "QVector") -> Fraction:
        self._check_dim(other)
        return Fraction(sum(map(mul, self.nums, other.nums)), self.den * other.den)

    def abs(self) -> "QVector":
        return QVector.from_ints(map(abs, self.nums), self.den)

    def cwise_max(self, other: "QVector") -> "QVector":
        return self._combine(other, max)

    def ge(self, other: "QVector") -> bool:
        self._check_dim(other)
        return all(other.den * x >= self.den * y for x, y in zip(self.nums, other.nums))

    def is_nonneg(self) -> bool:
        return all(x >= 0 for x in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def support(self) -> frozenset[int]:
        return frozenset(i for i, x in enumerate(self.nums) if x)

    def sup_norm(self) -> Fraction:
        return Fraction(max(map(abs, self.nums), default=0), self.den)

    def one_norm(self) -> Fraction:
        return Fraction(sum(map(abs, self.nums)), self.den)

    def _combine(self, other: "QVector", f) -> "QVector":
        """f entrywise on both numerators over the common denominator."""
        self._check_dim(other)
        d = lcm(self.den, other.den)
        p, q = d // self.den, d // other.den
        pairs = zip(self.nums, other.nums)
        return QVector.from_ints([f(p * x, q * y) for x, y in pairs], d)

    def _check_dim(self, other: "QVector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


class QMatrix:
    """Immutable matrix of rationals, stored as a tuple of row QVectors,
    with its integer form (`int_rows`) built on first use and kept."""

    __slots__ = ("rows", "_ints")

    def __init__(self, rows: Iterable):
        built = []
        for row in rows:
            built.append(row if isinstance(row, QVector) else QVector(row))
        self.rows: tuple[QVector, ...] = tuple(built)
        self._ints: tuple[tuple[tuple[int, ...], ...], int] | None = None
        if self.rows:
            width = self.rows[0].dim
            if any(r.dim != width for r in self.rows):
                raise ValueError("ragged rows")

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix([QVector.unit(n, i) for i in range(n)])

    @staticmethod
    def zero(nrows: int, ncols: int) -> "QMatrix":
        return QMatrix([QVector.zero(ncols) for _ in range(nrows)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self.rows[0].dim if self.rows else 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def int_rows(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(D * rows, D): the rows as integer tuples over the least common
        denominator D of all entries, computed once per matrix."""
        if self._ints is None:
            d = lcm(*(r.den for r in self.rows))
            ints = tuple(tuple(x * (d // r.den) for x in r.nums) for r in self.rows)
            self._ints = ints, d
        return self._ints

    def __eq__(self, other) -> bool:
        return isinstance(other, QMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return "QMatrix(%d x %d)" % self.shape

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._check_shape(other)
        return QMatrix(a + b for a, b in zip(self.rows, other.rows))

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._check_shape(other)
        return QMatrix(a - b for a, b in zip(self.rows, other.rows))

    def scale(self, c) -> "QMatrix":
        return QMatrix(r.scale(c) for r in self.rows)

    def matvec(self, v: QVector) -> QVector:
        """One integer dot product per row, over D * v.den."""
        if v.dim != self.ncols:
            raise ValueError("matvec dimension mismatch")
        a, d = self.int_rows()
        return QVector.from_ints([sum(map(mul, row, v.nums)) for row in a], d * v.den)

    def matmul(self, other: "QMatrix") -> "QMatrix":
        """The product, with other cleared once to integers over its
        common denominator E: row i is row i of self applied to those
        integer columns, over E times the row's denominator."""
        if self.ncols != other.nrows:
            raise ValueError("matmul dimension mismatch")
        b, e = other.int_rows()
        cols = list(zip(*b))
        return QMatrix(
            QVector.from_ints([sum(map(mul, r.nums, col)) for col in cols], r.den * e)
            for r in self.rows
        )

    def __matmul__(self, other):
        if isinstance(other, QVector):
            return self.matvec(other)
        return self.matmul(other)

    def power(self, k: int) -> "QMatrix":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = QMatrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                result = result.matmul(base)
            base = base.matmul(base) if k > 1 else base
            k >>= 1
        return result

    def transpose(self) -> "QMatrix":
        a, d = self.int_rows()
        return QMatrix(QVector.from_ints(col, d) for col in zip(*a))

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_nonneg(self) -> bool:
        return all(r.is_nonneg() for r in self.rows)

    def _check_shape(self, other: "QMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
