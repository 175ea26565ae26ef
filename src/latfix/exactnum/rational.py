"""Exact rational scalars, vectors, and matrices.

Every entry is a ``fractions.Fraction``; nothing in the certified code
paths ever touches a float.  The dense products (`QMatrix.matmul`,
`QMatrix.matvec`, `QVector.dot` and `matvec_cleared`, which combines
vectors) run on plain ints: each operand row, column or vector is
cleared once to integers over its own least common denominator, and
each output entry is one ``Fraction(sum of integer products, d_row *
d_col)``, the same canonical value the ``Fraction`` sum of products
gives.  Serialized form of a scalar is the string ``"p/q"`` in lowest
terms, or ``"p"`` when the denominator is one.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational scalar")


def cleared(entries: Sequence[Fraction]) -> tuple[list[int], int]:
    """Fractions as integers over their least common denominator d > 0:
    (the numerators x * d, d)."""
    dens = [x.denominator for x in entries]
    d = lcm(*dens)
    if d == 1:
        return [x.numerator for x in entries], 1
    return [x.numerator * (d // q) for x, q in zip(entries, dens)], d


def matvec_cleared(
    rows: Iterable[tuple[list[int], int]], x: Sequence[Fraction]
) -> "QVector":
    """The vector of dot products of the rows with x, the rows given
    cleared as (numerators, denominator): x is cleared once, and each
    entry is one Fraction of an integer dot product."""
    xs, dx = cleared(x)
    return QVector._trusted(
        tuple(Fraction(sum(map(mul, a, xs)), d * dx) for a, d in rows)
    )


def rat_str(value: Fraction) -> str:
    """Canonical string form, ``"p/q"`` or ``"p"`` for integers."""
    value = rat(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class QVector:
    """Immutable vector of Fractions."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        self.entries: tuple[Fraction, ...] = tuple(rat(e) for e in entries)

    @classmethod
    def from_ints(cls, numerators: Iterable[int], denominator: int = 1) -> "QVector":
        """The vector of numerators over one positive common
        denominator, built without `rat`'s per-entry type checks."""
        if denominator == 1:
            return cls._trusted(tuple(map(Fraction, numerators)))
        return cls._trusted(tuple(Fraction(x, denominator) for x in numerators))

    @classmethod
    def _trusted(cls, entries: tuple[Fraction, ...]) -> "QVector":
        """The vector of a tuple whose entries are already Fractions,
        built without `rat`."""
        vector = object.__new__(cls)
        vector.entries = entries
        return vector

    @staticmethod
    def zero(dim: int) -> "QVector":
        return QVector([ZERO] * dim)

    @staticmethod
    def unit(dim: int, k: int) -> "QVector":
        return QVector([ONE if i == k else ZERO for i in range(dim)])

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, QVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "QVector(%s)" % ", ".join(rat_str(e) for e in self.entries)

    def __add__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector._trusted(
            tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector._trusted(
            tuple(a - b for a, b in zip(self.entries, other.entries))
        )

    def __neg__(self) -> "QVector":
        return QVector._trusted(tuple(-a for a in self.entries))

    def scale(self, c) -> "QVector":
        c = rat(c)
        return QVector._trusted(tuple(c * a for a in self.entries))

    def dot(self, other: "QVector") -> Fraction:
        self._check_dim(other)
        xs, dx = cleared(self.entries)
        ys, dy = cleared(other.entries)
        return Fraction(sum(map(mul, xs, ys)), dx * dy)

    def abs(self) -> "QVector":
        return QVector._trusted(tuple(abs(a) for a in self.entries))

    def cwise_max(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector._trusted(
            tuple(max(a, b) for a, b in zip(self.entries, other.entries))
        )

    def ge(self, other: "QVector") -> bool:
        self._check_dim(other)
        return all(a >= b for a, b in zip(self.entries, other.entries))

    def is_nonneg(self) -> bool:
        return all(a >= 0 for a in self.entries)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def support(self) -> frozenset[int]:
        return frozenset(i for i, a in enumerate(self.entries) if a != 0)

    def sup_norm(self) -> Fraction:
        return max((abs(a) for a in self.entries), default=ZERO)

    def one_norm(self) -> Fraction:
        return sum((abs(a) for a in self.entries), ZERO)

    def _check_dim(self, other: "QVector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


class QMatrix:
    """Immutable matrix of Fractions, stored as a tuple of row QVectors."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable):
        built = []
        for row in rows:
            built.append(row if isinstance(row, QVector) else QVector(row))
        self.rows: tuple[QVector, ...] = tuple(built)
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

    @staticmethod
    def from_columns(cols: Sequence[QVector]) -> "QMatrix":
        return QMatrix(cols).transpose()

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self.rows[0].dim if self.rows else 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

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
        if v.dim != self.ncols:
            raise ValueError("matvec dimension mismatch")
        return matvec_cleared((cleared(r.entries) for r in self.rows), v.entries)

    def matmul(self, other: "QMatrix") -> "QMatrix":
        """The product, row i being the cleared columns of other applied
        to row i of self: each row and column is cleared once."""
        if self.ncols != other.nrows:
            raise ValueError("matmul dimension mismatch")
        cols = [cleared(col) for col in zip(*(r.entries for r in other.rows))]
        return QMatrix(matvec_cleared(cols, row.entries) for row in self.rows)

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
        return QMatrix(map(QVector._trusted, zip(*(r.entries for r in self.rows))))

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_nonneg(self) -> bool:
        return all(r.is_nonneg() for r in self.rows)

    def _check_shape(self, other: "QMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
