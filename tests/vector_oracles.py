"""Test-only reference vectors and matrices: the earlier `QVector` and
`QMatrix`, which stored a tuple of `Fraction`s per vector.

Every operation works entry by entry in `Fraction` arithmetic, one gcd
per step, so the integer form (numerators over one least common
denominator) can be compared with it exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from latfix.exactnum.rational import ONE, ZERO, rat


class FVector:
    """Immutable vector of Fractions."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        self.entries: tuple[Fraction, ...] = tuple(rat(e) for e in entries)

    @staticmethod
    def zero(dim: int) -> "FVector":
        return FVector([ZERO] * dim)

    @staticmethod
    def unit(dim: int, k: int) -> "FVector":
        return FVector([ONE if i == k else ZERO for i in range(dim)])

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, FVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __add__(self, other: "FVector") -> "FVector":
        self._check_dim(other)
        return FVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "FVector") -> "FVector":
        self._check_dim(other)
        return FVector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "FVector":
        return FVector(-a for a in self.entries)

    def scale(self, c) -> "FVector":
        c = rat(c)
        return FVector(c * a for a in self.entries)

    def dot(self, other: "FVector") -> Fraction:
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), ZERO)

    def abs(self) -> "FVector":
        return FVector(abs(a) for a in self.entries)

    def cwise_max(self, other: "FVector") -> "FVector":
        self._check_dim(other)
        return FVector(max(a, b) for a, b in zip(self.entries, other.entries))

    def ge(self, other: "FVector") -> bool:
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

    def _check_dim(self, other: "FVector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


class FMatrix:
    """Immutable matrix of Fractions, stored as a tuple of row FVectors."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable):
        self.rows: tuple[FVector, ...] = tuple(
            row if isinstance(row, FVector) else FVector(row) for row in rows
        )
        if self.rows and any(r.dim != self.rows[0].dim for r in self.rows):
            raise ValueError("ragged rows")

    @staticmethod
    def identity(n: int) -> "FMatrix":
        return FMatrix([FVector.unit(n, i) for i in range(n)])

    @staticmethod
    def zero(nrows: int, ncols: int) -> "FMatrix":
        return FMatrix([FVector.zero(ncols) for _ in range(nrows)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self.rows[0].dim if self.rows else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, FMatrix) and self.rows == other.rows

    def __add__(self, other: "FMatrix") -> "FMatrix":
        return FMatrix(a + b for a, b in zip(self.rows, other.rows))

    def __sub__(self, other: "FMatrix") -> "FMatrix":
        return FMatrix(a - b for a, b in zip(self.rows, other.rows))

    def scale(self, c) -> "FMatrix":
        return FMatrix(r.scale(c) for r in self.rows)

    def matvec(self, v: FVector) -> FVector:
        if v.dim != self.ncols:
            raise ValueError("matvec dimension mismatch")
        return FVector(r.dot(v) for r in self.rows)

    def matmul(self, other: "FMatrix") -> "FMatrix":
        if self.ncols != other.nrows:
            raise ValueError("matmul dimension mismatch")
        cols = other.transpose().rows
        return FMatrix(FVector(r.dot(c) for c in cols) for r in self.rows)

    def power(self, k: int) -> "FMatrix":
        result = FMatrix.identity(self.nrows)
        for _ in range(k):
            result = result.matmul(self)
        return result

    def transpose(self) -> "FMatrix":
        return FMatrix(map(FVector, zip(*(r.entries for r in self.rows))))

    def is_nonneg(self) -> bool:
        return all(r.is_nonneg() for r in self.rows)
