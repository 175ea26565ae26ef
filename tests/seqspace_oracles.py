"""Test-only reference symbolic vectors: the earlier `ChainValue`, which
stored a chain as a tuple of `Fraction` prefix entries and a `Fraction`
tail, and the earlier `SymbolicVector` arithmetic, which mapped entry
functions over those tuples and over the entries of the finite part.

Every operation works entry by entry in `Fraction` arithmetic, so the
one-`QVector` chain format (`QVector` operations on chains padded to a
common prefix length) can be compared with it exactly.
`reference_evaluate` and `reference_apply` are the earlier
`LinearFunctionalSpec.evaluate` and `apply` on these vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from latfix.exactnum.rational import ZERO, rat
from latfix.seqspace import IndexSchema, LinearFunctionalSpec, ShiftInsertOperator


@dataclass(frozen=True)
class FChainValue:
    """Eventually constant sequence: explicit prefix, then the tail."""

    prefix: tuple[Fraction, ...]
    tail: Fraction

    def at(self, j: int) -> Fraction:
        return self.prefix[j] if j < len(self.prefix) else self.tail

    def is_zero(self) -> bool:
        return not self.prefix and self.tail == 0

    def sup_norm(self) -> Fraction:
        return max([abs(self.tail)] + [abs(x) for x in self.prefix])


def fchain_value(prefix: Iterable, tail) -> FChainValue:
    t = rat(tail)
    p = [rat(x) for x in prefix]
    while p and p[-1] == t:
        p.pop()
    return FChainValue(tuple(p), t)


F_ZERO_CHAIN = FChainValue((), ZERO)


def chain_zip(a: FChainValue, b: FChainValue, f) -> FChainValue:
    n = max(len(a.prefix), len(b.prefix))
    return fchain_value((f(a.at(j), b.at(j)) for j in range(n)), f(a.tail, b.tail))


def chain_map(a: FChainValue, f) -> FChainValue:
    return fchain_value((f(x) for x in a.prefix), f(a.tail))


@dataclass(frozen=True)
class FSymbolicVector:
    """A symbolic vector with a `Fraction` tuple for its finite part;
    chains are brought to canonical form and trailing zero grid rows
    dropped, as before."""

    schema: IndexSchema
    finite: tuple[Fraction, ...]
    chains: tuple[FChainValue, ...] = ()
    grid_rows: tuple[FChainValue, ...] = ()

    def __post_init__(self) -> None:
        chains = tuple(fchain_value(c.prefix, c.tail) for c in self.chains)
        rows = [fchain_value(r.prefix, r.tail) for r in self.grid_rows]
        while rows and rows[-1].is_zero():
            rows.pop()
        object.__setattr__(self, "finite", tuple(map(rat, self.finite)))
        object.__setattr__(self, "chains", chains)
        object.__setattr__(self, "grid_rows", tuple(rows))

    def grid_row(self, k: int) -> FChainValue:
        return self.grid_rows[k] if k < len(self.grid_rows) else F_ZERO_CHAIN

    def grid_row_tail(self, k: int) -> Fraction:
        return self.grid_row(k).tail

    def is_zero(self) -> bool:
        return (
            all(x == 0 for x in self.finite)
            and all(c.is_zero() for c in self.chains)
            and not self.grid_rows
        )

    def sup_norm(self) -> Fraction:
        parts = [abs(x) for x in self.finite]
        parts += [c.sup_norm() for c in self.chains]
        parts += [r.sup_norm() for r in self.grid_rows]
        return max(parts, default=Fraction(0))

    def _zip(self, other: "FSymbolicVector", f) -> "FSymbolicVector":
        if self.schema != other.schema:
            raise ValueError("schema mismatch")
        nrows = max(len(self.grid_rows), len(other.grid_rows))
        return FSymbolicVector(
            self.schema,
            tuple(f(a, b) for a, b in zip(self.finite, other.finite)),
            tuple(chain_zip(a, b, f) for a, b in zip(self.chains, other.chains)),
            tuple(
                chain_zip(self.grid_row(k), other.grid_row(k), f)
                for k in range(nrows)
            ),
        )

    def _map(self, f) -> "FSymbolicVector":
        return FSymbolicVector(
            self.schema,
            tuple(f(x) for x in self.finite),
            tuple(chain_map(c, f) for c in self.chains),
            tuple(chain_map(r, f) for r in self.grid_rows),
        )

    def __add__(self, other: "FSymbolicVector") -> "FSymbolicVector":
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other: "FSymbolicVector") -> "FSymbolicVector":
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self) -> "FSymbolicVector":
        return self._map(lambda a: -a)

    def scale(self, c) -> "FSymbolicVector":
        c = rat(c)
        return self._map(lambda a: c * a)

    def abs(self) -> "FSymbolicVector":
        return self._map(abs)

    def ge(self, other: "FSymbolicVector") -> bool:
        diff = self._zip(other, lambda a, b: a - b)
        if any(x < 0 for x in diff.finite):
            return False
        for c in diff.chains + diff.grid_rows:
            if c.tail < 0 or any(x < 0 for x in c.prefix):
                return False
        return True


def reference_pointwise_sup(u: FSymbolicVector, v: FSymbolicVector) -> FSymbolicVector:
    return u._zip(v, max)


def reference_evaluate(spec: LinearFunctionalSpec, v: FSymbolicVector) -> Fraction:
    total = Fraction(0)
    for i, c in spec.finite_terms:
        total += c * v.finite[i]
    for i, c in spec.chain_tail_terms:
        total += c * v.chains[i].tail
    for k, c in spec.grid_row_tail_terms:
        total += c * v.grid_row_tail(k)
    return total


def reference_apply(op: ShiftInsertOperator, v: FSymbolicVector) -> FSymbolicVector:
    """The shift-insert image, entry by entry: every finite input adds its
    functional to its coordinate, each chain takes its source value at
    position 0, and grid row k takes cross * (tail of row k-1)."""
    nf = op.schema.finite_dim
    finite = [
        sum((op.finite_block.entry(i, j) * v.finite[j] for j in range(nf)), ZERO)
        for i in range(nf)
    ]
    for i, spec in op.finite_inputs:
        finite[i] += reference_evaluate(spec, v)
    chains = tuple(
        fchain_value((reference_evaluate(spec, v),) + c.prefix, c.tail)
        for spec, c in zip(op.chain_sources, v.chains)
    )
    rows: list[FChainValue] = []
    if op.schema.grid is not None:
        for k in range(len(v.grid_rows) + 1):
            old = v.grid_row(k)
            entry = (
                reference_evaluate(op.grid_row0_source, v)
                if k == 0
                else op.grid_cross * v.grid_row_tail(k - 1)
            )
            rows.append(fchain_value((entry,) + old.prefix, old.tail))
    return FSymbolicVector(op.schema, tuple(finite), chains, tuple(rows))
