"""Test-only reference symbolic vectors and functionals.

`FChainValue` and `FSymbolicVector` are the earlier `ChainValue`, which
stored a chain as a tuple of `Fraction` prefix entries and a `Fraction`
tail, and the earlier `SymbolicVector` arithmetic, which mapped entry
functions over those tuples and over the entries of the finite part.
Every operation works entry by entry in `Fraction` arithmetic, so the
one-`QVector` chain format (`QVector` operations on chains padded to a
common prefix length) can be compared with it exactly.
`reference_evaluate` and `reference_apply` evaluate a functional and
apply an operator on these vectors, entry by entry: the finite block
feeds the finite coordinates, a functional each chain's entry and grid
row 0's entry, and cross * (tail of row k-1) grid row k's entry.

`TermSpec` is the earlier `LinearFunctionalSpec`: two tuples of
(index, coefficient) terms, on the finite coordinates and on the chain
tails, which are all that a functional reads.  `reference_eigenspace`
and `reference_embedding` are the earlier `symbolic_eigenspace` and
`constant_profile_embedding`, which read those terms one kind at a
time; they run on operators whose functionals are `TermSpec`s, so the
stable-coordinate functional (one coefficient `QVector`) can be
compared with them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from latfix.conegeom import Subspace
from latfix.exactnum import TheoremViolationError
from latfix.exactnum.linalg import kernel_basis
from latfix.exactnum.rational import ONE, ZERO, QMatrix, QVector, rat
from latfix.seqspace import (
    L_INFTY,
    ChainValue,
    IndexSchema,
    LinearFunctionalSpec,
    ShiftInsertOperator,
    SymbolicVector,
    apply,
    chain_value,
)


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
    """The coefficients, in order over the finite coordinates and the
    chain tails, times those entries of v."""
    values = list(v.finite) + [c.tail for c in v.chains]
    total = Fraction(0)
    for c, x in zip(spec.coeffs, values):
        total += c * x
    return total


def reference_apply(op: ShiftInsertOperator, v: FSymbolicVector) -> FSymbolicVector:
    """The shift-insert image, entry by entry: the finite block maps the
    finite part, each chain takes its source value at position 0, and
    grid row k takes cross * (tail of row k-1)."""
    nf = op.schema.finite_dim
    finite = [
        sum((op.finite_block.entry(i, j) * v.finite[j] for j in range(nf)), ZERO)
        for i in range(nf)
    ]
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


# ---------------------------------------------------------------------------
# the term-tuple functional and its readers


@dataclass(frozen=True)
class TermSpec:
    """Finite combination of finite coordinates and chain tail limits,
    as sorted (index, coefficient) terms of each kind."""

    finite_terms: tuple[tuple[int, Fraction], ...] = ()
    chain_tail_terms: tuple[tuple[int, Fraction], ...] = ()

    @staticmethod
    def build(
        schema: IndexSchema,
        finite: Mapping[str, object] | None = None,
        chain_tails: Mapping[str, object] | None = None,
    ) -> "TermSpec":
        fin = tuple(
            sorted(
                (schema.finite_index(name), rat(c))
                for name, c in (finite or {}).items()
            )
        )
        cht = tuple(
            sorted(
                (schema.chain_index(name), rat(c))
                for name, c in (chain_tails or {}).items()
            )
        )
        return TermSpec(fin, cht)

    def evaluate(self, v: SymbolicVector) -> Fraction:
        """The sum of the terms over one common denominator, read off the
        integer numerators of v's parts."""
        reads = [(c, v.finite_part, i) for i, c in self.finite_terms]
        reads += [(c, v.chains[i].values, -1) for i, c in self.chain_tail_terms]
        num, den = 0, 1
        for c, vec, j in reads:
            d = c.denominator * vec.den
            m = lcm(den, d)
            num = num * (m // den) + c.numerator * vec.nums[j] * (m // d)
            den = m
        return Fraction(num, den)

    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return self.finite_terms + self.chain_tail_terms

    def mass(self) -> Fraction:
        return sum((abs(c) for _, c in self.terms()), Fraction(0))

    def is_nonneg(self) -> bool:
        return all(c >= 0 for _, c in self.terms())


def reference_spec_row(op: ShiftInsertOperator, spec: TermSpec, nvars: int) -> list[Fraction]:
    """Spec as a row over (finite coords, chain constants, grid row-0
    constant): valid for eigenvectors, whose chains are constant."""
    nf = op.schema.finite_dim
    row = [ZERO] * nvars
    for i, c in spec.finite_terms:
        row[i] += c
    for i, c in spec.chain_tail_terms:
        row[nf + i] += c
    return row


def reference_eigenspace(op: ShiftInsertOperator, lam) -> list[SymbolicVector]:
    """The eigenspace at lam in {1, -1}, one row per coordinate rule and
    one forced-zero row per constant that cannot survive."""
    lam = rat(lam)
    if lam not in (ONE, -ONE):
        raise ValueError("eigenvalue must be 1 or -1")
    s = op.schema
    nf = s.finite_dim
    nch = len(s.chains)
    nvars = nf + nch + (1 if s.grid is not None else 0)
    rows: list[list[Fraction]] = []
    for i, block_row in enumerate(op.finite_block.rows):
        row = list(block_row) + [ZERO] * (nvars - nf)
        row[i] -= lam
        rows.append(row)
    for ci, (decl, spec) in enumerate(zip(s.chains, op.chain_sources)):
        row = reference_spec_row(op, spec, nvars)
        row[nf + ci] -= lam
        rows.append(row)
        active = lam == ONE and decl.space_tag == L_INFTY
        if not active:
            forced = [ZERO] * nvars
            forced[nf + ci] = ONE
            rows.append(forced)
    if s.grid is not None:
        gv = nf + nch
        row = reference_spec_row(op, op.grid_row0_source, nvars)
        row[gv] -= lam
        rows.append(row)
        active = lam == ONE and s.grid.space_tag == L_INFTY and op.grid_cross == 0
        if not active:
            forced = [ZERO] * nvars
            forced[gv] = ONE
            rows.append(forced)
    basis = kernel_basis(QMatrix(rows)) if rows else kernel_basis(
        QMatrix([QVector.zero(nvars)])
    )
    out: list[SymbolicVector] = []
    for k in basis:
        finite = QVector(k[i] for i in range(nf))
        chains = tuple(chain_value((), k[nf + ci]) for ci in range(nch))
        grid_rows: tuple[ChainValue, ...] = ()
        if s.grid is not None and k[nf + nch] != 0:
            grid_rows = (chain_value((), k[nf + nch]),)
        vec = SymbolicVector(s, finite, chains, grid_rows)
        if apply(op, vec) != vec.scale(lam):
            raise TheoremViolationError("eigenvector failed verification")
        out.append(vec)
    return out


def reference_embedding(schema: IndexSchema, vectors: Sequence[SymbolicVector]) -> Subspace:
    """Constant-profile vectors as points of R^(finite + chains + grid)."""
    nf = schema.finite_dim
    dim = nf + len(schema.chains) + (1 if schema.grid is not None else 0)
    embedded = []
    for v in vectors:
        if v.schema != schema:
            raise ValueError("schema mismatch")
        coords = list(v.finite_part)
        for c in v.chains:
            if c.prefix:
                raise ValueError("chain is not constant")
            coords.append(c.tail)
        if schema.grid is not None:
            if len(v.grid_rows) > 1 or any(r.prefix for r in v.grid_rows):
                raise ValueError("grid content beyond a constant row 0")
            coords.append(v.grid_row_tail(0))
        embedded.append(QVector(coords))
    return Subspace.from_vectors(dim, embedded)

