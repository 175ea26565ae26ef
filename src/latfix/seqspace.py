"""Symbolic sequence spaces with shift-insert operators.

This module models, exactly, the class of infinite-dimensional vectors
and operators needed for the counterexample gallery: a finite block of
named coordinates, finitely many shift chains (eventually constant
sequences living in c0 or l-infinity), and at most one grid family of
chain rows (finitely many nonzero rows).  Three structural facts make
exact computation possible on this class:

* an eventually constant sequence is described by a finite prefix and a
  tail value, and every operator here maps the class into itself;
* the tail-limit functional (standing in for a free ultrafilter limit)
  is simply the tail value, which agrees with the true limit on every
  representable vector;
* tails are invariant under the shift-insert action, so the finite
  block evolves autonomously and monotone orbit suprema have closed
  forms through the fixed-space projection of the (augmented) finite
  block.

Vectors are kept canonical: chain prefixes never end in the tail value
and grid rows never end in zero rows, so structural equality is value
equality.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .conegeom import Subspace
from .exactnum import TheoremViolationError
from .exactnum.linalg import char_poly, fix_projection, kernel_basis
from .exactnum.polynomials import QPolynomial, unimodular_part
from .exactnum.rational import ONE, ZERO, QMatrix, QVector, rat
from .opcore import perron_root_vs_one

C_ZERO = "CZero"
L_INFTY = "LInfty"


class UnsupportedClosedFormError(ValueError):
    """The orbit supremum exists pointwise but falls outside the class
    whose suprema this module can certify in closed form."""


class NoSupremumError(ValueError):
    """The increasing orbit has no supremum in the space itself: on a
    c0 chain the candidate supremum acquires a nonzero tail, so no
    element of the space dominates the orbit minimally (the space is
    not monotonically complete)."""


@dataclass(frozen=True)
class ChainDecl:
    name: str
    space_tag: str

    def __post_init__(self) -> None:
        if self.space_tag not in (C_ZERO, L_INFTY):
            raise ValueError(f"unknown space tag {self.space_tag!r}")


@dataclass(frozen=True)
class GridDecl:
    name: str
    space_tag: str

    def __post_init__(self) -> None:
        if self.space_tag not in (C_ZERO, L_INFTY):
            raise ValueError(f"unknown space tag {self.space_tag!r}")


@dataclass(frozen=True)
class IndexSchema:
    """Finite named coordinates, named chains, optionally one grid."""

    finite_coords: tuple[str, ...]
    chains: tuple[ChainDecl, ...] = ()
    grid: GridDecl | None = None

    def __post_init__(self) -> None:
        names = list(self.finite_coords) + [c.name for c in self.chains]
        if self.grid is not None:
            names.append(self.grid.name)
        if len(set(names)) != len(names):
            raise ValueError("schema names must be unique")

    @property
    def finite_dim(self) -> int:
        return len(self.finite_coords)

    def finite_index(self, name: str) -> int:
        return self.finite_coords.index(name)

    def chain_index(self, name: str) -> int:
        for i, c in enumerate(self.chains):
            if c.name == name:
                return i
        raise ValueError(f"no chain named {name!r}")


@dataclass(frozen=True)
class ChainValue:
    """Eventually constant sequence: explicit prefix, then the tail."""

    prefix: tuple[Fraction, ...]
    tail: Fraction

    def at(self, j: int) -> Fraction:
        return self.prefix[j] if j < len(self.prefix) else self.tail

    def is_zero(self) -> bool:
        return not self.prefix and self.tail == 0

    def sup_norm(self) -> Fraction:
        return max([abs(self.tail)] + [abs(x) for x in self.prefix])


def chain_value(prefix: Iterable, tail) -> ChainValue:
    t = rat(tail)
    p = [rat(x) for x in prefix]
    while p and p[-1] == t:
        p.pop()
    return ChainValue(tuple(p), t)


ZERO_CHAIN = ChainValue((), ZERO)


def _chain_zip(a: ChainValue, b: ChainValue, f) -> ChainValue:
    n = max(len(a.prefix), len(b.prefix))
    return chain_value(
        (f(a.at(j), b.at(j)) for j in range(n)), f(a.tail, b.tail)
    )


def _chain_map(a: ChainValue, f) -> ChainValue:
    return chain_value((f(x) for x in a.prefix), f(a.tail))


@dataclass(frozen=True)
class SymbolicVector:
    schema: IndexSchema
    finite_part: QVector
    chains: tuple[ChainValue, ...] = ()
    grid_rows: tuple[ChainValue, ...] = ()

    def __post_init__(self) -> None:
        s = self.schema
        if self.finite_part.dim != s.finite_dim:
            raise ValueError("finite part does not match the schema")
        if len(self.chains) != len(s.chains):
            raise ValueError("chain count does not match the schema")
        chains = tuple(chain_value(c.prefix, c.tail) for c in self.chains)
        for decl, c in zip(s.chains, chains):
            if decl.space_tag == C_ZERO and c.tail != 0:
                raise ValueError(
                    f"chain {decl.name!r} lives in c0 but has tail {c.tail}"
                )
        rows = [chain_value(r.prefix, r.tail) for r in self.grid_rows]
        if rows and s.grid is None:
            raise ValueError("grid rows without a grid in the schema")
        if s.grid is not None and s.grid.space_tag == C_ZERO:
            for r in rows:
                if r.tail != 0:
                    raise ValueError("grid rows live in c0 but have a tail")
        while rows and rows[-1].is_zero():
            rows.pop()
        object.__setattr__(self, "chains", chains)
        object.__setattr__(self, "grid_rows", tuple(rows))

    @staticmethod
    def zero(schema: IndexSchema) -> "SymbolicVector":
        return SymbolicVector(
            schema,
            QVector.zero(schema.finite_dim),
            tuple(ZERO_CHAIN for _ in schema.chains),
        )

    def grid_row(self, k: int) -> ChainValue:
        return self.grid_rows[k] if k < len(self.grid_rows) else ZERO_CHAIN

    def grid_row_tail(self, k: int) -> Fraction:
        return self.grid_row(k).tail

    def is_zero(self) -> bool:
        return (
            self.finite_part.is_zero()
            and all(c.is_zero() for c in self.chains)
            and not self.grid_rows
        )

    def sup_norm(self) -> Fraction:
        parts = [abs(x) for x in self.finite_part]
        parts += [c.sup_norm() for c in self.chains]
        parts += [r.sup_norm() for r in self.grid_rows]
        return max(parts, default=Fraction(0))

    def _zip(self, other: "SymbolicVector", f) -> "SymbolicVector":
        if self.schema != other.schema:
            raise ValueError("schema mismatch")
        nrows = max(len(self.grid_rows), len(other.grid_rows))
        return SymbolicVector(
            self.schema,
            QVector(f(a, b) for a, b in zip(self.finite_part, other.finite_part)),
            tuple(
                _chain_zip(a, b, f) for a, b in zip(self.chains, other.chains)
            ),
            tuple(
                _chain_zip(self.grid_row(k), other.grid_row(k), f)
                for k in range(nrows)
            ),
        )

    def _map(self, f) -> "SymbolicVector":
        return SymbolicVector(
            self.schema,
            QVector(f(x) for x in self.finite_part),
            tuple(_chain_map(c, f) for c in self.chains),
            tuple(_chain_map(r, f) for r in self.grid_rows),
        )

    def __add__(self, other: "SymbolicVector") -> "SymbolicVector":
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other: "SymbolicVector") -> "SymbolicVector":
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self) -> "SymbolicVector":
        return self._map(lambda a: -a)

    def scale(self, c) -> "SymbolicVector":
        c = rat(c)
        return self._map(lambda a: c * a)

    def abs(self) -> "SymbolicVector":
        return self._map(abs)

    def ge(self, other: "SymbolicVector") -> bool:
        """Componentwise self >= other across all coordinates."""
        diff = self._zip(other, lambda a, b: a - b)
        if any(x < 0 for x in diff.finite_part):
            return False
        for c in diff.chains:
            if c.tail < 0 or any(x < 0 for x in c.prefix):
                return False
        for r in diff.grid_rows:
            if r.tail < 0 or any(x < 0 for x in r.prefix):
                return False
        return True


def pointwise_sup(u: SymbolicVector, v: SymbolicVector) -> SymbolicVector:
    """Coordinatewise maximum, the ambient lattice supremum."""
    return u._zip(v, max)


def ambient_sup(vectors: Sequence[SymbolicVector]) -> SymbolicVector:
    if not vectors:
        raise ValueError("empty vector collection")
    out = vectors[0]
    for v in vectors[1:]:
        out = pointwise_sup(out, v)
    return out


# ---------------------------------------------------------------------------
# functionals


@dataclass(frozen=True)
class LinearFunctionalSpec:
    """Finite combination of finite coordinates and tail limits.

    Tail-limit terms read a chain's (or grid row's) tail value, which is
    the limit of the sequence along any free ultrafilter since the
    representable class is eventually constant.  References to interior
    chain coordinates are deliberately not expressible: they are not
    shift-stable and fall outside the operator class.
    """

    finite_terms: tuple[tuple[int, Fraction], ...] = ()
    chain_tail_terms: tuple[tuple[int, Fraction], ...] = ()
    grid_row_tail_terms: tuple[tuple[int, Fraction], ...] = ()

    @staticmethod
    def build(
        schema: IndexSchema,
        finite: Mapping[str, object] | None = None,
        chain_tails: Mapping[str, object] | None = None,
        grid_row_tails: Mapping[int, object] | None = None,
    ) -> "LinearFunctionalSpec":
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
        grt = tuple(sorted((k, rat(c)) for k, c in (grid_row_tails or {}).items()))
        if grt and schema.grid is None:
            raise ValueError("grid row reference without a grid")
        if any(k < 0 for k, _ in grt):
            raise ValueError("grid row index must be nonnegative")
        return LinearFunctionalSpec(fin, cht, grt)

    def evaluate(self, v: SymbolicVector) -> Fraction:
        total = Fraction(0)
        for i, c in self.finite_terms:
            total += c * v.finite_part[i]
        for i, c in self.chain_tail_terms:
            total += c * v.chains[i].tail
        for k, c in self.grid_row_tail_terms:
            total += c * v.grid_row_tail(k)
        return total

    def mass(self) -> Fraction:
        return sum(
            (
                abs(c)
                for _, c in (
                    self.finite_terms
                    + self.chain_tail_terms
                    + self.grid_row_tail_terms
                )
            ),
            Fraction(0),
        )

    def is_nonneg(self) -> bool:
        return all(
            c >= 0
            for _, c in (
                self.finite_terms
                + self.chain_tail_terms
                + self.grid_row_tail_terms
            )
        )


ZERO_FUNCTIONAL = LinearFunctionalSpec()


# ---------------------------------------------------------------------------
# operators


@dataclass(frozen=True)
class ShiftInsertOperator:
    """Positive operator: finite block on the named coordinates (plus
    optional functional inputs added per coordinate), each chain shifted
    right with its entry coordinate fed by a functional, and grid row k
    fed by cross * (tail of row k-1), row 0 by its own functional."""

    schema: IndexSchema
    finite_block: QMatrix
    finite_inputs: tuple[tuple[int, LinearFunctionalSpec], ...] = ()
    chain_sources: tuple[LinearFunctionalSpec, ...] = ()
    grid_row0_source: LinearFunctionalSpec | None = None
    grid_cross: Fraction = ZERO

    def __post_init__(self) -> None:
        s = self.schema
        nf = s.finite_dim
        if self.finite_block.shape != (nf, nf):
            raise ValueError("finite block does not match the schema")
        if not self.finite_block.is_nonneg():
            raise ValueError("finite block must be entrywise nonnegative")
        for i, spec in self.finite_inputs:
            if not 0 <= i < nf:
                raise ValueError("finite input index out of range")
            if not spec.is_nonneg():
                raise ValueError("operator coefficients must be nonnegative")
        if len(self.chain_sources) != len(s.chains):
            raise ValueError("one entry source per chain is required")
        for spec in self.chain_sources:
            if not spec.is_nonneg():
                raise ValueError("operator coefficients must be nonnegative")
        object.__setattr__(self, "grid_cross", rat(self.grid_cross))
        if s.grid is None:
            if self.grid_row0_source is not None or self.grid_cross != 0:
                raise ValueError("grid rules without a grid in the schema")
        else:
            if self.grid_row0_source is None:
                raise ValueError("a grid needs a row-0 entry source")
            if not self.grid_row0_source.is_nonneg() or self.grid_cross < 0:
                raise ValueError("operator coefficients must be nonnegative")


def apply(op: ShiftInsertOperator, v: SymbolicVector) -> SymbolicVector:
    """Exact image of a representable vector."""
    if v.schema != op.schema:
        raise ValueError("schema mismatch")
    finite = op.finite_block @ v.finite_part
    for i, spec in op.finite_inputs:
        finite = finite + QVector.unit(finite.dim, i).scale(spec.evaluate(v))
    chains = tuple(
        chain_value((spec.evaluate(v),) + c.prefix, c.tail)
        for spec, c in zip(op.chain_sources, v.chains)
    )
    rows: list[ChainValue] = []
    if op.schema.grid is not None:
        for k in range(len(v.grid_rows) + 1):
            old = v.grid_row(k)
            entry = (
                op.grid_row0_source.evaluate(v)
                if k == 0
                else op.grid_cross * v.grid_row_tail(k - 1)
            )
            rows.append(chain_value((entry,) + old.prefix, old.tail))
    return SymbolicVector(op.schema, finite, chains, tuple(rows))


def apply_power(op: ShiftInsertOperator, v: SymbolicVector, power: int) -> SymbolicVector:
    for _ in range(power):
        v = apply(op, v)
    return v


def symbolic_operator_norm(op: ShiftInsertOperator) -> Fraction:
    """Induced sup norm: the largest l1 coefficient mass over all output
    coordinates.  Shift coordinates carry mass 1; the maximum is finite
    because only finitely many distinct coordinate rules exist."""
    masses: list[Fraction] = []
    extra = dict(op.finite_inputs)
    for i, row in enumerate(op.finite_block.rows):
        m = sum(map(abs, row), Fraction(0))
        if i in extra:
            m += extra[i].mass()
        masses.append(m)
    for spec in op.chain_sources:
        masses.append(spec.mass())
    if op.schema.chains:
        masses.append(Fraction(1))
    if op.schema.grid is not None:
        masses.append(op.grid_row0_source.mass())
        masses.append(abs(op.grid_cross))
        masses.append(Fraction(1))
    return max(masses, default=Fraction(0))


# ---------------------------------------------------------------------------
# eigenspaces


def _spec_row(op: ShiftInsertOperator, spec: LinearFunctionalSpec, nvars: int) -> list[Fraction]:
    """Spec as a row over (finite coords, chain constants, grid row-0
    constant): valid for eigenvectors, whose chains are constant and
    whose grid rows vanish beyond row 0."""
    nf = op.schema.finite_dim
    nch = len(op.schema.chains)
    row = [ZERO] * nvars
    for i, c in spec.finite_terms:
        row[i] += c
    for i, c in spec.chain_tail_terms:
        row[nf + i] += c
    for k, c in spec.grid_row_tail_terms:
        if k == 0:
            row[nf + nch] += c
    return row


def symbolic_eigenspace(op: ShiftInsertOperator, lam) -> list[SymbolicVector]:
    """Basis of the eigenspace at lam in {1, -1} within the
    representable class.

    Along a shifted chain the eigenvalue equation forces the profile
    f(j) = lam^j f(0).  For lam = 1 that is a constant, representable
    with tail equal to the constant (zero on c0 chains); for lam = -1
    an alternating profile is eventually constant only when zero.  Grid
    rows beyond row 0 are forced to zero by the finite-support
    invariant: row k would need value cross^k * row0, nonzero for all k
    once cross != 0 and row0 != 0.  What remains is a finite rational
    linear system over the finite coordinates and the surviving chain
    constants.
    """
    lam = rat(lam)
    if lam not in (ONE, -ONE):
        raise ValueError("eigenvalue must be 1 or -1")
    s = op.schema
    nf = s.finite_dim
    nch = len(s.chains)
    nvars = nf + nch + (1 if s.grid is not None else 0)
    rows: list[QVector] = []

    def add(row: list[Fraction]) -> None:
        rows.append(QVector(row))

    extra = dict(op.finite_inputs)
    for i in range(nf):
        row = [ZERO] * nvars
        for j in range(nf):
            row[j] += op.finite_block.entry(i, j)
        if i in extra:
            srow = _spec_row(op, extra[i], nvars)
            row = [a + b for a, b in zip(row, srow)]
        row[i] -= lam
        add(row)
    for ci, (decl, spec) in enumerate(zip(s.chains, op.chain_sources)):
        row = _spec_row(op, spec, nvars)
        row[nf + ci] -= lam
        add(row)
        active = lam == ONE and decl.space_tag == L_INFTY
        if not active:
            forced = [ZERO] * nvars
            forced[nf + ci] = ONE
            add(forced)
    if s.grid is not None:
        gv = nf + nch
        row = _spec_row(op, op.grid_row0_source, nvars)
        row[gv] -= lam
        add(row)
        active = (
            lam == ONE
            and s.grid.space_tag == L_INFTY
            and op.grid_cross == 0
        )
        if not active:
            forced = [ZERO] * nvars
            forced[gv] = ONE
            add(forced)
    basis = kernel_basis(QMatrix(rows)) if rows else kernel_basis(
        QMatrix([QVector.zero(nvars)])
    )
    out: list[SymbolicVector] = []
    for k in basis:
        finite = QVector(k[i] for i in range(nf))
        chains = tuple(ChainValue((), k[nf + ci]) for ci in range(nch))
        grid_rows: tuple[ChainValue, ...] = ()
        if s.grid is not None and k[nf + nch] != 0:
            grid_rows = (ChainValue((), k[nf + nch]),)
        vec = SymbolicVector(s, finite, chains, grid_rows)
        if apply(op, vec) != vec.scale(lam):
            raise TheoremViolationError("eigenvector failed verification")
        out.append(vec)
    return out


def symbolic_fixed_space(op: ShiftInsertOperator, power: int = 1) -> list[SymbolicVector]:
    """Basis of the fixed space of op (power 1) or of its square.

    For the square the identity v = (v + Tv)/2 + (v - Tv)/2 splits any
    fixed vector of T^2 into eigenvectors of T at 1 and -1, entirely
    within the representable class, so the union of the two eigenbases
    spans.  Higher powers would need irrational eigendata and are not
    supported.
    """
    if power == 1:
        return symbolic_eigenspace(op, 1)
    if power == 2:
        return symbolic_eigenspace(op, 1) + symbolic_eigenspace(op, -1)
    raise ValueError("only powers 1 and 2 are supported")


def constant_profile_embedding(
    schema: IndexSchema, vectors: Sequence[SymbolicVector]
) -> Subspace:
    """Order-isomorphic embedding of constant-profile vectors (constant
    chains, at most a constant grid row 0) into the finite lattice
    R^(finite + chains + grid), as a conegeom Subspace.

    Eigenvectors at 1 and -1 always have this profile, so the lattice
    classification of a symbolic fixed space reduces to the finite case:
    positivity, moduli, and suprema all commute with the embedding
    because each retained coordinate is read off pointwise.
    """
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


# ---------------------------------------------------------------------------
# monotone orbit suprema


@dataclass(frozen=True)
class OrbitSup:
    """Outcome of a monotone orbit supremum: Stabilized carries the
    supremum, Unbounded carries the norms of three successive limit
    steps, NotSuperFixed reports that the orbit is not increasing."""

    outcome: str
    supremum: SymbolicVector | None = None
    evidence: tuple[Fraction, ...] = ()


def _folded_finite_map(
    op: ShiftInsertOperator, g: SymbolicVector
) -> tuple[QMatrix, QVector]:
    """The finite part evolves as x -> Ax + b along the orbit: tail
    values never change under the shift-insert action, so functional
    inputs split into finite-coordinate coefficients (folded into the
    block) and a constant drive read off from g's tails."""
    nf = op.schema.finite_dim
    rows = [list(r) for r in op.finite_block.rows]
    drive = [ZERO] * nf
    for i, spec in op.finite_inputs:
        for j, c in spec.finite_terms:
            rows[i][j] += c
        for ci, c in spec.chain_tail_terms:
            drive[i] += c * g.chains[ci].tail
        for k, c in spec.grid_row_tail_terms:
            drive[i] += c * g.grid_row_tail(k)
    return QMatrix([QVector(r) for r in rows]), QVector(drive)


def _limit_matrix(m: QMatrix) -> QMatrix:
    """lim m^n, certified: spectrum inside the closed disk, boundary
    content exactly a semisimple eigenvalue 1.

    m is block-triangular: a power of the nonnegative folded block, plus
    the eigenvalue 1 of the drive row.  So the spectral radius of the
    block is a real eigenvalue, the Perron-root test on chi decides the
    disk, and inside the closed disk the unimodular part of chi carries
    exactly the unimodular eigenvalues."""
    p = char_poly(m)
    if perron_root_vs_one(p) > 0:
        raise UnsupportedClosedFormError(
            "finite block spectrum leaves the unit disk"
        )
    boundary = unimodular_part(p)
    if boundary.degree > 0 and boundary != QPolynomial((-ONE, ONE)):
        raise UnsupportedClosedFormError(
            "finite block has unimodular spectrum other than 1"
        )
    return fix_projection(m)


def _limit_step(
    op: ShiftInsertOperator, g: SymbolicVector, power: int
) -> SymbolicVector:
    """Supremum of the increasing orbit g, T^p g, T^2p g, ... of a super
    fixed g (p = power), certified to dominate g.

    Tails are orbit invariants, so the finite part follows the affine
    iteration x -> Ax + b whose limit is the fixed-space projection of
    the augmented matrix; each chain's inserted values increase to the
    source functional evaluated on that limit, and monotonicity forces
    every original value below it, so the chain supremum is the constant
    source limit.  Grid row k >= 1 receives the constant cross * (tail
    of row k-1 of g), which bounds its supremum the same way.  With p >
    1 the source limit is computed per residue class of the insertion
    position; the supremum is representable only when all classes agree.
    """
    s = op.schema
    nf = s.finite_dim
    a, b = _folded_finite_map(op, g)
    aug_rows = [
        QVector(tuple(a.rows[i]) + (b[i],)) for i in range(nf)
    ] + [QVector((ZERO,) * nf + (ONE,))]
    m_aug = QMatrix(aug_rows)
    proj = _limit_matrix(m_aug.power(power))

    finite_states = [g.finite_part]
    for _ in range(power - 1):
        finite_states.append(a @ finite_states[-1] + b)
    limits = []
    for x in finite_states:
        lim_aug = proj @ QVector(tuple(x) + (ONE,))
        limits.append(QVector(lim_aug[i] for i in range(nf)))

    def residue_limits(spec: LinearFunctionalSpec) -> Fraction:
        values = set()
        for rho in range(power):
            r = (power - rho - 1) % power
            frozen = SymbolicVector(s, limits[r], g.chains, g.grid_rows)
            values.add(spec.evaluate(frozen))
        if len(values) != 1:
            raise UnsupportedClosedFormError(
                "chain supremum oscillates between insertion residues"
            )
        return values.pop()

    chains: list[ChainValue] = []
    for decl, spec in zip(s.chains, op.chain_sources):
        limit = residue_limits(spec)
        if decl.space_tag == C_ZERO and limit != 0:
            raise NoSupremumError(
                f"orbit supremum on c0 chain {decl.name!r} would have tail"
                f" {limit}; the orbit has no supremum in the space"
            )
        chains.append(ChainValue((), limit))

    rows: list[ChainValue] = []
    if s.grid is not None:
        row_limits = [residue_limits(op.grid_row0_source)]
        for k in range(1, len(g.grid_rows) + 1):
            row_limits.append(op.grid_cross * g.grid_row_tail(k - 1))
        for k, limit in enumerate(row_limits):
            if s.grid.space_tag == C_ZERO and limit != 0:
                raise NoSupremumError(
                    f"orbit supremum on grid row {k} would have tail"
                    f" {limit}; the orbit has no supremum in the space"
                )
            rows.append(ChainValue((), limit))

    sup = SymbolicVector(s, limits[0], tuple(chains), tuple(rows))
    if not sup.ge(g):
        raise TheoremViolationError("orbit supremum fails to dominate the start")
    return sup


def orbit_sup(op: ShiftInsertOperator, g: SymbolicVector, power: int = 1) -> OrbitSup:
    """Supremum of the increasing orbit g, T^p g, T^2p g, ... in closed
    form (p = power, default 1); see _limit_step.

    A cross coefficient above 1 amplifies row tails: once the supremum
    carries a nonzero grid row tail, iterating the limit step grows
    norms geometrically without end.  That growth is certified by two
    further limit steps, each from the previous supremum (which must be
    super fixed), and reported as Unbounded with the norms of the three
    successive suprema as evidence.
    """
    if power < 1:
        raise ValueError("power must be a positive integer")
    if g.schema != op.schema:
        raise ValueError("schema mismatch")
    if not apply_power(op, g, power).ge(g):
        return OrbitSup("NotSuperFixed")
    sup = _limit_step(op, g, power)
    if abs(op.grid_cross) <= 1 or all(r.tail == 0 for r in sup.grid_rows):
        return OrbitSup("Stabilized", supremum=sup)
    norms = [sup.sup_norm()]
    for _ in range(2):
        if not apply_power(op, sup, power).ge(sup):
            raise TheoremViolationError("a growing limit step is not super fixed")
        sup = _limit_step(op, sup, power)
        norms.append(sup.sup_norm())
    return OrbitSup("Unbounded", evidence=tuple(norms))


# ---------------------------------------------------------------------------
# the example operators


def _schema_e41() -> IndexSchema:
    return IndexSchema(
        finite_coords=("-2", "-1"),
        chains=(ChainDecl("n", C_ZERO),),
    )


def _schema_e42() -> IndexSchema:
    return IndexSchema(
        finite_coords=("1", "2", "3"),
        chains=(ChainDecl("g", L_INFTY), ChainDecl("h", L_INFTY)),
    )


def _schema_e43() -> IndexSchema:
    return IndexSchema(
        finite_coords=("-2", "-1"),
        grid=GridDecl("rows", L_INFTY),
    )


def builtin_operator(name: str) -> ShiftInsertOperator:
    """The named example operators.

    "e41": identity on two head coordinates, one c0 chain whose entry
    averages the heads.  Contractive; its only fixed vectors have
    opposite heads and zero chain, so no nonzero positive fixed vector
    exists.

    "e42": the 3x3 averaging block with two l-infinity chains; the
    first chain's entry averages block coordinates 1 and 3, the second
    chain's entry is the tail limit of the first.  Contractive; the
    fixed space is spanned by the all-ones vector and one sign-mixed
    vector, a lattice subspace that is not a sublattice.

    "e43": two swapped head coordinates and a grid whose row 0 entry
    averages the heads while row k picks up twice the tail of row k-1.
    Norm 2, power bounded; -1 is an eigenvalue but 1 is not, and
    iterated suprema of its square double in norm without end.
    """
    if name == "e41":
        s = _schema_e41()
        return ShiftInsertOperator(
            schema=s,
            finite_block=QMatrix.identity(2),
            chain_sources=(
                LinearFunctionalSpec.build(
                    s, finite={"-2": Fraction(1, 2), "-1": Fraction(1, 2)}
                ),
            ),
        )
    if name == "e42":
        s = _schema_e42()
        third = Fraction(1, 3)
        block = QMatrix(
            [
                QVector((ONE, ZERO, ZERO)),
                QVector((third, third, third)),
                QVector((ZERO, ZERO, ONE)),
            ]
        )
        return ShiftInsertOperator(
            schema=s,
            finite_block=block,
            chain_sources=(
                LinearFunctionalSpec.build(
                    s, finite={"1": Fraction(1, 2), "3": Fraction(1, 2)}
                ),
                LinearFunctionalSpec.build(s, chain_tails={"g": 1}),
            ),
        )
    if name == "e43":
        s = _schema_e43()
        swap = QMatrix([QVector((ZERO, ONE)), QVector((ONE, ZERO))])
        return ShiftInsertOperator(
            schema=s,
            finite_block=swap,
            grid_row0_source=LinearFunctionalSpec.build(
                s, finite={"-2": Fraction(1, 2), "-1": Fraction(1, 2)}
            ),
            grid_cross=rat(2),
        )
    raise ValueError(f"unknown operator name {name!r}")
