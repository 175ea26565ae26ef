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
* tails are invariant under the shift-insert action and the finite
  part evolves as x -> Ax on its own, so monotone orbit suprema have
  closed forms: `opcore.increasing_orbit_limits` gives the limit of the
  finite orbit under a power of the finite block, or finds it unbounded.

A chain (or grid row) is one `QVector`, the prefix entries followed by
the tail, and every symbolic-vector operation (sums, maxima, moduli,
scaling, order, norms) is the matching `QVector` operation on the finite
part and on each chain padded to a common prefix length; `Fraction`
views appear only at the API edge.  Vectors are kept canonical: chain
prefixes never end in the tail value and grid rows never end in zero
rows, so structural equality is value equality.

Each finite coordinate is fed by its row of the finite block, each
chain's entry by a functional, grid row 0's entry by a functional and
grid row k's entry by cross * (tail of row k-1).  A functional reads
the finite coordinates and the chain tails only.

The coordinates that never leave their place under shift-insert, the
*stable coordinates*, are read as one `QVector`: the finite part, then
each chain's tail, then, when asked for, grid row 0's tail
(`SymbolicVector.stable_coordinates`).  A functional is one coefficient
vector over the first of them, the finite part and the chain tails, so
evaluating it is one dot product; on an eigenvector at 1 or -1
(constant chains, at most a constant grid row 0) the stable coordinates
carry the whole vector, so the eigensystem is S - lam*I over them, S
the block rows and the functionals' rows.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import lcm

from .conegeom import Subspace
from .exactnum import TheoremViolationError
from .exactnum.linalg import kernel_basis
from .exactnum.rational import ONE, ZERO, QMatrix, QVector, rat
from .exactnum.record import record
from .opcore import NoSupremumError, increasing_orbit_limits

C_ZERO = "CZero"
L_INFTY = "LInfty"


class UnsupportedClosedFormError(ValueError):
    """The orbit supremum exists pointwise but is not eventually
    constant: with a power p > 1 a chain's inserted values oscillate
    between the residue classes of the insertion position."""


@record
class ChainDecl:
    name: str
    space_tag: str

    def __post_init__(self) -> None:
        if self.space_tag not in (C_ZERO, L_INFTY):
            raise ValueError(f"unknown space tag {self.space_tag!r}")


GridDecl = ChainDecl


@record
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
        if name not in self.finite_coords:
            raise ValueError(f"no finite coordinate named {name!r}")
        return self.finite_coords.index(name)

    def chain_index(self, name: str) -> int:
        for i, c in enumerate(self.chains):
            if c.name == name:
                return i
        raise ValueError(f"no chain named {name!r}")


@record
class ChainValue:
    """Eventually constant sequence: the prefix entries, then the tail,
    as one `QVector` whose prefix never ends in the tail value."""

    values: QVector

    def __post_init__(self) -> None:
        nums = self.values.nums
        if not nums:
            raise ValueError("a chain value needs a tail")
        n = len(nums) - 1
        while n and nums[n - 1] == nums[-1]:
            n -= 1
        if n < len(nums) - 1:
            stripped = QVector.from_ints(nums[:n] + nums[-1:], self.values.den)
            object.__setattr__(self, "values", stripped)

    @property
    def prefix(self) -> tuple[Fraction, ...]:
        return self.values.entries[:-1]

    @property
    def tail(self) -> Fraction:
        return self.values[-1]

    def is_zero(self) -> bool:
        return self.values.is_zero()

    def sup_norm(self) -> Fraction:
        return self.values.sup_norm()

    def padded(self, n: int) -> QVector:
        """The first n entries, then the tail; n is at least the prefix
        length."""
        nums = self.values.nums
        return QVector.from_ints(nums + nums[-1:] * (n + 1 - len(nums)), self.values.den)

    def shifted(self, entry: Fraction) -> "ChainValue":
        """entry, then this sequence: the shift-insert image."""
        p, q, den = entry.numerator, entry.denominator, self.values.den
        nums = (p * den,) + tuple(q * x for x in self.values.nums)
        return ChainValue(QVector.from_ints(nums, q * den))


def chain_value(prefix: Iterable, tail) -> ChainValue:
    return ChainValue(QVector([*prefix, tail]))


ZERO_CHAIN = ChainValue(QVector.zero(1))


@record
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
        for decl, c in zip(s.chains, self.chains):
            if decl.space_tag == C_ZERO and c.values.nums[-1]:
                raise ValueError(
                    f"chain {decl.name!r} lives in c0 but has tail {c.tail}"
                )
        rows = list(self.grid_rows)
        if rows and s.grid is None:
            raise ValueError("grid rows without a grid in the schema")
        if s.grid is not None and s.grid.space_tag == C_ZERO:
            if any(r.values.nums[-1] for r in rows):
                raise ValueError("grid rows live in c0 but have a tail")
        while rows and rows[-1].is_zero():
            rows.pop()
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

    def stable_coordinates(self, n: int) -> QVector:
        """The finite part and each chain's tail over one common
        denominator, then grid row 0's tail when n, the finite dimension
        plus the chains, is one more."""
        x = self.finite_part
        tails = [c.values for c in self.chains]
        if n > x.dim + len(tails):
            tails.append(self.grid_row(0).values)
        den = lcm(x.den, *(t.den for t in tails))
        nums = [a * (den // x.den) for a in x.nums]
        nums += [t.nums[-1] * (den // t.den) for t in tails]
        return QVector.from_ints(nums, den)

    def parts(self) -> list[QVector]:
        """The finite part, then each chain's and each grid row's values."""
        return [self.finite_part, *(c.values for c in self.chains + self.grid_rows)]

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.parts())

    def sup_norm(self) -> Fraction:
        return max(v.sup_norm() for v in self.parts())

    def _zip(self, other: "SymbolicVector", f) -> "SymbolicVector":
        """f, a `QVector` operation, on each pair of matching parts; chains
        are padded to a common prefix length first."""
        if self.schema != other.schema:
            raise ValueError("schema mismatch")

        def chain(a: ChainValue, b: ChainValue) -> ChainValue:
            n = max(len(a.values), len(b.values)) - 1
            return ChainValue(f(a.padded(n), b.padded(n)))

        nrows = max(len(self.grid_rows), len(other.grid_rows))
        return SymbolicVector(
            self.schema,
            f(self.finite_part, other.finite_part),
            tuple(map(chain, self.chains, other.chains)),
            tuple(chain(self.grid_row(k), other.grid_row(k)) for k in range(nrows)),
        )

    def _map(self, f) -> "SymbolicVector":
        """f, a `QVector` operation, on every part."""
        return SymbolicVector(
            self.schema,
            f(self.finite_part),
            tuple(ChainValue(f(c.values)) for c in self.chains),
            tuple(ChainValue(f(r.values)) for r in self.grid_rows),
        )

    def __add__(self, other: "SymbolicVector") -> "SymbolicVector":
        return self._zip(other, QVector.__add__)

    def __sub__(self, other: "SymbolicVector") -> "SymbolicVector":
        return self._zip(other, QVector.__sub__)

    def __neg__(self) -> "SymbolicVector":
        return self._map(QVector.__neg__)

    def scale(self, c) -> "SymbolicVector":
        c = rat(c)
        return self._map(lambda v: v.scale(c))

    def abs(self) -> "SymbolicVector":
        return self._map(QVector.abs)

    def ge(self, other: "SymbolicVector") -> bool:
        """Componentwise self >= other across all coordinates."""
        return all(v.is_nonneg() for v in (self - other).parts())


def pointwise_sup(u: SymbolicVector, v: SymbolicVector) -> SymbolicVector:
    """Coordinatewise maximum, the ambient lattice supremum."""
    return u._zip(v, QVector.cwise_max)


def ambient_sup(vectors: Sequence[SymbolicVector]) -> SymbolicVector:
    if not vectors:
        raise ValueError("empty vector collection")
    out = vectors[0]
    for v in vectors[1:]:
        out = pointwise_sup(out, v)
    return out


# ---------------------------------------------------------------------------
# functionals


@record
class LinearFunctionalSpec:
    """A linear form in the finite coordinates and the chain tails: one
    coefficient per finite coordinate, then one per chain.

    A tail term reads a chain's tail value, which is the limit of the
    sequence along any free ultrafilter since the representable class is
    eventually constant.  References to interior chain coordinates and
    to grid rows are deliberately not expressible: interior coordinates
    are not shift-stable and fall outside the operator class.
    """

    coeffs: QVector

    @staticmethod
    def build(
        schema: IndexSchema,
        finite: Mapping[str, object] | None = None,
        chain_tails: Mapping[str, object] | None = None,
    ) -> "LinearFunctionalSpec":
        nf = schema.finite_dim
        coeffs = [ZERO] * (nf + len(schema.chains))
        for name, c in (finite or {}).items():
            coeffs[schema.finite_index(name)] = rat(c)
        for name, c in (chain_tails or {}).items():
            coeffs[nf + schema.chain_index(name)] = rat(c)
        return LinearFunctionalSpec(QVector(coeffs))

    def evaluate(self, v: SymbolicVector) -> Fraction:
        return self.coeffs.dot(v.stable_coordinates(len(self.coeffs)))

    def mass(self) -> Fraction:
        return self.coeffs.one_norm()

    def is_nonneg(self) -> bool:
        return self.coeffs.is_nonneg()


# ---------------------------------------------------------------------------
# operators


@record
class ShiftInsertOperator:
    """Positive operator: the finite block maps the finite part to
    itself, each chain is shifted right with its entry coordinate fed by
    a functional, and grid row k is shifted right with its entry fed by
    cross * (tail of row k-1), row 0's by its own functional."""

    schema: IndexSchema
    finite_block: QMatrix
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
    chains = tuple(
        c.shifted(spec.evaluate(v)) for spec, c in zip(op.chain_sources, v.chains)
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
            rows.append(old.shifted(entry))
    return SymbolicVector(op.schema, finite, chains, tuple(rows))


def apply_power(op: ShiftInsertOperator, v: SymbolicVector, power: int) -> SymbolicVector:
    for _ in range(power):
        v = apply(op, v)
    return v


def symbolic_operator_norm(op: ShiftInsertOperator) -> Fraction:
    """Induced sup norm: the largest l1 coefficient mass over all output
    coordinates.  Shift coordinates carry mass 1; the maximum is finite
    because only finitely many distinct coordinate rules exist."""
    masses = [row.one_norm() for row in op.finite_block.rows]
    for spec in op.chain_sources:
        masses.append(spec.mass())
    if op.schema.chains:
        masses.append(Fraction(1))
    if op.schema.grid is not None:
        masses.append(op.grid_row0_source.mass())
        masses.append(op.grid_cross)
        masses.append(Fraction(1))
    return max(masses, default=Fraction(0))


# ---------------------------------------------------------------------------
# eigenspaces


def _fit(v: QVector, n: int) -> QVector:
    """v cut or padded with zeros to n entries."""
    return QVector.from_ints((v.nums + (0,) * n)[:n], v.den)


def symbolic_eigenspace(op: ShiftInsertOperator, lam) -> list[SymbolicVector]:
    """Basis of the eigenspace at lam in {1, -1} within the
    representable class.

    Along a shifted chain the eigenvalue equation forces the profile
    f(j) = lam^j f(0).  For lam = 1 that is a constant, representable
    with tail equal to the constant (zero on c0 chains); for lam = -1
    an alternating profile is eventually constant only when zero.  Grid
    rows beyond row 0 are forced to zero by the finite-support
    invariant: row k would need value cross^k * row0, nonzero for all k
    once cross != 0 and row0 != 0.  What remains is S - lam*I over the
    first nf + nch (+ 1 with a grid) stable coordinates, S's rows the
    block rows, the chain sources and the grid row-0 source, with a unit
    row for each constant that cannot survive.
    """
    lam = rat(lam)
    if lam not in (ONE, -ONE):
        raise ValueError("eigenvalue must be 1 or -1")
    s = op.schema
    nf, nch = s.finite_dim, len(s.chains)
    survives = [lam == ONE and decl.space_tag == L_INFTY for decl in s.chains]
    sources = list(op.chain_sources)
    if s.grid is not None:
        survives.append(lam == ONE and s.grid.space_tag == L_INFTY and op.grid_cross == 0)
        sources.append(op.grid_row0_source)
    m = nf + len(survives)
    rows = [*op.finite_block.rows, *(spec.coeffs for spec in sources)]
    rows = [_fit(row, m) - QVector.unit(m, j).scale(lam) for j, row in enumerate(rows)]
    rows += [QVector.unit(m, nf + j) for j, ok in enumerate(survives) if not ok]
    out: list[SymbolicVector] = []
    for k in kernel_basis(QMatrix(rows or [QVector.zero(m)])):
        consts = tuple(ChainValue(QVector.from_ints((x,), k.den)) for x in k.nums[nf:])
        finite = QVector.from_ints(k.nums[:nf], k.den)
        vec = SymbolicVector(s, finite, consts[:nch], consts[nch:])
        if apply(op, vec) != vec.scale(lam):
            raise TheoremViolationError("eigenvector failed verification")
        out.append(vec)
    return out


def symbolic_fixed_space(op: ShiftInsertOperator) -> list[SymbolicVector]:
    """Basis of the fixed space of op: its eigenspace at 1."""
    return symbolic_eigenspace(op, 1)


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
    dim = schema.finite_dim + len(schema.chains)
    dim += 1 if schema.grid is not None else 0
    embedded = []
    for v in vectors:
        if v.schema != schema:
            raise ValueError("schema mismatch")
        if any(len(c.values) > 1 for c in v.chains):
            raise ValueError("chain is not constant")
        if len(v.grid_rows) > 1 or any(len(r.values) > 1 for r in v.grid_rows):
            raise ValueError("grid content beyond a constant row 0")
        embedded.append(v.stable_coordinates(dim))
    return Subspace.from_vectors(dim, embedded)


# ---------------------------------------------------------------------------
# monotone orbit suprema


@record
class OrbitSup:
    """Outcome of a monotone orbit supremum: Stabilized carries the
    supremum, Unbounded carries the norms of three successive limit
    steps, NotSuperFixed reports that the orbit is not increasing."""

    outcome: str
    supremum: SymbolicVector | None = None
    evidence: tuple[Fraction, ...] = ()


def _limit_step(op: ShiftInsertOperator, g: SymbolicVector, power: int) -> SymbolicVector:
    """Supremum of the increasing orbit g, T^p g, T^2p g, ... of a super
    fixed g (p = power), certified to dominate g.

    The finite part evolves as x -> Ax on its own, and each state x, Ax,
    ..., A^(p-1)x increases under A^p to the limit that
    `opcore.increasing_orbit_limits` certifies, or is unbounded
    (NoSupremumError).  Tails are orbit invariants, so each chain's
    inserted values increase to the source functional evaluated on those
    limits and on g's chain tails, and monotonicity forces every
    original value below it, so the chain supremum is the constant
    source limit.  Grid row k >= 1 receives cross * (tail of row k-1 of
    g), bounding its supremum the same way.  With p > 1 the source limit
    is taken per residue class of the insertion position; the supremum
    is representable only when all agree.
    """
    s = op.schema
    m = op.finite_block.power(power)
    states = [g.finite_part]
    for _ in range(power - 1):
        states.append(op.finite_block @ states[-1])
    finite_limits = increasing_orbit_limits(m, states)

    def residue_limits(spec: LinearFunctionalSpec) -> Fraction:
        values = {
            spec.evaluate(SymbolicVector(s, lim, g.chains)) for lim in finite_limits
        }
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
        chains.append(chain_value((), limit))

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
            rows.append(chain_value((), limit))

    sup = SymbolicVector(s, finite_limits[0], tuple(chains), tuple(rows))
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
    successive suprema as evidence.  An unbounded finite orbit is
    NoSupremumError.
    """
    if power < 1:
        raise ValueError("power must be a positive integer")
    if g.schema != op.schema:
        raise ValueError("schema mismatch")
    if not apply_power(op, g, power).ge(g):
        return OrbitSup("NotSuperFixed")
    sup = _limit_step(op, g, power)
    if op.grid_cross <= 1 or all(r.tail == 0 for r in sup.grid_rows):
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
