"""Symbolic sequence-space vectors and shift-insert operators.

The load-bearing oracle here expands symbolic vectors to explicit
truncated arrays and re-implements the operator action directly on
those arrays; agreement at every retained position certifies apply()
without sharing any code with it.  Orbit suprema are checked against
brute-force orbit iteration and against the spectral certificate of the
limit that they no longer need.
"""

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from latfix import seqspace
from latfix.exactnum import DefectiveEigenvalueError, TheoremViolationError
from latfix.exactnum.linalg import char_poly, fix_projection
from latfix.exactnum.polynomials import QPolynomial
from latfix.exactnum.rational import QMatrix, QVector, rat
from latfix.conegeom.core import Subspace
from latfix.seqspace import (
    C_ZERO,
    L_INFTY,
    ZERO_CHAIN,
    ChainDecl,
    GridDecl,
    IndexSchema,
    LinearFunctionalSpec,
    NoSupremumError,
    ShiftInsertOperator,
    SymbolicVector,
    UnsupportedClosedFormError,
    ambient_sup,
    apply,
    apply_power,
    builtin_operator,
    chain_value,
    constant_profile_embedding,
    orbit_sup,
    pointwise_sup,
    symbolic_eigenspace,
    symbolic_fixed_space,
    symbolic_operator_norm,
)

from conftest import bareiss_rank, random_substochastic, rng_for
from poly_oracles import reference_perron_root_vs_one, reference_unimodular_part


# ---------------------------------------------------------------------------
# truncation oracle


def entry(c, j: int) -> Fraction:
    """Entry j of a chain value: a prefix entry, or else the tail."""
    return c.values[min(j, len(c.values) - 1)]


def expand(v: SymbolicVector, length: int, rows: int):
    """Explicit arrays: finite coords, each chain to the given length,
    the first `rows` grid rows to the given length."""
    return (
        tuple(v.finite_part),
        tuple(tuple(entry(c, j) for j in range(length)) for c in v.chains),
        tuple(
            tuple(entry(v.grid_row(k), j) for j in range(length)) for k in range(rows)
        ),
    )


def eval_spec_expanded(spec, finite, chains, grid):
    # the coefficients run over the finite coordinates, then the chain
    # tails; a tail is read at the last retained index, so the truncation
    # length must exceed every prefix
    values = list(finite) + [ch[-1] for ch in chains]
    assert len(spec.coeffs) == len(values)
    return sum((c * x for c, x in zip(spec.coeffs, values)), Fraction(0))


def apply_expanded(op: ShiftInsertOperator, expanded):
    finite, chains, grid = expanded
    nf = len(finite)
    new_finite = [
        sum(op.finite_block.entry(i, j) * finite[j] for j in range(nf))
        for i in range(nf)
    ]
    new_chains = tuple(
        (eval_spec_expanded(src, finite, chains, grid),) + ch[:-1]
        for src, ch in zip(op.chain_sources, chains)
    )
    new_grid = []
    for k in range(len(grid)):
        if k == 0:
            entry = eval_spec_expanded(op.grid_row0_source, finite, chains, grid)
        else:
            entry = op.grid_cross * grid[k - 1][-1]
        new_grid.append((entry,) + grid[k][:-1])
    return tuple(new_finite), new_chains, tuple(new_grid)


def random_symbolic(rng, schema: IndexSchema) -> SymbolicVector:
    finite = QVector(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for _ in range(schema.finite_dim)
    )
    chains = []
    for decl in schema.chains:
        prefix = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))]
        tail = Fraction(0) if decl.space_tag == C_ZERO else Fraction(rng.randint(-2, 2))
        chains.append(chain_value(prefix, tail))
    grid_rows = []
    if schema.grid is not None:
        for _ in range(rng.randint(0, 2)):
            prefix = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, 2))]
            tail = (
                Fraction(0)
                if schema.grid.space_tag == C_ZERO
                else Fraction(rng.randint(-2, 2))
            )
            grid_rows.append(chain_value(prefix, tail))
    return SymbolicVector(schema, finite, tuple(chains), tuple(grid_rows))


def mixed_schema() -> IndexSchema:
    return IndexSchema(
        finite_coords=("p", "q"),
        chains=(ChainDecl("u", L_INFTY), ChainDecl("v", C_ZERO)),
        grid=GridDecl("w", L_INFTY),
    )


def mixed_operator() -> ShiftInsertOperator:
    s = mixed_schema()
    return ShiftInsertOperator(
        schema=s,
        finite_block=QMatrix([[rat("1/2"), rat("1/4")], [0, rat("1/2")]]),
        chain_sources=(
            LinearFunctionalSpec.build(
                s, finite={"p": rat("1/2")}, chain_tails={"u": rat("1/4")}
            ),
            LinearFunctionalSpec.build(s, finite={"q": rat("1/3")}),
        ),
        grid_row0_source=LinearFunctionalSpec.build(
            s, finite={"p": rat("1/4"), "q": rat("1/4")}, chain_tails={"u": rat("1/2")}
        ),
        grid_cross=rat("1/2"),
    )


# ---------------------------------------------------------------------------
# representation


class TestChainValue:
    def test_canonical_form_strips_trailing_tail(self):
        assert chain_value([1, 1], 1) == chain_value((), Fraction(1))
        assert chain_value([1, 0], 0) == chain_value((Fraction(1),), Fraction(0))
        assert entry(chain_value([], 2), 17) == 2

    def test_sup_norm(self):
        assert chain_value([3, -4], 1).sup_norm() == 4
        assert ZERO_CHAIN.sup_norm() == 0


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            IndexSchema(("a", "a"))
        with pytest.raises(ValueError):
            IndexSchema(("a",), (ChainDecl("a", L_INFTY),))

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            ChainDecl("c", "ell2")


class TestSymbolicVector:
    def test_czero_tail_rejected(self):
        s = IndexSchema((), (ChainDecl("c", C_ZERO),))
        with pytest.raises(ValueError):
            SymbolicVector(s, QVector(()), (chain_value([], 1),))

    def test_grid_rows_require_grid(self):
        s = IndexSchema(("a",))
        with pytest.raises(ValueError):
            SymbolicVector(s, QVector([1]), (), (chain_value([1], 0),))

    def test_trailing_zero_rows_stripped(self):
        s = IndexSchema(("a",), grid=GridDecl("g", L_INFTY))
        v = SymbolicVector(
            s, QVector([1]), (), (chain_value([2], 0), ZERO_CHAIN, ZERO_CHAIN)
        )
        assert len(v.grid_rows) == 1

    def test_arithmetic_and_order(self):
        s = IndexSchema(("a",), (ChainDecl("c", L_INFTY),))
        u = SymbolicVector(s, QVector([1]), (chain_value([2], 1),))
        w = SymbolicVector(s, QVector([-1]), (chain_value([0], 2),))
        total = u + w
        assert total.finite_part == QVector([0])
        assert total.chains[0] == chain_value([2], 3)
        assert (u - u).is_zero()
        assert u.abs().ge(u)
        assert not w.ge(u)
        assert u.scale(2).chains[0] == chain_value([4], 2)

    def test_sup_norm_covers_all_parts(self):
        s = mixed_schema()
        v = SymbolicVector(
            s,
            QVector([1, -2]),
            (chain_value([5], 1), chain_value([0], 0)),
            (chain_value([1], -3),),
        )
        assert v.sup_norm() == 5

    def test_pointwise_sup_canonicalizes(self):
        s = IndexSchema((), (ChainDecl("c", L_INFTY),))
        u = SymbolicVector(s, QVector(()), (chain_value([1, 0], 0),))
        w = SymbolicVector(s, QVector(()), (chain_value([], 1),))
        sup = pointwise_sup(u, w)
        # max is constant 1: the prefix disappears in canonical form
        assert sup.chains[0] == chain_value((), Fraction(1))
        assert ambient_sup([u, w]) == sup


class TestFunctionalSpec:
    def test_build_sorts_and_validates(self):
        s = mixed_schema()
        spec = LinearFunctionalSpec.build(s, finite={"q": 2, "p": 1})
        assert spec.coeffs == QVector([1, 2, 0, 0])
        spec = LinearFunctionalSpec.build(s, chain_tails={"v": 3})
        assert spec.coeffs == QVector([0, 0, 0, 3])
        with pytest.raises(ValueError, match="no finite coordinate named 'zz'"):
            LinearFunctionalSpec.build(s, finite={"zz": 1})
        with pytest.raises(ValueError, match="no chain named 'zz'"):
            LinearFunctionalSpec.build(s, chain_tails={"zz": 1})

    def test_evaluate_reads_tails_only(self):
        s = mixed_schema()
        spec = LinearFunctionalSpec.build(s, finite={"p": 1}, chain_tails={"u": 10})
        v = SymbolicVector(
            s,
            QVector([2, 0]),
            (chain_value([7], 3), ZERO_CHAIN),
            (ZERO_CHAIN, chain_value([9], 5)),
        )
        # the prefix value 7 and the grid rows are invisible; tail 3 counts
        assert spec.evaluate(v) == 2 + 30


class TestOperatorValidation:
    def test_negative_coefficients_rejected(self):
        s = IndexSchema(("a",), (ChainDecl("c", L_INFTY),))
        with pytest.raises(ValueError):
            ShiftInsertOperator(
                schema=s,
                finite_block=QMatrix([[1]]),
                chain_sources=(
                    LinearFunctionalSpec.build(s, finite={"a": -1}),
                ),
            )

    def test_grid_rules_require_grid(self):
        s = IndexSchema(("a",))
        with pytest.raises(ValueError):
            ShiftInsertOperator(
                schema=s, finite_block=QMatrix([[1]]), grid_cross=rat(2)
            )

    def test_missing_chain_source_rejected(self):
        s = IndexSchema(("a",), (ChainDecl("c", L_INFTY),))
        with pytest.raises(ValueError):
            ShiftInsertOperator(schema=s, finite_block=QMatrix([[1]]))


class TestApplyAgainstTruncationOracle:
    def test_builtins_and_mixed(self):
        cases = [
            (builtin_operator("e41"), "e41"),
            (builtin_operator("e42"), "e42"),
            (builtin_operator("e43"), "e43"),
            (mixed_operator(), "mixed"),
        ]
        for op, label in cases:
            rng = rng_for(f"truncation-{label}")
            for trial in range(25):
                v = random_symbolic(rng, op.schema)
                image = apply(op, v)
                length = 8
                rows = 5 if op.schema.grid is not None else 0
                ours = expand(image, length, rows)
                theirs = apply_expanded(op, expand(v, length, rows))
                assert ours == theirs, f"{label} trial {trial}"

    def test_apply_power_is_iterated_apply(self):
        op = builtin_operator("e42")
        rng = rng_for("apply-power")
        v = random_symbolic(rng, op.schema)
        assert apply_power(op, v, 3) == apply(op, apply(op, apply(op, v)))

    def test_schema_mismatch_rejected(self):
        op = builtin_operator("e41")
        bad = SymbolicVector(IndexSchema(("z", "y")), QVector([1, 2]))
        with pytest.raises(ValueError):
            apply(op, bad)


class TestOperatorNorm:
    def test_builtin_norms(self):
        assert symbolic_operator_norm(builtin_operator("e41")) == 1
        assert symbolic_operator_norm(builtin_operator("e42")) == 1
        assert symbolic_operator_norm(builtin_operator("e43")) == 2

    def test_norm_bounds_random_images(self):
        for name in ("e41", "e42", "e43"):
            op = builtin_operator(name)
            norm = symbolic_operator_norm(op)
            rng = rng_for(f"norm-bound-{name}")
            for _ in range(20):
                v = random_symbolic(rng, op.schema)
                if v.is_zero():
                    continue
                assert apply(op, v).sup_norm() <= norm * v.sup_norm()


class TestEigenspaces:
    def test_e41_fixed_space(self):
        op = builtin_operator("e41")
        basis = symbolic_fixed_space(op)
        assert len(basis) == 1
        (u,) = basis
        assert u.finite_part == QVector([1, -1])
        assert u.chains[0].is_zero()
        assert apply(op, u) == u
        assert symbolic_eigenspace(op, -1) == []

    def test_e42_fixed_space(self):
        op = builtin_operator("e42")
        basis = symbolic_fixed_space(op)
        assert len(basis) == 2
        for u in basis:
            assert apply(op, u) == u
            for c in u.chains:
                assert not c.prefix  # constant profile
        embedded = constant_profile_embedding(op.schema, basis)
        expect = Subspace.from_vectors(
            5,
            [QVector([1, 1, 1, 1, 1]), QVector([1, 0, -1, 0, 0])],
        )
        assert embedded == expect

    def test_e43_alternating_eigenvector(self):
        op = builtin_operator("e43")
        assert symbolic_eigenspace(op, 1) == []
        basis = symbolic_eigenspace(op, -1)
        assert len(basis) == 1
        (f,) = basis
        assert f.finite_part == QVector([1, -1])
        assert not f.grid_rows
        assert apply(op, f) == f.scale(-1)
        assert symbolic_fixed_space(op, power=2) == basis

    def test_higher_powers_rejected(self):
        with pytest.raises(ValueError):
            symbolic_fixed_space(builtin_operator("e41"), power=3)

    def test_eigenvalue_restricted(self):
        with pytest.raises(ValueError):
            symbolic_eigenspace(builtin_operator("e41"), rat("1/2"))


class TestConstantProfileEmbedding:
    def test_rejects_nonconstant_chain(self):
        s = IndexSchema((), (ChainDecl("c", L_INFTY),))
        v = SymbolicVector(s, QVector(()), (chain_value([5], 1),))
        with pytest.raises(ValueError):
            constant_profile_embedding(s, [v])

    def test_order_isomorphism_on_samples(self):
        # the embedding preserves order and modulus for constant vectors
        s = IndexSchema(("a",), (ChainDecl("c", L_INFTY),))
        u = SymbolicVector(s, QVector([1]), (chain_value([], -2),))
        emb = constant_profile_embedding(s, [u])
        assert emb.ambient_dim == 2
        assert emb.contains(QVector([1, -2]))


class TestOrbitSup:
    def test_e41_counterexample_has_no_supremum(self):
        op = builtin_operator("e41")
        (u,) = symbolic_fixed_space(op)
        with pytest.raises(NoSupremumError):
            orbit_sup(op, u.abs())

    def test_fixed_start_is_its_own_limit(self):
        """A finite part the block fixes is its own limit even when the
        eigenvalue 1 is defective, and no projection is built or kept."""
        block = QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        op = ShiftInsertOperator(schema=IndexSchema(("a", "b", "c")), finite_block=block)
        g = SymbolicVector(op.schema, QVector([1, 0, 0]), ())
        with pytest.raises(DefectiveEigenvalueError):
            fix_projection(block)
        for power in (1, 2):
            result = orbit_sup(op, g, power)
            assert result.outcome == "Stabilized"
            assert result.supremum == g
        assert op._limits == {}

    def test_e42_first_limit_step(self):
        op = builtin_operator("e42")
        basis = symbolic_fixed_space(op)
        sign_mixed = next(
            v for v in basis if not v.abs() == v
        )
        result = orbit_sup(op, sign_mixed.abs())
        assert result.outcome == "Stabilized"
        sup = result.supremum
        assert sup.finite_part == QVector([1, 1, 1])
        assert sup.chains[0] == chain_value((), Fraction(1))
        assert sup.chains[1].is_zero()

    def test_orbit_members_below_supremum(self):
        op = builtin_operator("e42")
        rng = rng_for("orbit-bound")
        for _ in range(10):
            v = random_symbolic(rng, op.schema)
            g = pointwise_sup(v, apply(op, v))  # super fixed? not always
            result = orbit_sup(op, g)
            if result.outcome != "Stabilized":
                continue
            sup = result.supremum
            w = g
            for _ in range(40):
                assert sup.ge(w)
                w = apply(op, w)

    def test_finite_limit_matches_brute_iteration(self):
        op = builtin_operator("e42")
        basis = symbolic_fixed_space(op)
        g = ambient_sup([b.abs() for b in basis])
        result = orbit_sup(op, g)
        assert result.outcome == "Stabilized"
        w = g
        for _ in range(200):
            w = apply(op, w)
        for i in range(3):
            assert abs(float(result.supremum.finite_part[i] - w.finite_part[i])) < 1e-9

    def test_not_super_fixed_detected(self):
        op = builtin_operator("e41")
        s = op.schema
        g = SymbolicVector(s, QVector([0, 0]), (chain_value([1], 0),))
        assert orbit_sup(op, g).outcome == "NotSuperFixed"

    def test_e43_square_is_certified_unbounded(self):
        op = builtin_operator("e43")
        (f,) = symbolic_eigenspace(op, -1)
        result = orbit_sup(op, f.abs(), power=2)
        assert result.outcome == "Unbounded"
        assert result.evidence == (Fraction(1), Fraction(2), Fraction(4))

    def test_power_two_residue_disagreement(self):
        s = IndexSchema(("a", "b"), (ChainDecl("c", L_INFTY),))
        swap = ShiftInsertOperator(
            schema=s,
            finite_block=QMatrix([[0, 1], [1, 0]]),
            chain_sources=(LinearFunctionalSpec.build(s, finite={"a": 1}),),
        )
        g = SymbolicVector(s, QVector([1, 0]), (ZERO_CHAIN,))
        with pytest.raises(UnsupportedClosedFormError):
            orbit_sup(swap, g, power=2)

    def test_answers_unimodular_spectrum_other_than_one(self):
        # the swap has eigenvalue -1, but (1, 1) is fixed, so the orbit
        # is constant and the chain fills with 1
        s = IndexSchema(("a", "b"), (ChainDecl("c", L_INFTY),))
        swap = ShiftInsertOperator(
            schema=s,
            finite_block=QMatrix([[0, 1], [1, 0]]),
            chain_sources=(LinearFunctionalSpec.build(s, finite={"a": 1}),),
        )
        g = SymbolicVector(s, QVector([1, 1]), (ZERO_CHAIN,))
        result = orbit_sup(swap, g, power=1)
        assert result.outcome == "Stabilized"
        assert result.supremum.finite_part == QVector([1, 1])
        assert result.supremum.chains == (chain_value((), 1),)

    def test_spectrum_outside_the_disk_answers_bounded_orbits(self):
        # x -> 2x from 1 runs away; from 0 it stays put
        s = IndexSchema(("a",))
        double = ShiftInsertOperator(schema=s, finite_block=QMatrix([[2]]))
        with pytest.raises(NoSupremumError, match="unbounded"):
            orbit_sup(double, SymbolicVector(s, QVector([1])))
        result = orbit_sup(double, SymbolicVector.zero(s))
        assert result.outcome == "Stabilized"
        assert result.supremum == SymbolicVector.zero(s)

    def test_czero_grid_has_no_supremum(self):
        s = IndexSchema(("a",), grid=GridDecl("g", C_ZERO))
        op = ShiftInsertOperator(
            schema=s,
            finite_block=QMatrix([[1]]),
            grid_row0_source=LinearFunctionalSpec.build(s, finite={"a": 1}),
            grid_cross=rat(0),
        )
        g = SymbolicVector(s, QVector([1]))
        with pytest.raises(NoSupremumError):
            orbit_sup(op, g)

    def test_cross_at_most_one_stabilizes(self):
        s = IndexSchema(("a",), grid=GridDecl("g", L_INFTY))
        op = ShiftInsertOperator(
            schema=s,
            finite_block=QMatrix([[1]]),
            grid_row0_source=LinearFunctionalSpec.build(s, finite={"a": 1}),
            grid_cross=rat(1),
        )
        g = SymbolicVector(s, QVector([1]))
        result = orbit_sup(op, g)
        assert result.outcome == "Stabilized"
        assert result.supremum.grid_row_tail(0) == 1


def reference_limit_certificate(m: QMatrix) -> QMatrix:
    """The certificate orbit suprema once required of m = A^p before
    projecting: lim m^n exists, read off chi with the `Fraction`
    oracles as the Perron-root test, then the unimodular part (the
    reciprocal gcd), which inside the closed disk carries exactly the
    unimodular eigenvalues and must be x - 1 or constant."""
    chi = char_poly(m)
    if reference_perron_root_vs_one(chi) > 0:
        raise UnsupportedClosedFormError(
            "finite block spectrum leaves the unit disk"
        )
    boundary = reference_unimodular_part(chi)
    if boundary.degree > 0 and boundary != QPolynomial([-1, 1]):
        raise UnsupportedClosedFormError(
            "finite block has unimodular spectrum other than 1"
        )
    return fix_projection(m)


def leaky_permutation(rng, n: int) -> QMatrix:
    """A permutation matrix with up to two rows scaled by 0, 1/3 or 2/3."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[Fraction(int(j == perm[i])) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(n)
        rows[i] = [x * Fraction(rng.randint(0, 2), 3) for x in rows[i]]
    return QMatrix(rows)


def random_block(rng, k: int) -> QMatrix:
    """A leaky permutation (odd k) or a substochastic matrix scaled by
    1/2, 1, 101/100, 3/2 or 2, of dimension 1 to 5."""
    n = rng.randint(1, 5)
    if k % 2:
        return leaky_permutation(rng, n)
    scale = rng.choice((Fraction(1, 2), 1, Fraction(101, 100), Fraction(3, 2), 2))
    return random_substochastic(rng, n).scale(scale)


def random_orbit_operator(rng, block: QMatrix) -> ShiftInsertOperator:
    """The block alone, or (two times in five) with one l-infinity chain
    fed by a nonnegative functional of the finite part."""
    coords = tuple(f"x{i}" for i in range(block.nrows))
    if rng.random() >= 0.4:
        return ShiftInsertOperator(schema=IndexSchema(coords), finite_block=block)
    s = IndexSchema(coords, (ChainDecl("c", L_INFTY),))
    weights = {c: Fraction(rng.randint(0, 2), 2) for c in coords}
    spec = LinearFunctionalSpec.build(s, finite=weights)
    return ShiftInsertOperator(schema=s, finite_block=block, chain_sources=(spec,))


def random_start(rng, op: ShiftInsertOperator) -> SymbolicVector:
    """Small integers of mixed sign, nonpositive, nonnegative, or a
    constant +-1; a chain starts at -20, below every value it is fed."""
    n = op.schema.finite_dim
    kind = rng.randrange(4)
    if kind == 3:
        x = [rng.choice((-1, 1))] * n
    else:
        lo, hi = ((-2, 2), (-2, 0), (0, 2))[kind]
        x = [rng.randint(lo, hi) for _ in range(n)]
    chains = tuple(chain_value((), -20) for _ in op.schema.chains)
    return SymbolicVector(op.schema, QVector(x), chains)


def supremum_from_projection(op, g: SymbolicVector, power: int, proj: QMatrix):
    """The supremum built from proj, the limit of A^p: proj x as the
    finite part, and each chain constant at its functional read on
    proj A^k x and g's chain tails, the same for every k < p (else
    UnsupportedClosedFormError, the residue oscillation)."""
    limits, x = [], g.finite_part
    for _ in range(power):
        limits.append(proj @ x)
        x = op.finite_block @ x
    tails = [c.tail for c in g.chains]
    chains = []
    for spec in op.chain_sources:
        values = {
            sum((c * v for c, v in zip(spec.coeffs, [*lim, *tails])), Fraction(0))
            for lim in limits
        }
        if len(values) != 1:
            return UnsupportedClosedFormError
        chains.append(chain_value((), values.pop()))
    return SymbolicVector(op.schema, limits[0], tuple(chains))


def in_column_space(m: QMatrix, v: QVector) -> bool:
    """Whether v is in the column space of m: appending it as a column
    keeps the Bareiss rank."""
    appended = QMatrix([[*row, x] for row, x in zip(m.rows, v)])
    return bareiss_rank(appended) == bareiss_rank(m)


class TestOrbitLimitAgainstOracle:
    """orbit_sup on the blocks of `random_block` from super fixed starts
    at powers 1, 2 and 3, against the chi certificate of A^p that the
    projection rule replaced: where the certificate holds, the same
    supremum; where it refuses, either a supremum whose finite part h
    is the orbit limit (A^p h = h, h >= x, x - h in range(I - A^p), all
    exact) or an unbounded orbit with Perron root above 1."""

    def test_matches_the_oracle_certificate(self):
        rng = rng_for("orbit-limit-differential")
        seen = Counter()
        for k in range(600):
            block = random_block(rng, k)
            op = random_orbit_operator(rng, block)
            for p in (1, 2, 3):
                m = block.power(p)
                g = random_start(rng, op)
                if not apply_power(op, g, p).ge(g):
                    continue
                try:
                    proj = reference_limit_certificate(m)
                except (UnsupportedClosedFormError, DefectiveEigenvalueError):
                    proj = None
                try:
                    result = orbit_sup(op, g, p)
                except NoSupremumError as e:
                    assert "unbounded" in str(e)
                    assert proj is None
                    assert reference_perron_root_vs_one(char_poly(m)) > 0
                    seen["unbounded"] += 1
                    continue
                except (UnsupportedClosedFormError, DefectiveEigenvalueError):
                    if proj is not None:
                        expected = supremum_from_projection(op, g, p, proj)
                        assert expected is UnsupportedClosedFormError
                    seen["refused"] += 1
                    continue
                assert result.outcome == "Stabilized"
                sup = result.supremum
                if proj is not None:
                    assert sup == supremum_from_projection(op, g, p, proj)
                    seen["certified"] += 1
                    continue
                h, x = sup.finite_part, g.finite_part
                assert m @ h == h and h.ge(x)
                assert in_column_space(QMatrix.identity(m.nrows) - m, x - h)
                assert sup.ge(g) and apply_power(op, sup, p) == sup
                seen["newly answered"] += 1
        outcomes = ("certified", "newly answered", "unbounded")
        assert min(seen[key] for key in outcomes) >= 20, seen


E42_ORBIT_UNDER_DEFECT = """
import sys
from latfix import seqspace
from latfix.exactnum import TheoremViolationError
from latfix.exactnum.rational import QMatrix, QVector

assert not __debug__
op = seqspace.builtin_operator("e42")
(g,) = [v.abs() for v in seqspace.symbolic_fixed_space(op) if v.abs() != v]
{defect}
try:
    seqspace.orbit_sup(op, g)
except TheoremViolationError:
    sys.exit(0)
sys.exit(1)
"""

# each defect makes orbit_sup of e42 from its sign-mixed modulus fail a check
E42_DEFECTS = {
    "zero projection": (
        "seqspace.fix_projection = lambda m: QMatrix.zero(m.nrows, m.ncols)"
    ),
    "chain below the start": (
        "seqspace.chain_value = lambda prefix, tail: seqspace.ChainValue(QVector([-1]))"
    ),
}


def e42_sign_mixed_modulus():
    op = builtin_operator("e42")
    (g,) = [v.abs() for v in symbolic_fixed_space(op) if v.abs() != v]
    return op, g


class TestEnforcedChecks:
    """The guarantees behind orbit suprema and eigenvectors raise
    TheoremViolationError; none is a bare assert."""

    def test_limit_below_start(self, monkeypatch):
        # the finite limits are right, but every chain comes out
        # constant -1, below the start's nonnegative chains
        op, g = e42_sign_mixed_modulus()
        monkeypatch.setattr(
            seqspace,
            "chain_value",
            lambda prefix, tail: seqspace.ChainValue(QVector([-1])),
        )
        with pytest.raises(TheoremViolationError, match="fails to dominate"):
            orbit_sup(op, g)

    def test_zero_projection_of_a_power_bounded_block(self, monkeypatch):
        # a zero "projection" sends the finite part (1, 1, 1) to zero,
        # which reads as an unbounded orbit; the averaging block is
        # power bounded, so that is a defect
        monkeypatch.setattr(
            seqspace, "fix_projection", lambda m: QMatrix.zero(m.nrows, m.ncols)
        )
        op, g = e42_sign_mixed_modulus()
        with pytest.raises(TheoremViolationError, match="power bounded"):
            orbit_sup(op, g)

    def test_eigenvector_verification(self, monkeypatch):
        # (1, 0, 0 | 0, 0) is in no kernel: the averaging row moves it
        monkeypatch.setattr(
            seqspace, "kernel_basis", lambda m: [QVector.unit(m.ncols, 0)]
        )
        with pytest.raises(
            TheoremViolationError, match="eigenvector failed verification"
        ):
            symbolic_eigenspace(builtin_operator("e42"), 1)

    def test_growth_step_not_super_fixed(self, monkeypatch):
        # a first supremum with a nonzero row tail but a spike in row 0
        # that the square's insertions fall below
        op = builtin_operator("e43")
        spiked = SymbolicVector(
            op.schema, QVector([1, 1]), (), (chain_value([5], 1),)
        )
        monkeypatch.setattr(seqspace, "_limit_step", lambda *args: spiked)
        (f,) = symbolic_eigenspace(op, -1)
        with pytest.raises(TheoremViolationError, match="not super fixed"):
            orbit_sup(op, f.abs(), power=2)

    def test_growth_certified_in_one_call(self, monkeypatch):
        calls = []
        real = seqspace.orbit_sup

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(seqspace, "orbit_sup", counted)
        op = builtin_operator("e43")
        (f,) = symbolic_eigenspace(op, -1)
        result = seqspace.orbit_sup(op, f.abs(), power=2)
        assert result.evidence == (Fraction(1), Fraction(2), Fraction(4))
        assert len(calls) == 1

    def test_growth_reads_fixed_states_as_their_own_limits(self, monkeypatch):
        # the block squared is the identity, so each of the square's
        # three limit steps finds its finite part fixed and builds no
        # projection (e42's two steps share one: see test_fixlattice)
        op = builtin_operator("e43")
        (f,) = symbolic_eigenspace(op, -1)
        calls = []
        real = seqspace.fix_projection

        def counted(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(seqspace, "fix_projection", counted)
        result = orbit_sup(op, f.abs(), power=2)
        assert result.outcome == "Unbounded"
        assert calls == [] and op._limits == {}

    def test_raised_under_optimized_python(self):
        src = Path(__file__).resolve().parents[1] / "src"
        for name, defect in E42_DEFECTS.items():
            script = E42_ORBIT_UNDER_DEFECT.format(defect=defect)
            proc = subprocess.run(
                [sys.executable, "-O", "-c", script],
                env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, (name, proc.stderr)


class TestBuiltinLookup:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_operator("e99")
