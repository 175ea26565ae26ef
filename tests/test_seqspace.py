"""Symbolic sequence-space vectors and shift-insert operators.

The load-bearing oracle here expands symbolic vectors to explicit
truncated arrays and re-implements the operator action directly on
those arrays; agreement at every retained position certifies apply()
without sharing any code with it.  Orbit suprema are checked against
brute-force orbit iteration.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from latfix import seqspace
from latfix.exactnum import TheoremViolationError
from latfix.exactnum.rational import QMatrix, QVector, rat
from latfix.conegeom.core import Subspace
from latfix.seqspace import (
    C_ZERO,
    L_INFTY,
    ZERO_CHAIN,
    ChainDecl,
    ChainValue,
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

from conftest import rng_for


# ---------------------------------------------------------------------------
# truncation oracle


def expand(v: SymbolicVector, length: int, rows: int):
    """Explicit arrays: finite coords, each chain to the given length,
    the first `rows` grid rows to the given length."""
    return (
        tuple(v.finite_part),
        tuple(tuple(c.at(j) for j in range(length)) for c in v.chains),
        tuple(
            tuple(v.grid_row(k).at(j) for j in range(length)) for k in range(rows)
        ),
    )


def eval_spec_expanded(spec, finite, chains, grid):
    # the tail is read at the last retained index, so the truncation
    # length must exceed every prefix
    total = Fraction(0)
    for i, c in spec.finite_terms:
        total += c * finite[i]
    for i, c in spec.chain_tail_terms:
        total += c * chains[i][-1]
    for k, c in spec.grid_row_tail_terms:
        total += c * grid[k][-1]
    return total


def apply_expanded(op: ShiftInsertOperator, expanded):
    finite, chains, grid = expanded
    nf = len(finite)
    new_finite = [
        sum(op.finite_block.entry(i, j) * finite[j] for j in range(nf))
        for i in range(nf)
    ]
    for i, spec in op.finite_inputs:
        new_finite[i] += eval_spec_expanded(spec, finite, chains, grid)
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
        finite_inputs=(
            (0, LinearFunctionalSpec.build(s, chain_tails={"u": rat("1/4")})),
        ),
        chain_sources=(
            LinearFunctionalSpec.build(
                s, finite={"p": rat("1/2")}, grid_row_tails={0: rat("1/4")}
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
        assert chain_value([1, 1], 1) == ChainValue((), Fraction(1))
        assert chain_value([1, 0], 0) == ChainValue((Fraction(1),), Fraction(0))
        assert chain_value([], 2).at(17) == 2

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
        assert sup.chains[0] == ChainValue((), Fraction(1))
        assert ambient_sup([u, w]) == sup


class TestFunctionalSpec:
    def test_build_sorts_and_validates(self):
        s = mixed_schema()
        spec = LinearFunctionalSpec.build(s, finite={"q": 2, "p": 1})
        assert spec.finite_terms == ((0, Fraction(1)), (1, Fraction(2)))
        with pytest.raises(ValueError):
            LinearFunctionalSpec.build(s, finite={"zz": 1})
        no_grid = IndexSchema(("a",))
        with pytest.raises(ValueError):
            LinearFunctionalSpec.build(no_grid, grid_row_tails={0: 1})

    def test_evaluate_reads_tails_only(self):
        s = mixed_schema()
        spec = LinearFunctionalSpec.build(
            s, finite={"p": 1}, chain_tails={"u": 10}, grid_row_tails={1: 100}
        )
        v = SymbolicVector(
            s,
            QVector([2, 0]),
            (chain_value([7], 3), ZERO_CHAIN),
            (ZERO_CHAIN, chain_value([9], 5)),
        )
        # prefix values 7 and 9 are invisible; tails 3 and 5 count
        assert spec.evaluate(v) == 2 + 30 + 500


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
        assert sup.chains[0] == ChainValue((), Fraction(1))
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

    def test_refuses_unimodular_spectrum_other_than_one(self):
        # the swap has eigenvalue -1, so the orbit has no limit
        s = IndexSchema(("a", "b"), (ChainDecl("c", L_INFTY),))
        swap = ShiftInsertOperator(
            schema=s,
            finite_block=QMatrix([[0, 1], [1, 0]]),
            chain_sources=(LinearFunctionalSpec.build(s, finite={"a": 1}),),
        )
        g = SymbolicVector(s, QVector([1, 1]), (ZERO_CHAIN,))
        with pytest.raises(
            UnsupportedClosedFormError,
            match="unimodular spectrum other than 1",
        ):
            orbit_sup(swap, g, power=1)

    def test_refuses_spectrum_outside_the_disk(self):
        s = IndexSchema(("a",))
        double = ShiftInsertOperator(schema=s, finite_block=QMatrix([[2]]))
        g = SymbolicVector(s, QVector([1]))
        with pytest.raises(
            UnsupportedClosedFormError, match="leaves the unit disk"
        ):
            orbit_sup(double, g)

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


E42_ORBIT_UNDER_ZERO_LIMIT = """
import sys
from latfix import seqspace
from latfix.exactnum import TheoremViolationError
from latfix.exactnum.rational import QMatrix

assert not __debug__
seqspace._limit_matrix = lambda m: QMatrix.zero(m.nrows, m.ncols)
op = seqspace.builtin_operator("e42")
(g,) = [v.abs() for v in seqspace.symbolic_fixed_space(op) if v.abs() != v]
try:
    seqspace.orbit_sup(op, g)
except TheoremViolationError:
    sys.exit(0)
sys.exit(1)
"""


def e42_sign_mixed_modulus():
    op = builtin_operator("e42")
    (g,) = [v.abs() for v in symbolic_fixed_space(op) if v.abs() != v]
    return op, g


class TestEnforcedChecks:
    """The guarantees behind orbit suprema and eigenvectors raise
    TheoremViolationError; none is a bare assert."""

    def test_limit_below_start(self, monkeypatch):
        # a zero "limit" sends the finite part and the chain to zero,
        # below the start (1, 1, 1 | ...)
        monkeypatch.setattr(
            seqspace,
            "_limit_matrix",
            lambda m: QMatrix.zero(m.nrows, m.ncols),
        )
        op, g = e42_sign_mixed_modulus()
        with pytest.raises(TheoremViolationError, match="fails to dominate"):
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

    def test_raised_under_optimized_python(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", E42_ORBIT_UNDER_ZERO_LIMIT],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestBuiltinLookup:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_operator("e99")
