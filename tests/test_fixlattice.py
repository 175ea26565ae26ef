"""Fixed spaces of commuting families: reports, suprema, transfinite
iteration.

Least fixed vectors are cross-checked against the spectral projection
route (two independent constructions of the same object), fixed-space
dimensions against a Bareiss rank oracle.
"""

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

from latfix import fixlattice, seqspace

from latfix.conegeom import Subspace
from latfix.conegeom.core import Verdict
from latfix.conegeom import core as conegeom_core
from latfix.exactnum import linalg
from latfix.exactnum.linalg import DefectiveEigenvalueError, fix_projection
from latfix.exactnum.rational import QMatrix, QVector, rat
from latfix.fixlattice import (
    BudgetExceededError,
    TraceStep,
    TheoremViolationError,
    fixed_space_report,
    least_fixed_above,
    sup_in_fixspace,
    transfinite_trace,
)
from latfix import opcore
from latfix.opcore import ONE_NORM, SUP_NORM, OperatorFamily, PositiveMatrixOperator
from latfix.seqspace import (
    GridDecl,
    IndexSchema,
    L_INFTY,
    LinearFunctionalSpec,
    NoSupremumError,
    ShiftInsertOperator,
    SymbolicVector,
    builtin_operator,
    chain_value,
    symbolic_eigenspace,
    symbolic_fixed_space,
)

from conftest import (
    bareiss_rank,
    poly_of,
    random_nonneg_poly_coeffs,
    random_row_stochastic,
    rng_for,
)


def averaging_op():
    # row-stochastic, fixes span{(1,1,1),(1,0,-1)}
    return PositiveMatrixOperator(
        QMatrix(
            [
                [1, 0, 0],
                [rat("1/3"), rat("1/3"), rat("1/3")],
                [0, 0, 1],
            ]
        ),
        SUP_NORM,
    )


def family_of(*ops):
    return OperatorFamily(list(ops))


def random_block_stochastic(rng, sizes):
    # block-diagonal row-stochastic: fixed space contains one indicator
    # per block, so dim >= len(sizes)
    n = sum(sizes)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for size in sizes:
        block = random_row_stochastic(rng, size)
        for i in range(size):
            for j in range(size):
                rows[offset + i][offset + j] = block.rows[i][j]
        offset += size
    return QMatrix(rows)


class TestFixedSpace:
    def test_frozen_basis(self):
        fixed = family_of(averaging_op()).fixed_space
        assert fixed.basis == (QVector([1, 0, -1]), QVector([0, 1, 2]))

    def test_random_families_dimension_and_fixity(self):
        rng = rng_for("fixspace-dims")
        for _ in range(25):
            n = rng.randint(2, 6)
            t = random_row_stochastic(rng, n)
            members = [
                PositiveMatrixOperator(
                    poly_of(t, random_nonneg_poly_coeffs(rng, rng.randint(1, 3), Fraction(1)))
                )
                for _ in range(rng.randint(1, 3))
            ]
            fam = OperatorFamily(members)
            fixed = fam.fixed_space
            for b in fixed.basis:
                for op in fam.members:
                    assert op.apply(b) == b
            stacked = QMatrix(
                [
                    row
                    for op in fam.members
                    for row in (QMatrix.identity(n) - op.matrix).rows
                ]
            )
            assert fixed.dim == n - bareiss_rank(stacked)


class TestFixedSpaceReport:
    def test_strictly_monotone_sublattice(self):
        half = rat("1/2")
        c = PositiveMatrixOperator(
            QMatrix([[half, half, 0], [half, half, 0], [0, 0, 1]]), ONE_NORM
        )
        report = fixed_space_report(family_of(c))
        assert report.family_valid
        assert report.classification.verdict == Verdict.SUBLATTICE
        assert report.theorem_conformant is True
        assert len(report.norm_checks) == 2
        for check in report.norm_checks:
            assert check.equal
            assert check.fixed_norm == check.ambient_norm
        assert report.norm_checks[0].description == "{b1, -b1}"

    def test_sup_norm_lattice_subspace(self):
        report = fixed_space_report(family_of(averaging_op()))
        assert report.family_valid
        assert report.classification.verdict == Verdict.LATTICE_SUBSPACE_ONLY
        assert report.theorem_conformant is True
        assert all(check.equal for check in report.norm_checks)

    def test_invalid_family_conformance_not_applicable(self):
        t = PositiveMatrixOperator(
            QMatrix([[1, 0, 0], [1, 1, 1], [0, 0, 1]]), SUP_NORM
        )
        report = fixed_space_report(family_of(t))
        assert not report.family_valid
        assert report.theorem_conformant is None
        assert report.classification.verdict == Verdict.NOT_LATTICE_SUBSPACE

    def test_norm_checks_on_random_contractions(self):
        rng = rng_for("report-norms")
        for _ in range(15):
            n = rng.randint(2, 5)
            t = random_row_stochastic(rng, n)
            report = fixed_space_report(
                family_of(PositiveMatrixOperator(t, SUP_NORM))
            )
            assert report.family_valid
            assert report.theorem_conformant is True
            for check in report.norm_checks:
                assert check.equal


def count_calls(monkeypatch, *targets):
    """Counter of calls to each (module, name), wrapped in every latfix
    module namespace that holds the function, wherever it is called."""
    calls = Counter()
    modules = [
        m for n, m in sys.modules.items()
        if m is not None and (n == "latfix" or n.startswith("latfix."))
    ]
    for module, name in targets:
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)
    return calls


class TestInvariantsComputedOnce:
    def test_one_family_shares_its_fixed_space_and_classification(
        self, monkeypatch
    ):
        calls = count_calls(
            monkeypatch,
            (linalg, "kernel_basis"),
            (conegeom_core, "extreme_rays_of_inequality_cone"),
            (opcore, "contraction_check"),
        )
        t = averaging_op()
        fam = family_of(t, PositiveMatrixOperator(t.matrix @ t.matrix, SUP_NORM))
        report = fixed_space_report(fam)
        assert report.classification.verdict == Verdict.LATTICE_SUBSPACE_ONLY
        for b in report.fixed_space.basis:
            g_f, g_e = sup_in_fixspace(fam, [b, -b])
            assert g_f.ge(g_e)
        assert least_fixed_above(fam, QVector([1, 0, 1])) == QVector([1, 1, 1])
        assert calls == Counter(
            kernel_basis=1,
            extreme_rays_of_inequality_cone=1,
            contraction_check=len(fam.members),
        )

    def test_one_positive_projection_per_fixed_space(self, monkeypatch):
        """The fixed space builds its positive projection once, and every
        supremum in it reuses that one matrix."""
        calls = Counter()
        build = Subspace.positive_projection.func

        def counting(self):
            calls["positive_projection"] += 1
            return build(self)

        counted = cached_property(counting)
        counted.__set_name__(Subspace, "positive_projection")
        monkeypatch.setattr(Subspace, "positive_projection", counted)
        t = averaging_op()
        fam = family_of(t, PositiveMatrixOperator(t.matrix @ t.matrix, SUP_NORM))
        report = fixed_space_report(fam)
        assert report.fixed_space.dim == 2
        for b in report.fixed_space.basis:
            g_f, g_e = sup_in_fixspace(fam, [b, -b])
            assert g_f.ge(g_e)
        assert least_fixed_above(fam, QVector([1, 0, 1])) == QVector([1, 1, 1])
        assert calls == Counter(positive_projection=1)

    def test_one_membership_check_per_sup_input(self, monkeypatch):
        t = averaging_op()
        fam = family_of(t, PositiveMatrixOperator(t.matrix @ t.matrix, SUP_NORM))
        vectors = [b for b in fam.fixed_space.basis] + [-fam.fixed_space.basis[0]]
        expected = sup_in_fixspace(fam, vectors)  # the invariants are cached
        calls = Counter()
        original = Subspace.coefficients_of

        def counting(self, v):
            calls["coefficients_of"] += 1
            return original(self, v)

        monkeypatch.setattr(Subspace, "coefficients_of", counting)
        assert sup_in_fixspace(fam, vectors) == expected
        assert calls == Counter(coefficients_of=len(vectors))

    def test_cached_invariants_leave_equality_and_hash_alone(self):
        cached, fresh = family_of(averaging_op()), family_of(averaging_op())
        assert cached.contractive
        assert cached.fixed_space.classification.rays
        # rays (0,1,2) and (2,1,0) own coordinates 2 and 0
        assert cached.fixed_space.positive_projection == QMatrix(
            [[1, 0, 0], [rat("1/2"), 0, rat("1/2")], [0, 0, 1]]
        )
        assert cached == fresh
        assert hash(cached) == hash(fresh)
        assert cached.fixed_space == fresh.fixed_space
        assert hash(cached.fixed_space) == hash(fresh.fixed_space)


class TestSupInFixspace:
    def test_frozen_example(self):
        fam = family_of(averaging_op())
        f_hat = QVector([1, 0, -1])
        g_f, g_e = sup_in_fixspace(fam, [f_hat, -f_hat])
        assert g_e == QVector([1, 0, 1])
        assert g_f == QVector([1, 1, 1])

    def test_vector_membership_enforced(self):
        fam = family_of(averaging_op())
        with pytest.raises(ValueError):
            sup_in_fixspace(fam, [QVector([1, 0, 0])])
        with pytest.raises(ValueError):
            sup_in_fixspace(fam, [])

    def test_requires_contractive_family(self):
        t = PositiveMatrixOperator(
            QMatrix([[1, 0, 0], [1, 1, 1], [0, 0, 1]]), SUP_NORM
        )
        with pytest.raises(ValueError):
            sup_in_fixspace(family_of(t), [QVector([0, 1, 0])])

    def test_matches_projection_route(self):
        rng = rng_for("sup-vs-proj")
        checked = 0
        for _ in range(40):
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
            t = random_block_stochastic(rng, sizes)
            fam = family_of(PositiveMatrixOperator(t, SUP_NORM))
            fixed = fam.fixed_space
            if fixed.dim < 2:
                continue
            coeffs = [
                QVector(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in fixed.basis)
                for _ in range(2)
            ]
            vectors = [fixed.from_coefficients(c) for c in coeffs]
            g_f, g_e = sup_in_fixspace(fam, vectors)
            # the ambient max of fixed vectors is super fixed, so the
            # least fixed vector above it is its orbit limit
            assert g_f == fix_projection(t) @ g_e
            checked += 1
        assert checked >= 5


class TestLeastFixedAbove:
    def test_frozen_example(self):
        fam = family_of(averaging_op())
        assert least_fixed_above(fam, QVector([1, 0, 1])) == QVector([1, 1, 1])

    def test_rejects_non_super_fixed(self):
        fam = family_of(averaging_op())
        with pytest.raises(ValueError, match="super fixed"):
            least_fixed_above(fam, QVector([0, 1, 0]))

    def test_absorbing_chain_needs_more_than_the_positive_projection(self):
        """T = [[0, 1], [0, 1]] sends state 1 to the absorbing state 2,
        so g = (0, 1) is super fixed and the least fixed vector above it
        is (1, 1), while the fixed space's positive projection Q, which
        reads the ray (1, 1) off the first coordinate, sends g to (0, 0):
        Qg is not the answer for a general super fixed g, which is why
        the search keeps its LP."""
        t = PositiveMatrixOperator(QMatrix([[0, 1], [0, 1]]), SUP_NORM)
        fam = family_of(t)
        g = QVector([0, 1])
        assert fam.fixed_space.positive_projection @ g == QVector([0, 0])
        assert least_fixed_above(fam, g) == QVector([1, 1])
        assert fix_projection(t.matrix) @ g == QVector([1, 1])

    def test_matches_projection_on_random_instances(self):
        rng = rng_for("lfa-vs-proj")
        checked = 0
        for _ in range(40):
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
            t = random_block_stochastic(rng, sizes)
            fam = family_of(PositiveMatrixOperator(t, SUP_NORM))
            fixed = fam.fixed_space
            if fixed.dim < 2:
                continue
            f1 = fixed.from_coefficients(
                QVector(Fraction(rng.randint(-3, 3)) for _ in fixed.basis)
            )
            f2 = fixed.from_coefficients(
                QVector(Fraction(rng.randint(-3, 3)) for _ in fixed.basis)
            )
            g = f1.cwise_max(f2)
            result = least_fixed_above(fam, g)
            assert result == fix_projection(t) @ g
            assert result.ge(g)
            checked += 1
        assert checked >= 5


class TestMatrixTrace:
    def test_single_limit_step(self):
        f_hat = QVector([1, 0, -1])
        trace = transfinite_trace(averaging_op(), [f_hat, -f_hat])
        assert trace.outcome == "FixedPointReached"
        assert trace.limit_steps == 1
        assert trace.fixed_point == QVector([1, 1, 1])
        assert len(trace.steps) == 1
        assert trace.steps[0].limit_step_index == 1
        assert trace.steps[0].is_fixed

    def test_power_argument(self):
        swap = PositiveMatrixOperator(QMatrix([[0, 1], [1, 0]]), SUP_NORM)
        # every vector is fixed by the square
        trace = transfinite_trace(swap, [QVector([1, 0]), QVector([0, 1])], power=2)
        assert trace.outcome == "FixedPointReached"
        assert trace.fixed_point == QVector([1, 1])

    def test_vector_not_fixed_rejected(self):
        with pytest.raises(ValueError):
            transfinite_trace(averaging_op(), [QVector([1, 0, 0])])

    def test_unbounded_orbit_has_no_supremum(self):
        # positive, eigenvalue 1 semisimple, but not power bounded: the
        # monotone orbit of |f| runs away, and no theorem forbids it
        t = PositiveMatrixOperator(QMatrix([[2, 1], [0, 1]]), SUP_NORM)
        f = QVector([1, -1])
        assert t.apply(f) == f
        assert opcore.power_bounded_analysis(t).verdict == "No"
        with pytest.raises(NoSupremumError, match="unbounded"):
            transfinite_trace(t, [f, -f])

    def test_defective_fixed_space_surfaces(self):
        # the start (1, 0, 1) is not fixed, so its limit needs the
        # projection, which the defective eigenvalue 1 rules out
        t = PositiveMatrixOperator(
            QMatrix([[1, 0, 0], [1, 1, 1], [0, 0, 1]]), SUP_NORM
        )
        f = QVector([1, 0, -1])
        assert t.apply(f) == f
        with pytest.raises(DefectiveEigenvalueError):
            transfinite_trace(t, [f, -f])

    @pytest.mark.parametrize(
        "rows, start",
        [
            ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], [1, 0, 0]),
            ([[1, 0, 0], [1, 1, 1], [0, 0, 1]], [0, 1, 0]),
        ],
    )
    def test_fixed_start_is_its_own_limit(self, rows, start, monkeypatch):
        """A start the matrix fixes has a constant orbit, so it is the
        limit even when the eigenvalue 1 is defective, and no projection
        is built."""
        def forbidden(m):
            raise AssertionError("fix_projection called")

        monkeypatch.setattr(fixlattice, "fix_projection", forbidden)
        t = PositiveMatrixOperator(QMatrix(rows), SUP_NORM)
        f = QVector(start)
        trace = transfinite_trace(t, [f])
        assert trace.outcome == "FixedPointReached"
        assert trace.fixed_point == f
        assert trace.limit_steps == 1
        assert trace.steps == (TraceStep(1, f, True),)


class TestSymbolicTrace:
    def test_e42_certifies_one_limit_matrix(self, monkeypatch):
        # both limit steps power the same finite block, and the
        # operator projects it once across the two orbit suprema
        op = builtin_operator("e42")
        f = next(v for v in symbolic_fixed_space(op) if not v.abs() == v)
        calls = []
        real = seqspace.fix_projection

        def counted(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(seqspace, "fix_projection", counted)
        trace = transfinite_trace(op, [f, f.scale(-1)])
        assert trace.limit_steps == 2
        assert len(calls) == 1

    def test_e42_two_limit_steps(self):
        op = builtin_operator("e42")
        basis = symbolic_fixed_space(op)
        sign_mixed = next(v for v in basis if not v.abs() == v)
        trace = transfinite_trace(op, [sign_mixed, sign_mixed.scale(-1)])
        assert trace.outcome == "FixedPointReached"
        assert trace.limit_steps == 2
        assert [s.is_fixed for s in trace.steps] == [False, True]
        g1 = trace.steps[0].vector
        assert g1.finite_part == QVector([1, 1, 1])
        assert g1.chains[0].tail == 1 and not g1.chains[0].prefix
        assert g1.chains[1].is_zero()
        g2 = trace.fixed_point
        assert g2.finite_part == QVector([1, 1, 1])
        assert g2.chains[0].tail == 1
        assert g2.chains[1].tail == 1

    def test_e43_square_unbounded(self):
        op = builtin_operator("e43")
        (f,) = symbolic_eigenspace(op, -1)
        trace = transfinite_trace(op, [f, f.scale(-1)], power=2)
        assert trace.outcome == "Unbounded"
        assert trace.evidence == (Fraction(1), Fraction(2), Fraction(4))
        assert trace.steps == ()
        assert trace.fixed_point is None

    def test_budget_exhaustion(self):
        # cross coefficient exactly 1: every limit step adds one more
        # constant grid row, no growth, never fixed
        s = IndexSchema(("a", "b"), grid=GridDecl("rows", L_INFTY))
        op = ShiftInsertOperator(
            schema=s,
            finite_block=QMatrix([[0, 1], [1, 0]]),
            grid_row0_source=LinearFunctionalSpec.build(
                s, finite={"a": rat("1/2"), "b": rat("1/2")}
            ),
            grid_cross=rat(1),
        )
        (f,) = symbolic_eigenspace(op, -1)
        with pytest.raises(BudgetExceededError):
            transfinite_trace(op, [f, f.scale(-1)], power=2)

    def test_vector_not_fixed_rejected(self):
        op = builtin_operator("e42")
        s = op.schema
        zero = chain_value((), 0)
        bad = SymbolicVector(s, QVector([1, 0, 0]), chains=(zero, zero))
        with pytest.raises(ValueError):
            transfinite_trace(op, [bad])

    def test_unknown_operator_type(self):
        with pytest.raises(TypeError):
            transfinite_trace(object(), [QVector([1])])

    def test_power_must_be_positive(self):
        with pytest.raises(ValueError):
            transfinite_trace(averaging_op(), [QVector([1, 0, -1])], power=0)


E42_TRACE_UNDER_BROKEN_ORBIT = """
import sys
from latfix import fixlattice, seqspace
from latfix.exactnum.rational import QVector

assert not __debug__
seqspace.orbit_sup = lambda *args: seqspace.OrbitSup("NotSuperFixed")
op = seqspace.builtin_operator("e42")
chain = seqspace.ZERO_CHAIN
f = seqspace.SymbolicVector(op.schema, QVector([1, 0, -1]), (chain, chain))
try:
    fixlattice.transfinite_trace(op, [f, -f])
except fixlattice.TheoremViolationError:
    sys.exit(0)
sys.exit(1)
"""


class TestEnforcedChecks:
    """The theory's guarantees inside the traces raise
    TheoremViolationError; none is a bare assert."""

    def test_matrix_limit_not_fixed(self, monkeypatch):
        # an identity "projection" leaves the ambient supremum (1, 0, 1)
        # where it is, which dominates itself but is not fixed
        monkeypatch.setattr(
            fixlattice, "fix_projection", lambda m: QMatrix.identity(m.nrows)
        )
        f_hat = QVector([1, 0, -1])
        with pytest.raises(TheoremViolationError, match="not fixed"):
            transfinite_trace(averaging_op(), [f_hat, -f_hat])

    def test_matrix_limit_below_start(self, monkeypatch):
        # a zero "projection" reads the orbit of (1, 0, 1) as unbounded,
        # which the power bounded averaging operator rules out
        monkeypatch.setattr(
            fixlattice, "fix_projection", lambda m: QMatrix.zero(m.nrows, m.ncols)
        )
        f_hat = QVector([1, 0, -1])
        with pytest.raises(TheoremViolationError, match="power bounded"):
            transfinite_trace(averaging_op(), [f_hat, -f_hat])

    @pytest.mark.parametrize(
        "outcome, match",
        [
            (seqspace.OrbitSup("NotSuperFixed"), "not super fixed"),
            (seqspace.OrbitSup("Stabilized"), "without a supremum"),
        ],
    )
    def test_symbolic_orbit_defects(self, monkeypatch, outcome, match):
        monkeypatch.setattr(seqspace, "orbit_sup", lambda *args: outcome)
        op = builtin_operator("e42")
        chain = seqspace.ZERO_CHAIN
        f = SymbolicVector(op.schema, QVector([1, 0, -1]), (chain, chain))
        with pytest.raises(TheoremViolationError, match=match):
            transfinite_trace(op, [f, f.scale(-1)])

    def test_raised_under_optimized_python(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", E42_TRACE_UNDER_BROKEN_ORBIT],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
