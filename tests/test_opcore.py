"""Positive operators: norms, families, power boundedness.

Operator norms are verified by exhibiting attaining vectors; power
boundedness against the growth of floating-point powers, on each side
of spectral radius 1 against numpy's spectral radius and, at spectral
radius 1, against a route that evaluates every dividing cyclotomic at
the matrix; the cyclotomic content against the same reference; the
integer commute check against the rational products, and the fixed
space by restriction against the kernel of the stacked `QMatrix` rows
(`product_oracles.reference_fixed_space`), on Kronecker families too.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latfix import cyclicity, opcore
from latfix.cyclicity import verify_dimension_cyclicity
from latfix.exactnum import TheoremViolationError
from latfix.exactnum import linalg
from latfix.exactnum.linalg import char_poly, poly_of_matrix, rank
from latfix.exactnum.polynomials import (
    QPolynomial,
    cyclotomic,
    cyclotomic_division,
    euler_phi,
    has_unimodular_root,
    orders_with_phi_at_most,
)
from latfix.exactnum.rational import QMatrix, QVector, rat
from latfix.opcore import (
    ONE_NORM,
    SUP_NORM,
    NormTag,
    OperatorFamily,
    PositiveMatrixOperator,
    contraction_check,
    operator_norm,
    power_bounded_analysis,
    super_fixed_check,
    vector_norm,
    weighted_one_norm,
)

from conftest import (
    block_diag,
    cycle_matrix,
    kron,
    random_row_stochastic,
    random_substochastic,
    rng_for,
    to_numpy,
)
from poly_oracles import reference_perron_root_vs_one
from product_oracles import reference_fixed_space


def op(rows, tag=SUP_NORM):
    return PositiveMatrixOperator(QMatrix(rows), tag)


class TestNormTags:
    def test_validation(self):
        with pytest.raises(ValueError):
            NormTag("euclidean")
        with pytest.raises(ValueError):
            NormTag("sup", weights=QVector([1]))
        with pytest.raises(ValueError):
            weighted_one_norm(QVector([1, 0]))

    def test_strict_monotonicity_flags(self):
        assert not SUP_NORM.strictly_monotone
        assert ONE_NORM.strictly_monotone
        assert weighted_one_norm(QVector([1, 2])).strictly_monotone

    def test_vector_norms(self):
        x = QVector([rat("-1/2"), 3])
        assert vector_norm(x, SUP_NORM) == 3
        assert vector_norm(x, ONE_NORM) == rat("7/2")
        assert vector_norm(x, weighted_one_norm(QVector([4, 1]))) == 5


class TestOperatorValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            op([[1, -1], [0, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            PositiveMatrixOperator(QMatrix([[1, 0]]))

    def test_weight_dimension(self):
        with pytest.raises(ValueError):
            op([[1, 0], [0, 1]], weighted_one_norm(QVector([1])))


class TestOperatorNorm:
    def test_sup_norm_is_max_row_sum_and_attained(self):
        t = op([[rat("1/2"), rat("1/2")], [1, rat("2/3")]])
        norm = operator_norm(t)
        assert norm == rat("5/3")
        ones = QVector([1, 1])
        assert vector_norm(t.apply(ones), SUP_NORM) == norm

    def test_one_norm_is_max_column_sum_and_attained(self):
        t = op([[rat("1/2"), rat("1/2")], [1, rat("2/3")]], ONE_NORM)
        norm = operator_norm(t)
        assert norm == rat("3/2")
        e0 = QVector([1, 0])
        assert vector_norm(t.apply(e0), ONE_NORM) == norm

    def test_weighted_norm_attained_on_unit_vector(self):
        w = QVector([1, 3])
        t = op([[rat("1/2"), 1], [rat("1/4"), 0]], weighted_one_norm(w))
        norm = operator_norm(t)
        attained = max(
            vector_norm(t.apply(QVector.unit(2, j)), t.norm_tag)
            / vector_norm(QVector.unit(2, j), t.norm_tag)
            for j in range(2)
        )
        assert norm == attained

    def test_norm_bounds_random_vectors(self):
        rng = rng_for("opnorm")
        for tag in (SUP_NORM, ONE_NORM, weighted_one_norm(QVector([1, 2, 3]))):
            for _ in range(20):
                m = QMatrix(
                    [
                        QVector(Fraction(rng.randint(0, 8), rng.randint(1, 5)) for _ in range(3))
                        for _ in range(3)
                    ]
                )
                t = PositiveMatrixOperator(m, tag)
                norm = operator_norm(t)
                x = QVector(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3))
                assert vector_norm(t.apply(x), tag) <= norm * vector_norm(x, tag)

    def test_contraction_check(self):
        assert contraction_check(op([[rat("1/2"), rat("1/2")], [0, 1]]))
        assert not contraction_check(op([[1, 1], [0, 1]]))


class TestSuperFixed:
    def test_definition(self):
        t = op([[1, 0, 0], [rat("2/3"), rat("1/3"), rat("2/3")], [0, 0, 1]])
        assert super_fixed_check(t, QVector([1, 0, 1]))
        assert not super_fixed_check(t, QVector([0, 1, 0]))

    def test_max_of_fixed_vectors_is_super_fixed(self):
        rng = rng_for("superfix")
        from latfix.exactnum.linalg import kernel_basis

        for _ in range(15):
            n = rng.randint(2, 5)
            m = random_substochastic(rng, n)
            t = PositiveMatrixOperator(m)
            basis = kernel_basis(QMatrix.identity(n) - m)
            if len(basis) < 2:
                continue
            g = basis[0].cwise_max(basis[1])
            assert super_fixed_check(t, g)


class TestFamily:
    def test_rejects_non_commuting(self):
        a = QMatrix([[0, 1], [0, 0]])
        b = QMatrix([[1, 0], [1, 1]])
        with pytest.raises(ValueError, match="commute"):
            OperatorFamily(
                [PositiveMatrixOperator(a), PositiveMatrixOperator(b)]
            )

    def test_rejects_products_differing_by_one_part_in_10_12(self):
        e = Fraction(1, 10**6)
        half = Fraction(1, 2)
        a = QMatrix([[half, 0, 0], [0, half + e, 0], [0, 0, rat("1/3")]])
        b = QMatrix([[half, e, 0], [0, half, 0], [0, 0, rat("2/7")]])
        diff = a @ b - b @ a
        nonzero = [(i, j) for i in range(3) for j in range(3) if diff.entry(i, j)]
        assert nonzero == [(0, 1)]
        assert abs(diff.entry(0, 1)) == Fraction(1, 10**12)
        with pytest.raises(ValueError, match="members 0 and 1 do not commute"):
            OperatorFamily(
                [PositiveMatrixOperator(a), PositiveMatrixOperator(b)]
            )

    def test_accepts_polynomials_with_coprime_denominators(self):
        m = QMatrix(
            [
                [rat("1/3"), rat("2/7"), 0],
                [rat("1/5"), 0, rat("3/11")],
                [0, rat("1/13"), rat("4/9")],
            ]
        )
        eye = QMatrix.identity(3)
        p = m.scale(rat("1/17")) + (m @ m).scale(rat("2/19")) + eye.scale(rat("1/23"))
        q = m.power(3).scale(rat("5/29")) + eye.scale(rat("1/31"))
        fam = OperatorFamily(
            [PositiveMatrixOperator(x) for x in (m, p, q)]
        )
        assert len(fam.members) == 3

    def test_rejects_mixed_norms(self):
        eye = QMatrix.identity(2)
        with pytest.raises(ValueError, match="^family members carry different norms$"):
            OperatorFamily(
                [
                    PositiveMatrixOperator(eye, SUP_NORM),
                    PositiveMatrixOperator(eye, ONE_NORM),
                ]
            )

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="^family members act on different spaces$"):
            OperatorFamily(
                [
                    PositiveMatrixOperator(QMatrix.identity(2)),
                    PositiveMatrixOperator(QMatrix.identity(3)),
                ]
            )

    def test_checks_each_member_in_order_dimension_before_norm(self):
        eye2, eye3 = QMatrix.identity(2), QMatrix.identity(3)
        both = [PositiveMatrixOperator(eye2), PositiveMatrixOperator(eye3, ONE_NORM)]
        with pytest.raises(ValueError, match="different spaces"):
            OperatorFamily(both)
        norm_first = [
            PositiveMatrixOperator(eye2),
            PositiveMatrixOperator(eye2, ONE_NORM),
            PositiveMatrixOperator(eye3),
        ]
        with pytest.raises(ValueError, match="different norms"):
            OperatorFamily(norm_first)
        # shapes and norms are checked before commutation
        a = QMatrix([[0, 1], [0, 0]])
        b = QMatrix([[1, 0], [1, 1]])
        mixed = [PositiveMatrixOperator(a), PositiveMatrixOperator(b), PositiveMatrixOperator(eye3)]
        with pytest.raises(ValueError, match="different spaces"):
            OperatorFamily(mixed)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^empty operator family$"):
            OperatorFamily([])
        with pytest.raises(ValueError, match="^empty operator family$"):
            OperatorFamily(iter(()))

    def test_one_shot_generator_keeps_every_member_in_order(self):
        m = QMatrix([[rat("1/2"), rat("1/2")], [rat("1/4"), rat("1/2")]])
        mats = [m.power(k) for k in (1, 2, 3)]
        fam = OperatorFamily(PositiveMatrixOperator(x) for x in mats)
        assert isinstance(fam.members, tuple)
        assert [op.matrix for op in fam.members] == mats
        assert fam == OperatorFamily(members=tuple(PositiveMatrixOperator(x) for x in mats))

    def test_accepts_powers(self):
        m = QMatrix([[rat("1/2"), rat("1/2")], [rat("1/4"), rat("1/2")]])
        fam = OperatorFamily(
            [PositiveMatrixOperator(m), PositiveMatrixOperator(m @ m)]
        )
        assert fam.dim == 2
        assert fam.norm_tag == SUP_NORM


@st.composite
def nonneg_matrices(draw, n):
    """Nonnegative n x n matrices, each row over its own denominator;
    half of them row stochastic, some rows absorbing, so the fixed space
    holds the constants and often more."""
    stochastic = draw(st.booleans())
    rows = []
    for i in range(n):
        nums = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        if stochastic and draw(st.booleans()):
            nums = [int(i == j) for j in range(n)]
        den = sum(nums) if stochastic and any(nums) else draw(st.integers(1, 12))
        rows.append([Fraction(x, den) for x in nums])
    return QMatrix(rows)


@st.composite
def family_matrices(draw):
    """Two or three n x n matrices: M, then each either a polynomial in M
    with nonnegative weights summing to 1 (it commutes with M and keeps
    M's fixed vectors), that polynomial with one entry raised, or an
    unrelated matrix."""
    n = draw(st.integers(1, 5))
    m = draw(nonneg_matrices(n))
    matrices = [m]
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["polynomial", "one-entry", "unrelated"]))
        if kind == "unrelated":
            matrices.append(draw(nonneg_matrices(n)))
            continue
        weights = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
        total = sum(weights) or 1
        p, power = QMatrix.zero(n, n), QMatrix.identity(n)
        for w in weights:
            p, power = p + power.scale(Fraction(w, total)), power @ m
        if kind == "one-entry":
            rows = [list(r) for r in p.rows]
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[i][j] += draw(st.sampled_from([Fraction(1, 7), Fraction(1, 2), 1]))
            p = QMatrix(rows)
        matrices.append(p)
    return matrices


@st.composite
def kronecker_families(draw):
    """{A x I, I x B} or {A x I, I x B, A x B} for nonnegative A and B,
    the members shuffled: they commute, and the fixed space of the
    first is often larger than the common one."""
    a = draw(nonneg_matrices(draw(st.integers(1, 3))))
    b = draw(nonneg_matrices(draw(st.integers(1, 3))))
    ia, ib = QMatrix.identity(a.nrows), QMatrix.identity(b.nrows)
    members = [kron(a, ib), kron(ia, b)]
    if draw(st.booleans()):
        members.append(kron(a, b))
    return draw(st.permutations(members))


def reference_family_error(matrices):
    """The message the earlier check raised, comparing the rational
    products A B and B A of every pair in order, or None."""
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            a, b = matrices[i], matrices[j]
            if a @ b != b @ a:
                return f"family members {i} and {j} do not commute"
    return None


SWAP = QMatrix([[0, 1], [1, 0]])


class TestIntegerFamilyChecks:
    """The commute check on integer rows and the fixed space by
    restriction along the members against the earlier `QMatrix` route:
    the same error message, and the kernel of the stacked rational rows
    of I - T."""

    @given(st.one_of(family_matrices(), kronecker_families()))
    @example(
        [
            QMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]),
            QMatrix([[Fraction(1, 5), 0], [0, Fraction(2, 7)]]),
            QMatrix([[Fraction(1, 5), Fraction(1, 11)], [0, Fraction(2, 7)]]),
        ]
    )
    @example(
        [
            QMatrix([[0, 1, 0], [0, 1, 0], [0, 0, 1]]),
            QMatrix([[0, 1, 0], [0, 1, 0], [0, 0, 1]]),
        ]
    )
    @example(
        [
            QMatrix.identity(3),
            QMatrix(
                [
                    [Fraction(1, 2), Fraction(1, 2), 0],
                    [Fraction(1, 3), Fraction(2, 3), 0],
                    [Fraction(1, 4), 0, Fraction(3, 4)],
                ]
            ),
        ]
    )
    @example([kron(SWAP, QMatrix.identity(2)), kron(QMatrix.identity(2), SWAP)])
    @settings(max_examples=300, deadline=None)
    def test_matches_rational_products(self, matrices):
        expected = reference_family_error(matrices)
        ops = [PositiveMatrixOperator(m) for m in matrices]
        if expected is not None:
            with pytest.raises(ValueError) as info:
                OperatorFamily(ops)
            assert str(info.value) == expected
            return
        fam = OperatorFamily(ops)
        assert fam.fixed_space == reference_fixed_space(matrices)

    def test_builds_no_rational_product(self, monkeypatch):
        """The commute check multiplies integer rows only, and the
        restriction applies members to vectors only."""
        def forbidden(self, other):
            raise AssertionError("QMatrix.matmul called")

        m = QMatrix([[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 4), Fraction(3, 4)]])
        p = m @ m
        eye = QMatrix.identity(2)
        swaps = [kron(SWAP, eye), kron(eye, SWAP)]
        monkeypatch.setattr(QMatrix, "matmul", forbidden)
        fam = OperatorFamily([PositiveMatrixOperator(m), PositiveMatrixOperator(p)])
        assert fam.fixed_space.basis == (QVector([1, 1]),)
        fam = OperatorFamily(PositiveMatrixOperator(t) for t in swaps)
        assert fam.fixed_space.basis == (QVector([1, 1, 1, 1]),)

    def count_reductions(self, monkeypatch) -> tuple[list, list]:
        """Patch opcore's kernel_basis and linalg's row_reduce to record
        each kernel's matrix and the number of rows each reduction gets."""
        kernels, sizes = [], []
        kernel, reduce = opcore.kernel_basis, linalg.row_reduce

        def counting_kernel(matrix):
            kernels.append(matrix)
            return kernel(matrix)

        def counting_reduce(rows, width):
            sizes.append(len(rows))
            return reduce(rows, width)

        monkeypatch.setattr(opcore, "kernel_basis", counting_kernel)
        monkeypatch.setattr(linalg, "row_reduce", counting_reduce)
        return kernels, sizes

    def test_shared_fixed_space_reduces_n_rows_once(self, monkeypatch):
        """Members that fix every vector of the first member's fixed
        space cost one product per basis vector each: one kernel, one
        reduction of the n rows of I - T_1, not of all k n rows."""
        m = QMatrix(
            [
                [Fraction(1, 2), Fraction(1, 2), 0, 0],
                [Fraction(1, 3), Fraction(2, 3), 0, 0],
                [0, 0, Fraction(1, 4), Fraction(3, 4)],
                [0, 0, 1, 0],
            ]
        )
        eye = QMatrix.identity(4)
        matrices = [m, m @ m, (m + eye).scale(Fraction(1, 2))]
        expected = reference_fixed_space(matrices)
        assert expected.dim == 2
        kernels, sizes = self.count_reductions(monkeypatch)
        fam = OperatorFamily(PositiveMatrixOperator(t) for t in matrices)
        assert fam.fixed_space == expected
        assert len(kernels) == 1 and sizes == [4]

    def test_restriction_cuts_the_first_fixed_space(self, monkeypatch):
        """Fix(P x I) is two-dimensional for the swap P; I x P cuts it
        to the constants with one 2 x 2 kernel."""
        eye = QMatrix.identity(2)
        kernels, sizes = self.count_reductions(monkeypatch)
        fam = OperatorFamily(
            PositiveMatrixOperator(t) for t in (kron(SWAP, eye), kron(eye, SWAP))
        )
        assert fam.fixed_space.basis == (QVector([1, 1, 1, 1]),)
        assert [k.shape for k in kernels] == [(4, 4), (2, 2)]
        assert sizes == [4, 2]


class TestPowerBounded:
    def test_strict_contraction_yes(self):
        analysis = power_bounded_analysis(op([[rat("1/2"), 0], [0, rat("1/3")]]))
        assert analysis.verdict == "Yes"

    def test_stochastic_yes(self):
        analysis = power_bounded_analysis(
            op([[rat("1/2"), rat("1/2")], [rat("1/3"), rat("2/3")]])
        )
        assert analysis.verdict == "Yes"

    def test_spectral_radius_above_one_no(self):
        analysis = power_bounded_analysis(op([[2, 0], [0, 0]]))
        assert analysis.verdict == "No"

    def test_defective_boundary_no(self):
        # (x-1)^3 with a rank-2 fixed space: defective eigenvalue 1
        analysis = power_bounded_analysis(
            op([[1, 0, 0], [1, 1, 1], [0, 0, 1]])
        )
        assert analysis.verdict == "No"
        assert analysis.offending_factor == QPolynomial([-1, 1])

    def test_rotation_yes(self):
        analysis = power_bounded_analysis(op([[0, 1], [1, 0]]))
        assert analysis.verdict == "Yes"

    def test_seventeen_cycle_yes(self):
        # chi = x^17 - 1: its degree exceeds the degree-16 factorization
        # bound, which the Perron-root and cyclotomic route never meets
        rows = [[int(j == (i + 1) % 17) for j in range(17)] for i in range(17)]
        analysis = power_bounded_analysis(op(rows))
        assert analysis.verdict == "Yes"
        assert analysis.offending_factor is None

    def test_coupled_swaps_defective_at_one(self):
        # chi = (x - 1)^2 (x + 1)^2 with both eigenvalues defective; the
        # offending factor is the smaller one, x - 1
        analysis = power_bounded_analysis(
            op([[0, 1, 1, 0], [1, 0, 0, 1], [0, 0, 0, 1], [0, 0, 1, 0]])
        )
        assert analysis.verdict == "No"
        assert analysis.offending_factor == QPolynomial([-1, 1])
        assert analysis.reason == "a repeated boundary factor is defective"

    def test_random_substochastic_always_yes(self):
        rng = rng_for("pb-substoch")
        for _ in range(40):
            t = PositiveMatrixOperator(random_substochastic(rng, rng.randint(1, 6)))
            assert power_bounded_analysis(t).verdict == "Yes"

    def test_matches_numpy_power_growth(self):
        cases = [
            ([[1, 0, 0], [1, 1, 1], [0, 0, 1]], "No"),
            ([[rat("1/2"), rat("1/2")], [rat("1/3"), rat("2/3")]], "Yes"),
            ([[0, 1], [1, 0]], "Yes"),
        ]
        for rows, verdict in cases:
            m = QMatrix(rows)
            assert power_bounded_analysis(PositiveMatrixOperator(m)).verdict == verdict
            a = to_numpy(m)
            norms = [np.abs(np.linalg.matrix_power(a, k)).sum() for k in (8, 32, 64)]
            if verdict == "Yes":
                assert norms[-1] <= norms[0] * 1.01 + 10
            else:
                assert norms[-1] > norms[0] * 2


class TestPerronRoot:
    """`power_bounded_analysis` on every side of spectral radius 1, with
    numpy's spectral radius as the oracle for the side."""

    @pytest.mark.parametrize(
        "scale, side",
        [(1, 0), (rat("1/2"), -1), (rat("3/2"), 1), (rat("101/100"), 1)],
    )
    def test_matches_numpy_spectral_radius(self, scale, side):
        expected = {
            1: ("No", "a root lies outside the unit disk"),
            0: ("Yes", "boundary roots all semisimple"),
            -1: ("Yes", "all roots strictly inside"),
        }[side]
        rng = rng_for(f"perron-root-{scale}")
        for _ in range(20):
            m = random_row_stochastic(rng, rng.randint(1, 6)).scale(scale)
            a = to_numpy(m)
            rho = max(abs(np.linalg.eigvals(a)))
            numpy_side = 0 if abs(rho - 1) < 1e-6 else (1 if rho > 1 else -1)
            assert numpy_side == side
            if side == 0:  # a stochastic matrix: its powers stay stochastic
                assert np.abs(np.linalg.matrix_power(a, 64)).sum(axis=1).max() < 1.01
            analysis = power_bounded_analysis(PositiveMatrixOperator(m))
            assert (analysis.verdict, analysis.reason) == expected
            assert analysis.offending_factor is None

    def test_nilpotent_and_defective(self):
        nilpotent = power_bounded_analysis(op([[0, 1], [0, 0]]))
        assert (nilpotent.verdict, nilpotent.reason) == (
            "Yes", "all roots strictly inside"
        )
        jordan = power_bounded_analysis(op([[1, 1], [0, 1]]))
        assert (jordan.verdict, jordan.offending_factor, jordan.reason) == (
            "No", cyclotomic(1), "a repeated boundary factor is defective"
        )


def reference_cyclotomic_content(t, chi):
    """Rational trial division by every cyclotomic, and the kernel of
    each dividing cyclotomic at the matrix, whatever its multiplicity."""
    rest = chi
    geometric, algebraic = {}, {}
    for order in orders_with_phi_at_most(t.dim):
        phi = euler_phi(order)
        if phi > rest.degree:
            continue
        phi_n = cyclotomic(order)
        quotient, remainder = rest.divmod(phi_n)
        while remainder.is_zero():
            rest = quotient
            algebraic[order] = algebraic.get(order, 0) + 1
            quotient, remainder = rest.divmod(phi_n)
        if order in algebraic:
            kernel_dim = t.dim - rank(poly_of_matrix(phi_n, t.matrix))
            geometric[order] = kernel_dim // phi
    return geometric, algebraic, rest


def cyclotomic_content_cases():
    rng = rng_for("cyclotomic-content")
    cases = [random_substochastic(rng, rng.randint(1, 8)) for _ in range(134)]
    for _ in range(35):
        filler = random_substochastic(rng, rng.randint(1, 3))
        cases.append(block_diag(cycle_matrix(rng.randint(2, 6)), filler))
    for k in range(1, 7):
        cases.append(block_diag(cycle_matrix(k), cycle_matrix(k)))
        cases.append(
            block_diag(cycle_matrix(k), cycle_matrix(k), random_substochastic(rng, 2))
        )
    for j, k in [(2, 4), (3, 6), (2, 3), (2, 6), (4, 4), (1, 5), (2, 2)]:
        cases.append(block_diag(cycle_matrix(j), cycle_matrix(k)))
        cases.append(
            block_diag(cycle_matrix(j), random_substochastic(rng, 1), cycle_matrix(k))
        )
    cases += [
        QMatrix([[1, 1], [0, 1]]),
        QMatrix([[1, 0, 0], [1, 1, 1], [0, 0, 1]]),
        QMatrix([[0, 1, 1, 0], [1, 0, 0, 1], [0, 0, 0, 1], [0, 0, 1, 0]]),
        cycle_matrix(17),
        cycle_matrix(24),
    ]
    return cases


class TestCyclotomicContent:
    def test_matches_reference_on_every_order(self):
        cases = cyclotomic_content_cases()
        assert len(cases) >= 200
        repeated = defective = 0
        for m in cases:
            t = PositiveMatrixOperator(m)
            chi = char_poly(m)
            geometric, algebraic, rest = reference_cyclotomic_content(t, chi)
            assert cyclotomic_division(chi) == (algebraic, rest)
            report = verify_dimension_cyclicity(t)
            assert report.orders == tuple(sorted(geometric.items()))
            assert report.algebraic_orders == tuple(sorted(algebraic.items()))
            assert report.non_cyclotomic_boundary == has_unimodular_root(rest)
            repeated += any(mult > 1 for mult in algebraic.values())
            defective += geometric != algebraic
        assert repeated >= 20
        assert defective >= 3

    def test_forced_multiplicities_skip_the_matrix(self, monkeypatch):
        calls = []

        def counting(poly, matrix):
            calls.append(poly)
            return poly_of_matrix(poly, matrix)

        monkeypatch.setattr(cyclicity, "poly_of_matrix", counting)
        t = PositiveMatrixOperator(cycle_matrix(24))
        analysis = power_bounded_analysis(t)
        assert (analysis.verdict, analysis.offending_factor) == ("Yes", None)
        report = verify_dimension_cyclicity(t)
        assert report.orders == report.algebraic_orders
        assert calls == []
        report = verify_dimension_cyclicity(
            PositiveMatrixOperator(block_diag(cycle_matrix(2), cycle_matrix(2)))
        )
        assert report.orders == report.algebraic_orders == ((1, 2), (2, 2))
        assert calls == [cyclotomic(1), cyclotomic(2)]


def reference_power_bounded(geometric, algebraic):
    """Verdict, offending factor and reason at spectral radius 1 from
    every dividing cyclotomic: the smallest defective one offends."""
    defective = [cyclotomic(n) for n, mult in algebraic.items() if geometric[n] < mult]
    if defective:
        worst = min(defective, key=lambda f: (f.degree, f.coeffs))
        return "No", worst, "a repeated boundary factor is defective"
    return "Yes", None, "boundary roots all semisimple"


def coupled_cycles(rng):
    """A nonnegative matrix with spectral radius 1: cycles of orders 1-4
    and substochastic blocks halved (spectral radius at most 1/2) on the
    diagonal of a block upper triangular matrix with random nonnegative
    couplings, conjugated by a random permutation."""
    blocks = [cycle_matrix(rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    blocks += [
        random_substochastic(rng, rng.randint(1, 2)).scale(Fraction(1, 2))
        for _ in range(rng.randint(0, 2))
    ]
    rng.shuffle(blocks)
    rows = [list(r) for r in block_diag(*blocks).rows]
    starts = [0]
    for b in blocks:
        starts.append(starts[-1] + b.nrows)
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if rng.random() < 0.6:
                for r in range(starts[i], starts[i + 1]):
                    for c in range(starts[j], starts[j + 1]):
                        if rng.random() < 0.4:
                            rows[r][c] = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return QMatrix([[rows[i][j] for j in perm] for i in perm])


@pytest.fixture(scope="module")
def spectral_radius_one_cases():
    rng = rng_for("rothblum-coupled-cycles")
    return [PositiveMatrixOperator(coupled_cycles(rng)) for _ in range(1000)]


class TestRothblumRoute:
    """At spectral radius 1 no peripheral eigenvalue has a larger index
    than 1 itself (Rothblum 1975), so `power_bounded_analysis` decides
    from the rank of M - I alone."""

    def test_matches_every_order_route(self, spectral_radius_one_cases):
        no = defective_above_one = 0
        for t in spectral_radius_one_cases:
            chi = char_poly(t.matrix)
            assert reference_perron_root_vs_one(chi) == 0
            geometric, algebraic, _ = reference_cyclotomic_content(t, chi)
            expected = reference_power_bounded(geometric, algebraic)
            analysis = power_bounded_analysis(t)
            assert (
                analysis.verdict, analysis.offending_factor, analysis.reason
            ) == expected
            no += expected[0] == "No"
            defective_above_one += any(
                geometric[n] < mult for n, mult in algebraic.items() if n > 1
            )
        assert 300 <= no <= 700
        assert defective_above_one >= 150

    def test_evaluates_no_cyclotomic_at_the_matrix(
        self, spectral_radius_one_cases, monkeypatch
    ):
        evaluated = []
        original = poly_of_matrix

        def counting(poly, matrix):
            evaluated.append(poly)
            return original(poly, matrix)

        for name, module in list(sys.modules.items()):
            if name.startswith("latfix") and getattr(
                module, "poly_of_matrix", None
            ) is original:
                monkeypatch.setattr(module, "poly_of_matrix", counting)
        verify_dimension_cyclicity(
            PositiveMatrixOperator(block_diag(cycle_matrix(2), cycle_matrix(2)))
        )
        assert evaluated  # the counter sees the cyclicity route
        evaluated.clear()
        for t in spectral_radius_one_cases:
            power_bounded_analysis(t)
        assert evaluated == []


class TestEnforcedChecks:
    def test_non_root_of_unity_boundary_raises(self, monkeypatch):
        monkeypatch.setattr(opcore, "has_unimodular_root", lambda p: True)
        with pytest.raises(TheoremViolationError, match="not a root of unity"):
            power_bounded_analysis(PositiveMatrixOperator(cycle_matrix(3)))
