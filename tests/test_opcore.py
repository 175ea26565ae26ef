"""Positive operators: norms, families, power boundedness.

Operator norms are verified by exhibiting attaining vectors; power
boundedness against the growth of floating-point powers; the cyclotomic
content against a reference that evaluates every dividing cyclotomic at
the matrix.
"""

from fractions import Fraction

import numpy as np
import pytest

from latfix import opcore
from latfix.exactnum import TheoremViolationError
from latfix.exactnum.linalg import char_poly, poly_of_matrix, rank
from latfix.exactnum.polynomials import (
    QPolynomial,
    cyclotomic,
    euler_phi,
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
    cyclotomic_content,
    operator_norm,
    perron_root_vs_one,
    power_bounded_analysis,
    super_fixed_check,
    vector_norm,
    weighted_one_norm,
)

from conftest import (
    block_diag,
    cycle_matrix,
    random_row_stochastic,
    random_substochastic,
    rng_for,
    to_numpy,
)


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
        with pytest.raises(ValueError):
            OperatorFamily(
                [
                    PositiveMatrixOperator(eye, SUP_NORM),
                    PositiveMatrixOperator(eye, ONE_NORM),
                ]
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            OperatorFamily([])

    def test_accepts_powers(self):
        m = QMatrix([[rat("1/2"), rat("1/2")], [rat("1/4"), rat("1/2")]])
        fam = OperatorFamily(
            [PositiveMatrixOperator(m), PositiveMatrixOperator(m @ m)]
        )
        assert fam.dim == 2
        assert fam.norm_tag == SUP_NORM


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
    @pytest.mark.parametrize(
        "scale, side", [(1, 0), (rat("1/2"), -1), (rat("3/2"), 1)]
    )
    def test_matches_numpy_spectral_radius(self, scale, side):
        rng = rng_for(f"perron-root-{scale}")
        for _ in range(20):
            m = random_row_stochastic(rng, rng.randint(1, 6)).scale(scale)
            rho = max(abs(np.linalg.eigvals(to_numpy(m))))
            numpy_side = 0 if abs(rho - 1) < 1e-6 else (1 if rho > 1 else -1)
            assert numpy_side == side
            assert perron_root_vs_one(char_poly(m)) == side

    def test_nilpotent_and_defective(self):
        assert perron_root_vs_one(char_poly(QMatrix([[0, 1], [0, 0]]))) == -1
        assert perron_root_vs_one(char_poly(QMatrix([[1, 1], [0, 1]]))) == 0


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
            got = cyclotomic_content(t, chi)
            assert got == reference_cyclotomic_content(t, chi)
            geometric, algebraic, _ = got
            repeated += any(mult > 1 for mult in algebraic.values())
            defective += geometric != algebraic
        assert repeated >= 20
        assert defective >= 3

    def test_forced_multiplicities_skip_the_matrix(self, monkeypatch):
        calls = []

        def counting(poly, matrix):
            calls.append(poly)
            return poly_of_matrix(poly, matrix)

        monkeypatch.setattr(opcore, "poly_of_matrix", counting)
        analysis = power_bounded_analysis(PositiveMatrixOperator(cycle_matrix(24)))
        assert (analysis.verdict, analysis.offending_factor) == ("Yes", None)
        assert calls == []
        geometric, algebraic, _ = cyclotomic_content(
            PositiveMatrixOperator(block_diag(cycle_matrix(2), cycle_matrix(2))),
            QPolynomial([1, 0, -2, 0, 1]),
        )
        assert geometric == algebraic == {1: 2, 2: 2}
        assert calls == [cyclotomic(1), cyclotomic(2)]


class TestEnforcedChecks:
    def test_non_root_of_unity_boundary_raises(self, monkeypatch):
        monkeypatch.setattr(opcore, "has_unimodular_root", lambda p: True)
        with pytest.raises(TheoremViolationError, match="not a root of unity"):
            power_bounded_analysis(PositiveMatrixOperator(cycle_matrix(3)))
