"""Root-of-unity spectra, the eigenspace dimension estimate, semigroup
generators, and the randomized prober.

Multiplicity counts are cross-checked against numpy eigenvalues.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from latfix.cyclicity import (
    PROBE_STRUCTURAL_NOTE,
    algebraic_root_of_unity_spectrum,
    is_metzler,
    log_norm_sup,
    non_cyclotomic_boundary,
    probe_random_contractions,
    random_positive_contraction,
    root_of_unity_spectrum,
    semigroup_imaginary_check,
    verify_dimension_cyclicity,
    write_probe_log,
)
from latfix.exactnum.linalg import char_poly
from latfix.exactnum.polynomials import (
    QPolynomial,
    cyclotomic_order,
    euler_phi,
    has_unimodular_root,
    unit_circle_root_count,
)
from latfix.exactnum.rational import QMatrix, rat
from latfix.opcore import PositiveMatrixOperator

from conftest import (
    block_diag,
    cycle_matrix,
    random_substochastic,
    rng_for,
    to_numpy,
)


class TestRootOfUnitySpectrum:
    def test_two_cycles(self):
        op = PositiveMatrixOperator(block_diag(cycle_matrix(6), cycle_matrix(2)))
        assert root_of_unity_spectrum(op) == [(1, 2), (2, 2), (3, 1), (6, 1)]
        assert algebraic_root_of_unity_spectrum(op) == [(1, 2), (2, 2), (3, 1), (6, 1)]

    def test_planted_four_cycle(self):
        half = rat("1/2")
        op = PositiveMatrixOperator(
            block_diag(cycle_matrix(4), QMatrix([[half, 0], [0, half]]))
        )
        assert root_of_unity_spectrum(op) == [(1, 1), (2, 1), (4, 1)]

    def test_geometric_versus_algebraic_on_defective_matrix(self):
        op = PositiveMatrixOperator(QMatrix([[1, 0, 0], [1, 1, 1], [0, 0, 1]]))
        assert root_of_unity_spectrum(op) == [(1, 2)]
        assert algebraic_root_of_unity_spectrum(op) == [(1, 3)]

    def test_counts_match_numpy(self):
        rng = rng_for("cyclicity-numpy")
        for _ in range(20):
            dim = rng.randint(2, 5)
            op = PositiveMatrixOperator(random_substochastic(rng, dim))
            orders = root_of_unity_spectrum(op)
            eigen = np.linalg.eigvals(to_numpy(op.matrix))
            unimodular = [z for z in eigen if abs(abs(z) - 1) < 1e-8]
            assert len(unimodular) == sum(m * euler_phi(n) for n, m in orders)
            for n, m in orders:
                primitive = [
                    np.exp(2j * np.pi * k / n)
                    for k in range(n)
                    if math.gcd(k, n) == 1
                ]
                for target in primitive:
                    assert sum(1 for z in eigen if abs(z - target) < 1e-8) == m


class TestDimensionEstimate:
    def test_permutation_passes(self):
        op = PositiveMatrixOperator(block_diag(cycle_matrix(6), cycle_matrix(2)))
        report = verify_dimension_cyclicity(op)
        assert report.verdict == "Pass"
        assert not report.non_cyclotomic_boundary
        assert report.estimates
        for e in report.estimates:
            assert e.reduced_order == e.order // math.gcd(e.order, e.k)
            assert e.holds
            assert e.mult_at_reduced >= e.mult_at_order

    def test_non_contraction_inapplicable(self):
        op = PositiveMatrixOperator(QMatrix([[1, 0, 0], [1, 1, 1], [0, 0, 1]]))
        report = verify_dimension_cyclicity(op)
        assert report.verdict == "Inapplicable"
        assert report.orders == ((1, 2),)
        assert report.algebraic_orders == ((1, 3),)

    def test_random_contractions_pass(self):
        rng = rng_for("cyclicity-pass")
        for _ in range(25):
            dim = rng.randint(1, 5)
            op = PositiveMatrixOperator(random_substochastic(rng, dim))
            report = verify_dimension_cyclicity(op)
            assert report.verdict == "Pass"
            assert not report.non_cyclotomic_boundary


class TestNonCyclotomicBoundary:
    def test_permutation_boundary_is_cyclotomic(self):
        op = PositiveMatrixOperator(cycle_matrix(5))
        assert not non_cyclotomic_boundary(op)

    def test_strict_contraction_has_empty_boundary(self):
        op = PositiveMatrixOperator(QMatrix([[rat("1/2"), 0], [0, rat("1/3")]]))
        assert not non_cyclotomic_boundary(op)

    def test_unimodular_pair_outside_roots_of_unity(self):
        # designed so the characteristic polynomial is
        # (x - 2)(x^2 - x/2 + 1): the quadratic's roots lie on the unit
        # circle with real part 1/4, hence are not roots of unity
        m = QMatrix(
            [
                [rat("5/6"), rat("161/108"), rat("1/12")],
                [0, rat("5/6"), 1],
                [1, 0, rat("5/6")],
            ]
        )
        op = PositiveMatrixOperator(m)
        assert non_cyclotomic_boundary(op)
        report = verify_dimension_cyclicity(op)
        assert report.verdict == "Inapplicable"
        assert report.orders == ()

    def test_salem_polynomial_straddles_the_circle(self):
        # x^4 - x^3 - x^2 - x + 1 is irreducible with a real root > 1,
        # its inverse, and one unimodular pair that is not a root of unity
        salem = QPolynomial([1, -1, -1, -1, 1])
        assert unit_circle_root_count(salem).mixed
        assert has_unimodular_root(salem)
        assert has_unimodular_root(salem * QPolynomial([-1, 0, 3]))
        assert not has_unimodular_root(QPolynomial([2, -5, 2]))

    def test_matches_factoring_reference(self):
        """The trial-division decision agrees with the earlier
        factorization-based one wherever that one applies (degree at
        most 16)."""

        def factoring_reference(op):
            boundary = unit_circle_root_count(char_poly(op.matrix))
            if boundary.count_on_circle == 0:
                return False
            if boundary.mixed:
                return True
            return any(
                cyclotomic_order(f) is None
                for f, _ in boundary.boundary_factors
            )

        third = rat("1/3")
        # characteristic polynomial (x - 2)(x^2 - x/2 + 1)
        off_roots = QMatrix(
            [
                [rat("5/6"), rat("161/108"), rat("1/12")],
                [0, rat("5/6"), 1],
                [1, 0, rat("5/6")],
            ]
        )
        rng = rng_for("cyclicity-boundary-reference")
        cases = [
            random_substochastic(rng, rng.randint(1, 6)) for _ in range(25)
        ]
        for _ in range(15):
            k = rng.randint(2, 8)
            blocks = [cycle_matrix(k)]
            if rng.random() < 0.5:
                blocks.append(off_roots)
            if rng.random() < 0.5:
                blocks.append(random_substochastic(rng, rng.randint(1, 3)))
            if rng.random() < 0.3:
                blocks.append(QMatrix([[third, 1], [1, third]]))
            cases.append(block_diag(*blocks))
        cases += [cycle_matrix(16), block_diag(cycle_matrix(13), off_roots)]
        seen = set()
        for m in cases:
            assert m.nrows <= 16
            op = PositiveMatrixOperator(m)
            expected = factoring_reference(op)
            assert non_cyclotomic_boundary(op) == expected
            assert verify_dimension_cyclicity(op).non_cyclotomic_boundary == (
                expected
            )
            seen.add(expected)
        assert seen == {True, False}


class TestSemigroup:
    def test_diffusion_generator(self):
        report = semigroup_imaginary_check(QMatrix([[-2, 1], [1, -2]]))
        assert report.verdict == "Pass"
        assert report.metzler
        assert report.log_norm_sup == Fraction(-1)
        assert report.nonzero_imaginary_pairs == 0
        assert report.imaginary_eigenvalues == "no purely imaginary eigenvalues"

    def test_expansive_metzler_inapplicable(self):
        report = semigroup_imaginary_check(QMatrix([[0, 1], [1, 0]]))
        assert report.verdict == "Inapplicable"
        assert report.metzler
        assert report.log_norm_sup == Fraction(1)

    def test_rotation_generator(self):
        report = semigroup_imaginary_check(QMatrix([[0, 1], [-1, 0]]))
        assert report.verdict == "Inapplicable"
        assert not report.metzler
        assert report.nonzero_imaginary_pairs == 1
        assert "1 conjugate pair(s)" in report.imaginary_eigenvalues

    def test_zero_generator(self):
        report = semigroup_imaginary_check(QMatrix([[0, 0], [0, 0]]))
        assert report.verdict == "Pass"
        assert report.nonzero_imaginary_pairs == 0
        assert report.imaginary_eigenvalues == (
            "eigenvalue 0 only on the imaginary axis"
        )

    def test_two_rotation_blocks(self):
        m = block_diag(QMatrix([[0, 1], [-1, 0]]), QMatrix([[0, 2], [-2, 0]]))
        assert semigroup_imaginary_check(m).nonzero_imaginary_pairs == 2

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            semigroup_imaginary_check(QMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_log_norm_mixed_signs(self):
        m = QMatrix([[-3, 2, -1], [0, 1, 1], [1, -1, -5]])
        assert log_norm_sup(m) == Fraction(2)
        assert not is_metzler(m)

    def test_metzler_flags(self):
        assert is_metzler(QMatrix([[-1, 0], [3, -2]]))
        assert not is_metzler(QMatrix([[1, -1], [0, 1]]))

    def test_random_dissipative_metzler(self):
        rng = rng_for("semigroup-metzler")
        for _ in range(15):
            dim = rng.randint(1, 5)
            rows = []
            for i in range(dim):
                row = [Fraction(rng.randint(0, 4)) for _ in range(dim)]
                slack = Fraction(rng.randint(1, 3))
                row[i] = -sum(row[j] for j in range(dim) if j != i) - slack
                rows.append(row)
            m = QMatrix(rows)
            report = semigroup_imaginary_check(m)
            assert report.verdict == "Pass"
            assert report.log_norm_sup <= -1
            eigen = np.linalg.eigvals(to_numpy(m))
            assert not any(
                abs(z.real) < 1e-9 and abs(z.imag) > 1e-9 for z in eigen
            )


class TestProbe:
    def test_deterministic(self):
        first = probe_random_contractions(trials=10, dim_max=4, seed=7)
        second = probe_random_contractions(trials=10, dim_max=4, seed=7)
        assert first == second
        assert first.violations == 0
        assert len(first.records) == 10
        for record in first.records:
            assert record.verdict == "Pass"
            assert not record.non_cyclotomic_boundary
            assert 1 <= record.dim <= 4

    def test_random_matrices_are_contractions(self):
        rng = rng_for("probe-matrix")
        for _ in range(10):
            m = random_positive_contraction(rng, rng.randint(1, 5))
            for row in m.rows:
                assert all(a >= 0 for a in row)
                assert sum(row) <= 1

    def test_log_format(self, tmp_path):
        path = tmp_path / "probe.jsonl"
        summary = probe_random_contractions(
            trials=5, dim_max=3, seed=11, out_path=str(path)
        )
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 6
        header = json.loads(lines[0])
        assert header == {
            "trials": 5,
            "dim_max": 3,
            "seed": 11,
            "violations": 0,
            "reason": PROBE_STRUCTURAL_NOTE,
        }
        for line, record in zip(lines[1:], summary.records):
            payload = json.loads(line)
            assert payload["trial"] == record.trial
            assert payload["dim"] == record.dim
            assert payload["verdict"] == record.verdict
            assert payload["orders"] == [list(pair) for pair in record.orders]
            assert payload["non_cyclotomic_boundary"] is (
                record.non_cyclotomic_boundary
            )

    def test_rewrite_matches(self, tmp_path):
        summary = probe_random_contractions(trials=3, dim_max=3, seed=5)
        path = tmp_path / "again.jsonl"
        write_probe_log(summary, str(path))
        direct = probe_random_contractions(
            trials=3, dim_max=3, seed=5, out_path=str(tmp_path / "direct.jsonl")
        )
        assert summary == direct
        assert path.read_text() == (tmp_path / "direct.jsonl").read_text()

    def test_validation(self):
        with pytest.raises(ValueError):
            probe_random_contractions(trials=0)
        with pytest.raises(ValueError):
            probe_random_contractions(trials=1, dim_max=0)
