"""Acceptance gate: the eleven product criteria, one test each.

Each test states its tolerance and wall-clock budget inline.  Gallery
criteria demand byte-identical fixture reproduction plus the specific
frozen values; the suite criteria run the stated number of random
instances with fixed seeds.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from latfix.conegeom import (
    Subspace,
    Verdict,
    classify_subspace,
    least_upper_bound_in,
    modulus_in,
    positive_cone,
)
from latfix.cyclicity import (
    semigroup_imaginary_check,
    verify_dimension_cyclicity,
)
from latfix.exactnum.linalg import fix_projection
from latfix.exactnum.polynomials import euler_phi
from latfix.exactnum.rational import QMatrix, QVector
from latfix.fixlattice import (
    fixed_space_report,
    least_fixed_above,
    sup_in_fixspace,
)
from latfix.opcore import (
    ONE_NORM,
    OperatorFamily,
    PositiveMatrixOperator,
    super_fixed_check,
)
from latfix.cli import gallery

from cone_oracles import sign_pattern_sublattice_oracle
from conftest import (
    block_diag,
    cycle_matrix,
    poly_of,
    random_nonneg_poly_coeffs,
    random_qvector,
    random_row_stochastic,
    random_subspace_mix,
    random_substochastic,
    rng_for,
    to_numpy,
)


def run_case(case_id):
    match, _ = gallery.case_matches(case_id)
    assert match, f"gallery case {case_id} deviates from its fixture"
    return gallery.run_gallery(case_id)


def test_criterion_01_gallery_e41_fixed_space_and_verdict():
    start = time.monotonic()
    data = run_case("e41")
    (basis_vector,) = data["fixed_space_basis"]
    assert basis_vector["finite"] == ["1", "-1"]
    assert basis_vector["chains"] == [{"prefix": [], "tail": "0"}]
    assert basis_vector["grid_rows"] == []
    assert data["classification"]["verdict"] == "NotLatticeSubspace"
    assert data["positive_fixed_vectors_only_zero"] is True
    assert time.monotonic() - start < 1.0


def test_criterion_02_gallery_e42a_classification_and_modulus():
    start = time.monotonic()
    data = run_case("e42a")
    report = data["report"]
    fixed = Subspace.from_vectors(
        3,
        [QVector([Fraction(x) for x in row]) for row in report["fixed_space"]["basis"]],
    )
    assert fixed == Subspace.from_vectors(
        3, [QVector([1, 1, 1]), QVector([1, 0, -1])]
    )
    assert report["classification"]["verdict"] == "LatticeSubspaceOnly"
    assert report["classification"]["rays"] == [["0", "1", "2"], ["2", "1", "0"]]
    assert data["modulus_within"]["result"] == ["1", "1", "1"]
    assert time.monotonic() - start < 1.0


def test_criterion_03_gallery_e42b_two_limit_steps():
    start = time.monotonic()
    trace = run_case("e42b")["trace"]
    assert trace["outcome"] == "FixedPointReached"
    assert trace["limit_steps"] == 2
    first, second = trace["steps"]
    assert first["vector"]["finite"] == ["1", "1", "1"]
    assert [c["tail"] for c in first["vector"]["chains"]] == ["1", "0"]
    assert first["is_fixed"] is False
    assert second["vector"]["finite"] == ["1", "1", "1"]
    assert [c["tail"] for c in second["vector"]["chains"]] == ["1", "1"]
    assert second["is_fixed"] is True
    assert time.monotonic() - start < 1.0


def test_criterion_04_gallery_e43_norm_eigenspaces_divergence():
    start = time.monotonic()
    data = run_case("e43")
    assert data["operator_norm"] == "2"
    (f,) = data["eigenspace_minus_one"]
    assert f["finite"] == ["1", "-1"]
    assert data["eigenspace_plus_one"] == []
    assert data["fix_of_square"]["classification"]["verdict"] == (
        "NotLatticeSubspace"
    )
    trace = data["trace_of_square"]
    assert trace["outcome"] == "Unbounded"
    assert trace["evidence"] == ["1", "2", "4"]
    assert time.monotonic() - start < 1.0


def test_criterion_05_gallery_e44_char_poly_and_cone():
    start = time.monotonic()
    data = run_case("e44")
    assert data["char_poly"]["coeffs"] == ["-1", "3", "-3", "1"]
    assert data["power_bounded"]["verdict"] == "No"
    report = data["report"]
    assert report["classification"]["rays"] == [["0", "1", "0"]]
    assert report["classification"]["verdict"] == "NotLatticeSubspace"
    assert time.monotonic() - start < 1.0


def test_criterion_06_commuting_contraction_families():
    # 200 commuting positive sup-norm contraction families, n <= 6:
    # conformant reports, and every basis-modulus supremum preserves
    # the norm exactly
    start = time.monotonic()
    rng = rng_for("acceptance-thm31")
    nontrivial = 0
    for trial in range(200):
        n = rng.randint(2, 6)
        stochastic = trial % 4 != 3
        base = (
            random_row_stochastic(rng, n)
            if stochastic
            else random_substochastic(rng, n)
        )
        total = Fraction(1) if stochastic else Fraction(rng.randint(1, 2), 2)
        members = [
            PositiveMatrixOperator(
                poly_of(base, random_nonneg_poly_coeffs(rng, rng.randint(1, 3), total))
            )
            for _ in range(rng.randint(1, 3))
        ]
        family = OperatorFamily(members)
        report = fixed_space_report(family)
        assert report.family_valid
        assert report.theorem_conformant is True
        for check in report.norm_checks:
            assert check.equal
            assert check.fixed_norm == check.ambient_norm
        for b in report.fixed_space.basis:
            g_f, g_e = sup_in_fixspace(family, [b, -b])
            assert g_e == b.abs()
            assert g_f.ge(g_e)
            assert g_f.sup_norm() == g_e.sup_norm()
        if report.fixed_space.basis:
            nontrivial += 1
    assert nontrivial >= 100
    assert time.monotonic() - start < 60.0


def test_criterion_07_strictly_monotone_sublattices():
    # 200 column-stochastic l1-contractions: fixed spaces are
    # sublattices and moduli of fixed vectors stay fixed, exactly
    start = time.monotonic()
    rng = rng_for("acceptance-strict")
    for _ in range(200):
        n = rng.randint(2, 6)
        matrix = random_row_stochastic(rng, n).transpose()
        op = PositiveMatrixOperator(matrix, ONE_NORM)
        report = fixed_space_report(OperatorFamily([op]))
        assert report.family_valid
        assert report.fixed_space.basis
        assert report.classification.verdict == Verdict.SUBLATTICE
        assert report.theorem_conformant is True
        for _ in range(3):
            coeffs = QVector(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for _ in report.fixed_space.basis
            )
            f = report.fixed_space.from_coefficients(coeffs)
            assert op.apply(f.abs()) == f.abs()
    assert time.monotonic() - start < 60.0


def test_criterion_08_classifier_oracle_agreement():
    # 100 random subspaces (n <= 6): classifier vs sign-pattern oracle,
    # and least-upper-bound existence consistent with the verdict
    start = time.monotonic()
    rng = rng_for("acceptance-oracle")
    seen = {v: 0 for v in Verdict}
    for index in range(100):
        subspace = random_subspace_mix(rng, index)
        verdict = classify_subspace(subspace).verdict
        seen[verdict] += 1
        assert (verdict == Verdict.SUBLATTICE) == sign_pattern_sublattice_oracle(
            subspace
        )
        members = [
            subspace.from_coefficients(
                QVector(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    for _ in subspace.basis
                )
            )
            for _ in range(4)
        ]
        if verdict != Verdict.NOT_LATTICE_SUBSPACE:
            for x, y in itertools.combinations(members, 2):
                lub = least_upper_bound_in(subspace, [x, y])
                assert lub is not None
                assert lub.ge(x.cwise_max(y))
                if verdict == Verdict.SUBLATTICE:
                    assert lub == x.cwise_max(y)
        elif not subspace.is_zero():
            # the lattice failure must be witnessed by a concrete pair
            # with no least upper bound
            rays = positive_cone(subspace).rays
            ray_span = Subspace.from_vectors(subspace.ambient_dim, list(rays))
            candidates = [b for b in subspace.basis if not ray_span.contains(b)]
            candidates += [u - w for u, w in itertools.combinations(rays, 2)]
            candidates += members
            assert any(modulus_in(subspace, x) is None for x in candidates)
    assert seen[Verdict.SUBLATTICE] >= 15
    assert seen[Verdict.LATTICE_SUBSPACE_ONLY] >= 15
    assert seen[Verdict.NOT_LATTICE_SUBSPACE] >= 15
    assert time.monotonic() - start < 120.0


def test_criterion_09_dimension_estimates_and_spectra():
    # 500 positive contractions (375 random, 125 planted cyclic
    # blocks): dimension estimates all Pass, exact multiplicities match
    # numpy eigenvalues within 1e-9
    start = time.monotonic()
    rng = rng_for("acceptance-cyclicity")
    for trial in range(500):
        if trial % 4 == 3:
            k = 2 + (trial // 4) % 5
            blocks = [cycle_matrix(k)]
            if k < 6:
                blocks.append(random_substochastic(rng, rng.randint(1, 6 - k)))
            matrix = block_diag(*blocks)
        else:
            k = None
            matrix = random_substochastic(rng, rng.randint(1, 6))
        op = PositiveMatrixOperator(matrix)
        report = verify_dimension_cyclicity(op)
        assert report.verdict == "Pass"
        assert not report.non_cyclotomic_boundary
        if k is not None:
            assert any(n == k and m >= 1 for n, m in report.orders)
        eigen = np.linalg.eigvals(to_numpy(matrix))
        unimodular = sum(1 for z in eigen if abs(abs(z) - 1) < 1e-9)
        assert unimodular == sum(m * euler_phi(n) for n, m in report.orders)
        for n, m in report.orders:
            for j in range(n):
                if math.gcd(j, n) != 1:
                    continue
                target = np.exp(2j * np.pi * j / n)
                assert sum(1 for z in eigen if abs(z - target) < 1e-9) == m
    assert time.monotonic() - start < 120.0


def test_criterion_10_dissipative_metzler_generators():
    # 500 random Metzler matrices with nonpositive logarithmic sup
    # norm: no nonzero purely imaginary eigenvalues, exact check
    # cross-validated numerically at 1e-9
    start = time.monotonic()
    rng = rng_for("acceptance-metzler")
    for _ in range(500):
        dim = rng.randint(1, 6)
        den = rng.randint(1, 3)
        rows = []
        for i in range(dim):
            row = [Fraction(rng.randint(0, 4), den) for _ in range(dim)]
            slack = Fraction(rng.randint(0, 4), 2)
            row[i] = -sum(row[j] for j in range(dim) if j != i) - slack
            rows.append(row)
        matrix = QMatrix(rows)
        report = semigroup_imaginary_check(matrix)
        assert report.metzler
        assert report.log_norm_sup <= 0
        assert report.verdict == "Pass"
        assert report.nonzero_imaginary_pairs == 0
        eigen = np.linalg.eigvals(to_numpy(matrix))
        assert not any(
            abs(z.real) < 1e-9 and abs(z.imag) > 1e-9 for z in eigen
        )
    assert time.monotonic() - start < 60.0


def test_criterion_11_least_fixed_above_matches_projection():
    # 100 contractions with semisimple eigenvalue 1 and random super
    # fixed vectors: both routes to the least fixed majorant agree
    # exactly
    start = time.monotonic()
    rng = rng_for("acceptance-projection")
    sampled_super_fixed = 0
    for trial in range(100):
        if trial % 2:
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
            blocks = [random_row_stochastic(rng, size) for size in sizes]
            matrix = block_diag(*blocks)
        else:
            matrix = random_row_stochastic(rng, rng.randint(2, 6))
        op = PositiveMatrixOperator(matrix)
        family = OperatorFamily([op])
        projection = fix_projection(matrix)
        fixed_basis = [
            projection @ random_qvector(rng, matrix.nrows, span=3, den_max=2)
            for _ in range(2)
        ]
        g = fixed_basis[0].cwise_max(fixed_basis[1])
        assert super_fixed_check(op, g)
        assert least_fixed_above(family, g) == projection @ g
        for _ in range(20):
            candidate = random_qvector(rng, matrix.nrows, span=2, den_max=2)
            if super_fixed_check(op, candidate):
                sampled_super_fixed += 1
                assert least_fixed_above(family, candidate) == (
                    projection @ candidate
                )
                break
    assert sampled_super_fixed >= 10
    assert time.monotonic() - start < 30.0
