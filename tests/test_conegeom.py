"""Cone geometry: extreme rays, lattice classification, least upper
bounds within a subspace.

The classifier is cross-checked against the exhaustive sign-pattern
oracle, least elements against per-coordinate scipy programs, and ray
computations against membership and independence invariants.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from latfix.conegeom.core import (
    Subspace,
    Verdict,
    classify_subspace,
    extreme_rays_of_inequality_cone,
    least_element_above,
    least_upper_bound_in,
    modulus_in,
    positive_cone,
)
from latfix.exactnum.rational import QMatrix, QVector, rat
from latfix.exactnum.linalg import kernel_basis, rank, solve

from cone_oracles import (
    SIGN_ORACLE_DIM_BOUND,
    am_property_check,
    in_conic_hull,
    sign_pattern_sublattice_oracle,
)
from conftest import bareiss_rank, random_subspace_mix, random_qvector, rng_for

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def span(ambient, *vectors):
    return Subspace.from_vectors(ambient, [QVector(v) for v in vectors])


def _det(m):
    """Laplace expansion along the first row; tiny matrices only."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def brute_force_rays(rows, d):
    """Primitive extreme rays of {c : row . c >= 0} for integer rows.

    Every extreme ray spans the common kernel of some d - 1 rows of rank
    d - 1.  That kernel is spanned by their generalized cross product
    (signed maximal minors, zero exactly when the rank is lower), and a
    direction of it is a ray when it satisfies every row.
    """
    found = set()
    for subset in combinations(rows, d - 1):
        cross = [
            (-1) ** j * _det([r[:j] + r[j + 1:] for r in subset])
            for j in range(d)
        ]
        if not any(cross):
            continue
        g = gcd(*cross)
        for sign in (1, -1):
            v = tuple(sign * x // g for x in cross)
            if all(sum(a * b for a, b in zip(r, v)) >= 0 for r in rows):
                found.add(v)
    return found


def solve_coefficients(subspace, v):
    """Coefficients of v by solving B^T c = v, the reference for the
    pivot read-off of Subspace.coefficients_of."""
    if not subspace.basis:
        return QVector(()) if v.is_zero() else None
    return solve(QMatrix(subspace.basis).transpose(), v)


class TestClassification:
    def test_full_space_is_sublattice(self):
        full = span(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        c = classify_subspace(full)
        assert c.verdict == Verdict.SUBLATTICE
        assert c.cone_generating and c.cone_simplicial and c.rays_support_disjoint

    def test_zero_subspace_is_vacuous_sublattice(self):
        c = classify_subspace(Subspace(3, ()))
        assert c.verdict == Verdict.SUBLATTICE
        assert c.cone_generating and c.cone_simplicial and c.rays_support_disjoint
        assert c.rays == ()

    def test_diagonal_is_sublattice(self):
        c = classify_subspace(span(3, (1, 1, 1)))
        assert c.verdict == Verdict.SUBLATTICE

    def test_lattice_subspace_only(self):
        # overlapping-support rays (0,1,2) and (2,1,0)
        f = span(3, (1, 1, 1), (1, 0, -1))
        c = classify_subspace(f)
        assert c.verdict == Verdict.LATTICE_SUBSPACE_ONLY
        assert c.cone_generating and c.cone_simplicial
        assert not c.rays_support_disjoint
        assert c.rays == positive_cone(f).rays == (
            QVector([0, 1, 2]),
            QVector([2, 1, 0]),
        )

    def test_not_lattice_subspace_thin_cone(self):
        # positive cone is a single ray: not generating
        f = span(3, (1, 0, -1), (0, 1, 0))
        c = classify_subspace(f)
        assert c.verdict == Verdict.NOT_LATTICE_SUBSPACE
        assert not c.cone_generating
        assert positive_cone(f).rays == (QVector([0, 1, 0]),)

    def test_not_lattice_subspace_too_many_rays(self):
        # a 3-space in R^4 whose positive cone has a square slice:
        # generating with 4 extreme rays, so not simplicial
        g = span(4, (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0))
        cg = classify_subspace(g)
        assert len(positive_cone(g).rays) == 4
        assert cg.cone_generating and not cg.cone_simplicial
        assert cg.verdict == Verdict.NOT_LATTICE_SUBSPACE

    def test_coordinate_slab_is_simplicial(self):
        f = span(4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1))
        c = classify_subspace(f)
        assert len(positive_cone(f).rays) == 3
        assert c.verdict == Verdict.SUBLATTICE


class TestExtremeRays:
    def test_orthant_rays(self):
        rows = [QVector([1, 0]), QVector([0, 1])]
        assert set(extreme_rays_of_inequality_cone(rows)) == {
            QVector([1, 0]),
            QVector([0, 1]),
        }

    def test_rejects_non_pointed(self):
        with pytest.raises(ValueError):
            extreme_rays_of_inequality_cone([QVector([1, 0])])

    def test_rays_keep_their_sign(self):
        rows = [QVector([-1, 0]), QVector([0, 1])]
        assert extreme_rays_of_inequality_cone(rows) == (
            QVector([-1, 0]),
            QVector([0, 1]),
        )

    def test_matches_brute_force_enumeration(self):
        rng = rng_for("rays-brute-force")
        cones = nontrivial = 0
        while cones < 150:
            d = rng.randint(1, 4)
            rows = [
                [rng.randint(-3, 3) for _ in range(d)]
                for _ in range(rng.randint(d, 8))
            ]
            if bareiss_rank(QMatrix(rows)) < d:
                continue
            rays = extreme_rays_of_inequality_cone([QVector(r) for r in rows])
            expected = brute_force_rays(rows, d)
            assert {tuple(int(x) for x in r) for r in rays} == expected
            assert list(rays) == sorted(rays, key=tuple)
            cones += 1
            nontrivial += bool(expected)
        assert nontrivial >= 50

    def test_zero_subspace_has_no_rays(self):
        assert positive_cone(Subspace(3, ())).rays == ()

    def test_ray_invariants_on_random_subspaces(self):
        rng = rng_for("rays")
        for index in range(40):
            f = random_subspace_mix(rng, index)
            cone = positive_cone(f)
            for r in cone.rays:
                assert f.contains(r)
                assert r.is_nonneg() and not r.is_zero()
                assert r == r.primitive()
            if cone.rays:
                # rays are conically independent: none lies in the hull
                # of the others
                for i in range(len(cone.rays)):
                    others = [r for j, r in enumerate(cone.rays) if j != i]
                    if others:
                        assert not in_conic_hull(others, cone.rays[i])

    def test_membership_via_conic_hull(self):
        rays = [QVector([0, 1, 2]), QVector([2, 1, 0])]
        assert in_conic_hull(rays, QVector([2, 2, 2]))
        assert not in_conic_hull(rays, QVector([1, 0, 0]))


class TestCoordinates:
    @given(st.integers(1, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_coefficients_match_solve(self, n, data):
        vector_st = st.lists(fractions_st, min_size=n, max_size=n).map(QVector)
        # columns zero in every spanning vector move the RREF pivots off
        # the leading positions
        dead = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
        spanning = [
            QVector(0 if j in dead else x for j, x in enumerate(v))
            for v in data.draw(st.lists(vector_st, max_size=n))
        ]
        for f in (Subspace.from_vectors(n, spanning), Subspace(n, ())):
            weights = data.draw(
                st.lists(fractions_st, min_size=f.dim, max_size=f.dim)
            )
            inside = f.from_coefficients(QVector(weights))
            for v in (inside, data.draw(vector_st), QVector.zero(n)):
                expected = solve_coefficients(f, v)
                assert f.coefficients_of(v) == expected
                assert f.contains(v) == (expected is not None)
            assert f.coefficients_of(inside) == QVector(weights)


class TestOracleAgreement:
    def test_classifier_matches_sign_oracle(self):
        rng = rng_for("oracle")
        for index in range(60):
            f = random_subspace_mix(rng, index)
            verdict = classify_subspace(f).verdict
            assert (verdict == Verdict.SUBLATTICE) == sign_pattern_sublattice_oracle(f)

    def test_oracle_dimension_bound(self):
        with pytest.raises(ValueError):
            sign_pattern_sublattice_oracle(Subspace(SIGN_ORACLE_DIM_BOUND + 1, ()))


class TestLeastElementAbove:
    def test_frozen_example(self):
        f = span(3, (1, 0, -1), (0, 1, 1))
        assert least_element_above(f, QVector([1, 0, 1])) == QVector([1, 2, 1])

    def test_infeasible_returns_none(self):
        f = span(3, (1, 0, -1), (0, 1, 0))  # z1 = -z3 forced
        assert least_element_above(f, QVector([1, 0, 1])) is None

    def test_no_least_element_returns_none(self):
        # feasible but the coordinatewise minimum leaves the subspace
        f = span(3, (1, 0, -1), (0, 1, 0))
        assert least_element_above(f, QVector([-1, 0, -1])) is None

    def test_zero_subspace(self):
        z = Subspace(2, ())
        assert least_element_above(z, QVector([-1, 0])) == QVector([0, 0])
        assert least_element_above(z, QVector([1, 0])) is None

    def test_least_property_on_random_instances(self):
        rng = rng_for("least-above")
        found = 0
        for index in range(60):
            f = random_subspace_mix(rng, index)
            bound = random_qvector(rng, f.ambient_dim, span=3, den_max=3)
            result = least_element_above(f, bound)
            if result is None:
                continue
            found += 1
            assert f.contains(result)
            assert result.ge(bound)
            # least: no feasible point goes below it in any coordinate
            # (cross-checked in floating point with scipy)
            basis = f.basis
            a_ub = []
            b_ub = []
            for j in range(f.ambient_dim):
                a_ub.append([-float(b[j]) for b in basis])
                b_ub.append(-float(bound[j]))
            for j in range(f.ambient_dim):
                ref = linprog(
                    [float(b[j]) for b in basis],
                    A_ub=np.array(a_ub),
                    b_ub=np.array(b_ub),
                    bounds=[(None, None)] * len(basis),
                    method="highs",
                )
                assert ref.status == 0
                assert ref.fun >= float(result[j]) - 1e-7
        assert found >= 10


class TestLubAndModulus:
    def test_requires_membership(self):
        f = span(3, (1, 1, 1))
        with pytest.raises(ValueError):
            least_upper_bound_in(f, [QVector([1, 0, 0])])
        with pytest.raises(ValueError):
            least_upper_bound_in(f, [])

    def test_sublattice_lub_is_pointwise_max(self):
        f = span(4, (1, 2, 0, 0), (0, 0, 3, 1))
        u = QVector([1, 2, 0, 0]) - QVector([0, 0, 3, 1])
        v = QVector([0, 0, 3, 1])
        lub = least_upper_bound_in(f, [u, v])
        assert lub == u.cwise_max(v)

    def test_modulus_frozen(self):
        f = span(3, (1, 1, 1), (1, 0, -1))
        assert modulus_in(f, QVector([1, 0, -1])) == QVector([1, 1, 1])

    def test_modulus_absent(self):
        f = span(3, (1, 0, -1), (0, 1, 0))
        assert modulus_in(f, QVector([1, 0, -1])) is None

    def test_modulus_on_sublattice_is_abs(self):
        rng = rng_for("modulus-sub")
        f = span(4, (2, 1, 0, 0), (0, 0, 1, 3))
        for _ in range(10):
            c1 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            c2 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            x = QVector([2, 1, 0, 0]).scale(c1) + QVector([0, 0, 1, 3]).scale(c2)
            assert modulus_in(f, x) == x.abs()


def _stochastic_row(rng, width):
    nums = [rng.randint(1, 5) for _ in range(width)]
    return [Fraction(a, sum(nums)) for a in nums]


def absorbing_chain_fixed_space(rng, n):
    """Fixed space of a row-stochastic matrix with k positive recurrent
    blocks and transient states that reach all of them: the absorption
    probabilities, a lattice subspace whose rays overlap on the
    transient states (a sublattice when no state is transient)."""
    k = rng.randint(1, 3)
    recurrent = rng.randint(k, n)
    cuts = sorted(rng.sample(range(1, recurrent), k - 1))
    bounds = list(zip([0] + cuts, cuts + [recurrent]))
    rows = []
    for lo, hi in bounds:
        for _ in range(lo, hi):
            rows.append([0] * lo + _stochastic_row(rng, hi - lo) + [0] * (n - hi))
    rows += [_stochastic_row(rng, n) for _ in range(recurrent, n)]
    eye = QMatrix.identity(n)
    return Subspace.from_vectors(n, kernel_basis(eye - QMatrix(rows)))


def cone_shaped_span(rng, n, kind):
    """A span in R^n shaped like the classification inputs: nonnegative
    vectors with a coordinate of their own (overlapping or disjoint
    supports elsewhere), or two mixed-sign vectors whose span holds a
    strictly positive vector, so its cone has exactly two rays."""
    if kind == "mixed":
        while True:
            v = QVector(rng.randint(-2, 2) for _ in range(n))
            if min(v) < 0 < max(v):
                break
        interior = QVector(rng.randint(1, 3) for _ in range(n))
        return Subspace.from_vectors(n, [v, interior + v])
    d = rng.randint(2, 4)
    cols = list(range(n))
    rng.shuffle(cols)
    vectors = [[0] * n for _ in range(d)]
    for i, j in enumerate(cols[:d]):
        vectors[i][j] = rng.randint(1, 4)
    for j in cols[d:]:
        if kind == "disjoint":
            vectors[rng.randrange(d)][j] = rng.randint(1, 4)
        else:
            for v in vectors:
                v[j] = rng.randint(0, 3)
    return Subspace.from_vectors(n, [QVector(v) for v in vectors])


class TestRaySuprema:
    def test_matches_least_element_above(self):
        """The ray-basis supremum equals the LP least element above the
        ambient maximum, on fixed-space and classification shapes."""
        rng = rng_for("ray-suprema")
        verdicts = []
        kinds = ("chain", "positive", "disjoint", "mixed")
        for index in range(60):
            n = rng.randint(9, 12)
            kind = kinds[index % len(kinds)]
            if kind == "chain":
                f = absorbing_chain_fixed_space(rng, n)
            else:
                f = cone_shaped_span(rng, n, kind)
            verdict = classify_subspace(f).verdict
            assert verdict != Verdict.NOT_LATTICE_SUBSPACE
            verdicts.append(verdict)
            vectors = [
                f.from_coefficients(
                    QVector(
                        Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                        for _ in range(f.dim)
                    )
                )
                for _ in range(rng.randint(2, 3))
            ]
            ambient_max = vectors[0]
            for v in vectors[1:]:
                ambient_max = ambient_max.cwise_max(v)
            lub = least_upper_bound_in(f, vectors)
            assert lub is not None
            assert lub == least_element_above(f, ambient_max)
        assert verdicts.count(Verdict.SUBLATTICE) >= 15
        assert verdicts.count(Verdict.LATTICE_SUBSPACE_ONLY) >= 30

    def test_zero_subspace(self):
        z = Subspace(3, ())
        assert least_upper_bound_in(z, [QVector.zero(3)]) == QVector.zero(3)


class TestBasisForm:
    def test_rejects_non_rref_basis(self):
        for basis in (
            [QVector([2, 0])],  # no leading 1
            [QVector([0, 1]), QVector([1, 0])],  # pivots decrease
            [QVector([1, 1]), QVector([0, 1])],  # pivot column not cleared
            [QVector([0, 0])],  # no pivot
        ):
            with pytest.raises(ValueError):
                Subspace(2, tuple(basis))


class TestAmProperty:
    def test_requires_lattice_subspace(self):
        with pytest.raises(ValueError):
            am_property_check(span(3, (1, 0, -1), (0, 1, 0)), 5, 1)

    def test_sublattice_always_passes(self):
        assert am_property_check(span(4, (1, 1, 0, 0), (0, 0, 2, 1)), 30, 7)

    def test_overlapping_rays_can_fail(self):
        # rays (1,1,0) and (0,1,1): the lub of the pair jumps to norm 2
        f = span(3, (1, 1, 0), (0, 1, 1))
        assert classify_subspace(f).verdict == Verdict.LATTICE_SUBSPACE_ONLY
        assert not am_property_check(f, 50, 3)

    def test_e42_space_has_am_property(self):
        f = span(3, (1, 1, 1), (1, 0, -1))
        assert am_property_check(f, 50, 11)
