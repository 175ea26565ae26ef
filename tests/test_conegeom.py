"""Cone geometry: extreme rays, lattice classification, least upper
bounds within a subspace.

The classifier is cross-checked against the exhaustive sign-pattern
oracle, least elements against per-coordinate scipy programs and
exactly against the earlier n-objective route, ray computations against
membership and independence invariants, and the integer double
description exactly against the earlier Fraction one.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from latfix.conegeom import INFEASIBLE
from latfix.conegeom.core import (
    LatticeClassification,
    Subspace,
    Verdict,
    classify_subspace,
    extreme_rays_of_inequality_cone,
    least_element_above,
    least_upper_bound_in,
    modulus_in,
    positive_cone,
)
from latfix.exactnum import TheoremViolationError
from latfix.exactnum.rational import QMatrix, QVector, rat
from latfix.exactnum.linalg import kernel_basis, rank, solve

from cone_oracles import (
    SIGN_ORACLE_DIM_BOUND,
    am_property_check,
    in_conic_hull,
    minimize_free,
    primitive,
    reference_classification,
    reference_extreme_rays,
    reference_least_element_above,
    reference_least_element_by_rays,
    reference_positive_cone_rays,
    reference_ray_supremum,
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
        assert extreme_rays_of_inequality_cone(span(2, (1, 0), (0, 1))) == (
            QVector([0, 1]),
            QVector([1, 0]),
        )

    def test_rays_keep_their_sign(self):
        # the basis vector (1, 0, -1) leaves the cone at coordinate 2;
        # the new ray is its positive combination with (0, 1, 1)
        f = span(3, (1, 0, -1), (0, 1, 1))
        assert extreme_rays_of_inequality_cone(f) == (
            QVector([0, 1, 1]),
            QVector([1, 1, 0]),
        )

    def test_matches_brute_force_enumeration(self):
        """F is the column space of random integer rows R (m x d): on
        spanning R, its cone is R applied to {c : R c >= 0}."""
        rng = rng_for("rays-brute-force")
        cones = nontrivial = 0
        while cones < 150:
            d = rng.randint(1, 4)
            rows = [
                [rng.randint(-3, 3) for _ in range(d)]
                for _ in range(rng.randint(d, 8))
            ]
            matrix = QMatrix(rows)
            f = Subspace.from_vectors(len(rows), matrix.transpose().rows)
            rays = extreme_rays_of_inequality_cone(f)
            if bareiss_rank(matrix) < d:
                assert rays == reference_positive_cone_rays(f)
                continue
            expected = tuple(
                sorted(
                    (
                        primitive(matrix.matvec(QVector(c)))
                        for c in brute_force_rays(rows, d)
                    ),
                    key=tuple,
                )
            )
            assert rays == expected
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
                assert all(x.denominator == 1 for x in r)
                assert gcd(*(x.numerator for x in r)) == 1
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


@st.composite
def inequality_rows(draw):
    """Rational rows in dimension 1-6, at most 12 of them, with zero rows
    and exact or positively scaled duplicates mixed in."""
    d = draw(st.integers(1, 6))
    row_st = st.lists(fractions_st, min_size=d, max_size=d)
    rows = draw(st.lists(row_st, min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 12 - len(rows)))):
        if draw(st.booleans()):
            extra = [0] * d
        else:
            factor = draw(st.sampled_from([1, 1, Fraction(1, 3), 2]))
            extra = [factor * x for x in draw(st.sampled_from(rows))]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return [QVector(r) for r in rows]


class TestFractionReference:
    """The integer double description against the earlier Fraction one
    (tests/cone_oracles.py): the outputs must be exactly equal."""

    def test_primitive(self):
        assert primitive(QVector([rat("1/2"), rat("-3/2"), 0])) == QVector(
            [1, -3, 0]
        )
        assert primitive(QVector([rat("-1/2"), 1])) == QVector([1, -2])

    @given(inequality_rows())
    @settings(max_examples=300, deadline=None)
    def test_rays_match_reference(self, rows):
        """F is the column space of the rows R: on spanning R, its cone
        is R applied to the reference rays of {c : R c >= 0}."""
        matrix = QMatrix(rows)
        f = Subspace.from_vectors(len(rows), matrix.transpose().rows)
        if rank(matrix) < matrix.ncols:
            expected = reference_positive_cone_rays(f)
        else:
            expected = tuple(
                sorted(
                    (primitive(matrix.matvec(c)) for c in reference_extreme_rays(rows)),
                    key=tuple,
                )
            )
        assert extreme_rays_of_inequality_cone(f) == expected

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=120, deadline=None)
    def test_positive_cone_matches_reference(self, n, data):
        vector_st = st.lists(fractions_st, min_size=n, max_size=n).map(QVector)
        positive_st = st.lists(
            st.fractions(min_value=Fraction(1, 6), max_value=5, max_denominator=6),
            min_size=n,
            max_size=n,
        ).map(QVector)
        # a strictly positive spanning vector keeps the cone full
        # dimensional, so it has rays
        vectors = data.draw(st.lists(vector_st, max_size=n - 1))
        if data.draw(st.booleans()):
            vectors.append(data.draw(positive_st))
        f = Subspace.from_vectors(n, vectors)
        assert positive_cone(f).rays == reference_positive_cone_rays(f)


@st.composite
def subspaces(draw):
    """Spans in R^1-R^7 of at most n rational vectors, each of mixed sign
    or nonnegative, so every verdict is drawn."""
    n = draw(st.integers(1, 7))
    nonneg_st = st.fractions(min_value=0, max_value=5, max_denominator=6)
    vectors = [
        QVector(draw(st.lists(entry_st, min_size=n, max_size=n)))
        for entry_st in draw(
            st.lists(st.sampled_from([fractions_st, nonneg_st]), max_size=n)
        )
    ]
    return Subspace.from_vectors(n, vectors)


# Non-generating cones with at least dim F rays, which random spans
# reach in about one draw in a thousand.  The first is the square cone
# of test_not_lattice_subspace_too_many_rays beside a direction that no
# positive vector uses: 4 rays of rank 3 in a 4-space.
SQUARE_CONE_BESIDE_A_LINE = span(
    6, (1, 0, 1, 0, 0, 0), (1, 0, 0, 1, 0, 0), (0, 1, 1, 0, 0, 0), (0, 0, 0, 0, 1, -1)
)
# 5 rays of rank 3 in a 4-space of R^7
FIVE_RAYS_OF_RANK_THREE = span(
    7,
    (1, 0, 0, 0, rat("-5/4"), rat("1/2"), rat("-1/2")),
    (0, 1, 0, 0, rat("-1/2"), 1, 0),
    (0, 0, 1, 0, rat("7/6"), rat("-1/3"), 0),
    (0, 0, 0, 1, rat("2/3"), rat("2/3"), 0),
)


class TestReferenceClassification:
    """The flags read off the ray supports against the earlier route:
    `rank` of the reference rays and pairwise-disjoint supports."""

    def test_pinned_cases_are_not_generating(self):
        for f, count in ((SQUARE_CONE_BESIDE_A_LINE, 4), (FIVE_RAYS_OF_RANK_THREE, 5)):
            c = classify_subspace(f)
            assert f.dim == 4 and len(c.rays) == count
            assert not (c.cone_generating or c.cone_simplicial)
            assert c.verdict == Verdict.NOT_LATTICE_SUBSPACE

    @given(subspaces())
    @example(SQUARE_CONE_BESIDE_A_LINE)
    @example(FIVE_RAYS_OF_RANK_THREE)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, f):
        c = classify_subspace(f)
        assert c == reference_classification(f)
        assert positive_cone(f).rays == c.rays


@st.composite
def spans_with_degeneracies(draw):
    """Spans in R^1-R^7 of 1 to n rational vectors, some nonnegative and
    some of small integers (so rays often vanish where a coordinate is
    inserted), vanishing on a drawn set of dead coordinates, with
    repeated and zero spanning vectors mixed in, so d runs from 0 to n."""
    n = draw(st.integers(1, 7))
    dead = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    nonneg_st = st.fractions(min_value=0, max_value=5, max_denominator=6)
    small_st = st.integers(-1, 2)
    vectors = [
        [0 if j in dead else x for j, x in enumerate(v)]
        for v in draw(
            st.lists(
                st.one_of(
                    *(
                        st.lists(entry_st, min_size=n, max_size=n)
                        for entry_st in (fractions_st, nonneg_st, small_st)
                    )
                ),
                min_size=1,
                max_size=n,
            )
        )
    ]
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(vectors)) if draw(st.booleans()) else [0] * n
        vectors.insert(draw(st.integers(0, len(vectors))), extra)
    return Subspace.from_vectors(n, [QVector(v) for v in vectors])


class TestRaysOfTheSubspace:
    """Double description on the subspace's own vectors against the
    reference run on its coefficient cone (tests/cone_oracles.py)."""

    @given(spans_with_degeneracies())
    @example(SQUARE_CONE_BESIDE_A_LINE)
    @example(FIVE_RAYS_OF_RANK_THREE)
    @example(span(1, (rat("2/3"),)))
    @example(span(4, (1, -1, 0, 2), (0, 0, 0, 0), (1, -1, 0, 2)))
    @example(span(3, (1, 2, 0), (0, -1, 1), (2, 0, -1)))
    # (0, 0, 0, 2, 1) vanishes on coordinate 2 when it is inserted, and
    # the ray (1, 1, 0, 1, 0) needs the tight bit it gains there
    @example(span(5, (2, 0, 1, 0, -1), (0, 2, -1, 0, 0), (0, 0, 0, 2, 1)))
    @settings(max_examples=300, deadline=None)
    def test_rays_match_reference(self, f):
        assert extreme_rays_of_inequality_cone(f) == reference_positive_cone_rays(f)


class TestOneDoubleDescription:
    def test_every_reader_shares_one_run(self, monkeypatch):
        import latfix.conegeom.core as core
        import latfix.exactnum.linalg as linalg

        calls = []

        def counting(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        f = span(3, (1, 1, 1), (1, 0, -1))
        monkeypatch.setattr(
            core,
            "extreme_rays_of_inequality_cone",
            counting("dd", core.extreme_rays_of_inequality_cone),
        )
        rank = counting("rank", linalg.rank)
        for module in (linalg, core):
            if hasattr(module, "rank"):
                monkeypatch.setattr(module, "rank", rank)
        c = classify_subspace(f)
        assert positive_cone(f).rays == c.rays
        assert f.classification == c
        assert f.positive_projection.matvec(c.rays[0]) == c.rays[0]
        x = QVector([1, 0, -1])
        assert least_upper_bound_in(f, [x, -x]) == QVector([1, 1, 1])
        assert calls == ["dd"]


class TestStartWithoutRref:
    """The double-description start is the subspace's RREF basis: it
    calls neither `rref` nor `row_reduce`."""

    def test_no_rref_or_invert(self, monkeypatch):
        import latfix.conegeom.core as core
        import latfix.exactnum.linalg as linalg

        rng = rng_for("dd-start-no-rref")
        subspaces = [random_subspace_mix(rng, index) for index in range(20)]
        full = span(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        calls = {"rref": 0, "row_reduce": 0}

        def counting(name):
            original = getattr(linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            wrapped = counting(name)
            for module in (linalg, core):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        for f in subspaces:
            extreme_rays_of_inequality_cone(f)
        assert extreme_rays_of_inequality_cone(full) == tuple(reversed(full.basis))
        assert calls == {"rref": 0, "row_reduce": 0}


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

    def test_one_minimize_call_per_search(self, monkeypatch):
        """The objectives share one feasible region, so a search is one
        `minimize` call, whether the region is feasible or not: with the
        d coordinates the extreme rays own on a lattice subspace, with
        the n ambient coordinates on any other."""
        import latfix.conegeom.core as core

        original = core.minimize
        calls = []

        def counting(objectives, *args, **kwargs):
            calls.append(len(objectives))
            return original(objectives, *args, **kwargs)

        monkeypatch.setattr(core, "minimize", counting)
        f = span(3, (1, 0, -1), (0, 1, 1))
        assert f.classification.verdict == Verdict.LATTICE_SUBSPACE_ONLY
        assert f.owned_coordinates == (2, 0)
        assert least_element_above(f, QVector([1, 0, 1])) == QVector([1, 2, 1])
        assert calls == [2]
        assert least_element_above(f, QVector([0, 1, 0])) is None
        assert calls == [2, 2]
        line = span(3, (1, 0, 0))
        assert least_element_above(line, QVector([0, 1, 0])) is None  # infeasible
        assert calls == [2, 2, 1]
        f = span(3, (1, 0, -1), (0, 1, 0))
        assert f.classification.verdict == Verdict.NOT_LATTICE_SUBSPACE
        assert least_element_above(f, QVector([1, 0, 1])) is None
        assert calls == [2, 2, 1, 3]
        assert least_element_above(f, QVector([-1, 0, -1])) is None
        assert calls == [2, 2, 1, 3, 3]

    def test_lp_has_a_row_per_non_pivot_coordinate(self, monkeypatch):
        """The pivot coordinates of F are the bounds y >= 0 of the LP, so a
        d-dimensional F in R^n gives one `minimize` call with n - d rows
        over objectives of dimension d, and F = R^n gives no rows."""
        import latfix.conegeom.core as core

        original = core.minimize
        calls = []

        def recording(objectives, inequalities=()):
            calls.append((objectives, inequalities))
            return original(objectives, inequalities=inequalities)

        monkeypatch.setattr(core, "minimize", recording)
        rng = rng_for("lp-rows")
        cases = [random_subspace_mix(rng, index) for index in range(12)]
        cases += [span(3, (1, 0, -1), (0, 1, 1)), span(3, (1, 0, -1), (0, 1, 0))]
        cases += [
            Subspace.from_vectors(n, [QVector.unit(n, j) for j in range(n)])
            for n in (1, 3, 5)
        ]
        for f in cases:
            if f.is_zero():
                continue
            n, d = f.ambient_dim, f.dim
            calls.clear()
            bound = random_qvector(rng, n, span=3, den_max=3)
            least_element_above(f, bound)
            assert len(calls) == 1
            objectives, rows = calls[0]
            assert len(rows) == n - d
            assert all(c.dim == d for c in objectives)
            assert all(row.dim == d for row, _ in rows)

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


@st.composite
def lattice_spans(draw):
    """Spans in R^1-R^7 of d nonnegative rational vectors, each positive
    on a coordinate of its own where the others vanish: the cone is
    simplicial with exactly these rays, so F is a lattice subspace, a
    sublattice when the supports happen to be disjoint."""
    n = draw(st.integers(1, 7))
    d = draw(st.integers(1, min(n, 4)))
    owned = draw(st.permutations(range(n)))[:d]
    entry_st = st.sampled_from([0, 0, 1, 2, 3, Fraction(1, 2), Fraction(5, 3)])
    vectors = []
    for j in owned:
        v = [0 if k in owned else draw(entry_st) for k in range(n)]
        v[j] = draw(st.integers(1, 4))
        vectors.append(QVector(v))
    return Subspace.from_vectors(n, vectors)


@st.composite
def least_element_cases(draw):
    """(F, bound) on lattice spans and on the mixed `subspaces()`, the
    bound either arbitrary, which gives infeasible and None cases, or
    the maximum of two elements of F, or an element of F moved by a
    small vector."""
    f = draw(st.one_of(lattice_spans(), subspaces()))
    n = f.ambient_dim
    small_st = st.lists(fractions_st, min_size=n, max_size=n).map(QVector)
    kind = draw(st.sampled_from(["arbitrary", "max", "moved"]))
    if kind == "arbitrary" or f.is_zero():
        return f, draw(small_st)
    coeff_st = st.lists(fractions_st, min_size=f.dim, max_size=f.dim).map(QVector)
    x = f.from_coefficients(draw(coeff_st))
    if kind == "max":
        return f, x.cwise_max(f.from_coefficients(draw(coeff_st)))
    return f, x + draw(small_st).scale(Fraction(1, 4))


def least_or_error(f, bound, compute):
    try:
        return compute(f, bound)
    except TheoremViolationError:
        return TheoremViolationError


def feasible(f, bound):
    """Whether some z in F satisfies z >= bound."""
    rows = f.coordinate_rows
    (result,) = minimize_free(
        [QVector.zero(f.dim)], inequalities=[(r, b) for r, b in zip(rows, bound)]
    )
    return result.status != INFEASIBLE


class TestLeastElementReference:
    """The d owned-coordinate objectives on a lattice subspace against
    the earlier n-objective route and, on lattice subspaces, against the
    closed form from the extreme rays (tests/cone_oracles.py): the
    results, None included, must be exactly equal."""

    @given(least_element_cases())
    @example((span(3, (1, 0, -1), (0, 1, 1)), QVector([1, 0, 1])))
    @example((span(3, (1, 0, -1), (0, 1, 1)), QVector([0, 1, 0])))
    @example((span(3, (1, 0, 0)), QVector([0, 1, 0])))
    @example((span(3, (1, 0, -1), (0, 1, 0)), QVector([-1, 0, -1])))
    @example((Subspace(2, ()), QVector([-1, 0])))
    # F = R^n: no LP rows, every coordinate a pivot bound
    @example((span(3, (1, 0, 0), (0, 1, 0), (0, 0, 1)), QVector([-1, -2, rat("-1/2")])))
    # the bound is negative at pivot 0 and positive elsewhere
    @example((span(3, (1, 0, -1), (0, 1, 1)), QVector([-1, 2, 1])))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        f, bound = case
        result = least_or_error(f, bound, least_element_above)
        assert result == least_or_error(f, bound, reference_least_element_above)
        if f.classification.verdict != Verdict.NOT_LATTICE_SUBSPACE:
            assert result == reference_least_element_by_rays(f, bound)

    def test_matches_reference_on_every_outcome(self):
        """Seeded lattice subspaces of the fixed-space and classification
        shapes, each also beside a coordinate where F vanishes, and the
        three-verdict mix, each with an arbitrary bound and the maximum
        of two of its elements: every outcome (found, no least element,
        infeasible) is reached on lattice subspaces."""
        rng = rng_for("least-reference")
        outcomes = {"found": 0, "none": 0, "infeasible": 0}
        lattice = [f for f, _ in lattice_subspace_cases("least-reference", 30, (3, 7))]
        padded = [
            Subspace.from_vectors(f.ambient_dim + 1, [QVector([*b, 0]) for b in f.basis])
            for f in lattice
        ]
        mixed = [random_subspace_mix(rng, index) for index in range(40)]
        for f in lattice + padded + mixed:
            n = f.ambient_dim
            x, y = (
                f.from_coefficients(random_qvector(rng, f.dim, span=3, den_max=2))
                for _ in range(2)
            )
            for bound in (random_qvector(rng, n, span=3, den_max=3), x.cwise_max(y)):
                result = least_element_above(f, bound)
                assert result == reference_least_element_above(f, bound)
                if f.classification.verdict == Verdict.NOT_LATTICE_SUBSPACE:
                    continue
                assert result == reference_least_element_by_rays(f, bound)
                if result is not None:
                    outcomes["found"] += 1
                elif feasible(f, bound):
                    outcomes["none"] += 1
                else:
                    outcomes["infeasible"] += 1
        assert min(outcomes.values()) >= 5, outcomes


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


def lattice_subspace_cases(seed, count, sizes=(9, 12)):
    """(F, inputs in F) on fixed-space and classification shapes: the
    absorbing-chain fixed spaces and the cone-shaped spans, every one a
    lattice subspace, with 2 or 3 random inputs each."""
    rng = rng_for(seed)
    kinds = ("chain", "positive", "disjoint", "mixed")
    for index in range(count):
        n = rng.randint(*sizes)
        kind = kinds[index % len(kinds)]
        if kind == "chain":
            f = absorbing_chain_fixed_space(rng, n)
        else:
            f = cone_shaped_span(rng, n, kind)
        vectors = [
            f.from_coefficients(
                QVector(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    for _ in range(f.dim)
                )
            )
            for _ in range(rng.randint(2, 3))
        ]
        yield f, vectors


class TestRaySuprema:
    def test_matches_least_element_above(self):
        """The projection supremum equals the LP least element above the
        ambient maximum, on fixed-space and classification shapes."""
        verdicts = []
        for f, vectors in lattice_subspace_cases("ray-suprema", 60):
            verdict = classify_subspace(f).verdict
            assert verdict != Verdict.NOT_LATTICE_SUBSPACE
            verdicts.append(verdict)
            ambient_max = vectors[0]
            for v in vectors[1:]:
                ambient_max = ambient_max.cwise_max(v)
            lub = least_upper_bound_in(f, vectors)
            assert lub is not None
            assert lub == least_element_above(f, ambient_max)
        assert verdicts.count(Verdict.SUBLATTICE) >= 15
        assert verdicts.count(Verdict.LATTICE_SUBSPACE_ONLY) >= 30

    def test_matches_reference_ray_supremum(self):
        """The projection supremum equals the ray-basis one: maxima of
        ray coordinates through the inverse of the ray coefficients."""
        for f, vectors in lattice_subspace_cases("ray-reference", 80, (4, 10)):
            assert least_upper_bound_in(f, vectors) == reference_ray_supremum(
                f, vectors
            )
        rng = rng_for("ray-reference-mix")
        for index in range(60):
            f = random_subspace_mix(rng, index)
            if f.classification.verdict == Verdict.NOT_LATTICE_SUBSPACE:
                continue
            vectors = [
                f.from_coefficients(random_qvector(rng, f.dim)) for _ in range(3)
            ]
            assert least_upper_bound_in(f, vectors) == reference_ray_supremum(
                f, vectors
            )

    def test_positive_projection_projects_onto_f(self):
        """Q >= 0, Q Q = Q, Q b = b on the basis and every column in F,
        on sublattices and on lattice subspaces that are not."""
        verdicts = []
        for f, _ in lattice_subspace_cases("positive-projection", 60, (4, 10)):
            verdicts.append(f.classification.verdict)
            q = f.positive_projection
            assert q.shape == (f.ambient_dim, f.ambient_dim)
            assert q.is_nonneg()
            assert q @ q == q
            for b in f.basis:
                assert q @ b == b
            for column in q.transpose().rows:
                assert f.contains(column)
        assert verdicts.count(Verdict.SUBLATTICE) >= 15
        assert verdicts.count(Verdict.LATTICE_SUBSPACE_ONLY) >= 25
        assert Verdict.NOT_LATTICE_SUBSPACE not in verdicts

    def test_positive_projection_needs_a_lattice_subspace(self):
        for f in (
            span(3, (1, 0, -1), (0, 1, 0)),
            span(4, (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0)),
        ):
            assert f.classification.verdict == Verdict.NOT_LATTICE_SUBSPACE
            with pytest.raises(ValueError, match="not a lattice subspace"):
                f.positive_projection

    def test_positive_projection_enforces_owned_coordinates(self):
        """Rays that do not each own a coordinate contradict a simplicial
        cone: a defect, not a projection."""
        f = span(3, (1, 1, 0), (0, 0, 1))
        vars(f)["classification"] = LatticeClassification(
            Verdict.LATTICE_SUBSPACE_ONLY,
            True,
            True,
            False,
            (QVector([1, 1, 0]), QVector([1, 1, 1])),
        )
        with pytest.raises(TheoremViolationError, match="owns no coordinate"):
            f.positive_projection

    def test_zero_subspace(self):
        z = Subspace(3, ())
        assert least_upper_bound_in(z, [QVector.zero(3)]) == QVector.zero(3)
        assert z.positive_projection == QMatrix.zero(3, 3)


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

    def test_rejects_basis_of_wrong_length(self):
        # a ray in R^3 for a subspace of R^2; an index past a short vector
        for ambient, nums in ((2, [1, 0, 5]), (3, [1, 0])):
            with pytest.raises(ValueError, match="wrong dimension"):
                Subspace(ambient, (QVector.from_ints(nums),))


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
