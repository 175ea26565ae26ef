"""Exact two-phase simplex against hand-worked programs, scipy and the
earlier `Fraction` simplex, on its one form: minimize c . y over y >= 0
subject to rows row . y >= rhs.

scipy solves the same programs in floating point; statuses must agree
and optimal values must match to 1e-7, which an exact solver passes
with room to spare.  The `Fraction` simplex (tests/cone_oracles.py)
takes the same Bland path as the integer tableau, so status, value and
point must be exactly equal.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from latfix.conegeom import simplex
from latfix.conegeom.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, minimize
from latfix.exactnum.rational import QVector, rat

from cone_oracles import reference_minimize
from conftest import random_qvector, rng_for


class TestFrozenPrograms:
    def test_basic_optimum(self):
        # min x + y  s.t.  x >= 1, y >= 2
        (res,) = minimize(
            [QVector([1, 1])],
            inequalities=[
                (QVector([1, 0]), rat(1)),
                (QVector([0, 1]), rat(2)),
            ],
        )
        assert res.status == OPTIMAL
        assert res.value == 3
        assert res.point == QVector([1, 2])

    def test_equality_constraints(self):
        # min x - y  s.t.  x + y == 4 as two >= rows, x - y >= 0
        (res,) = minimize(
            [QVector([1, -1])],
            inequalities=[
                (QVector([1, 1]), rat(4)),
                (QVector([-1, -1]), rat(-4)),
                (QVector([1, -1]), rat(0)),
            ],
        )
        assert res.status == OPTIMAL
        assert res.value == 0
        assert res.point == QVector([2, 2])

    def test_infeasible(self):
        (res,) = minimize(
            [QVector([1])],
            inequalities=[
                (QVector([1]), rat(2)),
                (QVector([-1]), rat(-1)),  # x <= 1
            ],
        )
        assert res.status == INFEASIBLE
        assert res.value is None
        assert res.point is None

    def test_unbounded(self):
        (res,) = minimize([QVector([-1])], inequalities=[(QVector([1]), rat(0))])
        assert res.status == UNBOUNDED

    def test_variables_are_nonnegative(self):
        # min x  s.t.  x + y >= -3, y <= 0: over free variables the
        # optimum is -3, over y >= 0 it is 0 at the origin
        (res,) = minimize(
            [QVector([1, 0])],
            inequalities=[(QVector([1, 1]), rat(-3)), (QVector([0, -1]), rat(0))],
        )
        assert res.status == OPTIMAL
        assert res.value == 0
        assert res.point == QVector([0, 0])
        # with no rows at all, a nonnegative objective is 0 at the origin
        (res,) = minimize([QVector([2, 0])])
        assert (res.status, res.value, res.point) == (OPTIMAL, 0, QVector([0, 0]))

    def test_exact_rational_answer(self):
        # min 3x + 5y  s.t.  2x + y >= 1, x + 3y >= 1
        (res,) = minimize(
            [QVector([3, 5])],
            inequalities=[
                (QVector([2, 1]), rat(1)),
                (QVector([1, 3]), rat(1)),
            ],
        )
        assert res.status == OPTIMAL
        assert res.point == QVector([rat("2/5"), rat("1/5")])
        assert res.value == rat("11/5")

    def test_degenerate_vertex_terminates(self):
        # three planes through one vertex: Bland's rule must not cycle
        (res,) = minimize(
            [QVector([1, 1, 1])],
            inequalities=[
                (QVector([1, 0, 0]), rat(0)),
                (QVector([0, 1, 0]), rat(0)),
                (QVector([0, 0, 1]), rat(0)),
                (QVector([1, 1, 0]), rat(0)),
                (QVector([1, 1, 1]), rat(0)),
            ],
        )
        assert res.status == OPTIMAL
        assert res.value == 0


class TestAgainstScipy:
    def test_random_programs(self):
        rng = rng_for("lp-vs-scipy")
        solved = 0
        for trial in range(120):
            n = rng.randint(1, 4)
            m = rng.randint(1, 5)
            objective = random_qvector(rng, n, span=4, den_max=4)
            ineqs = [
                (random_qvector(rng, n, span=3, den_max=3), Fraction(rng.randint(-4, 4)))
                for _ in range(m)
            ]
            (res,) = minimize([objective], inequalities=ineqs)

            # scipy's linprog uses A_ub x <= b_ub; bounds=(0, None) is y >= 0
            a_ub = np.array([[-float(x) for x in row] for row, _ in ineqs])
            b_ub = np.array([-float(rhs) for _, rhs in ineqs])
            ref = linprog(
                [float(c) for c in objective],
                A_ub=a_ub,
                b_ub=b_ub,
                bounds=(0, None),
                method="highs",
            )
            if res.status == OPTIMAL:
                assert ref.status == 0, f"trial {trial}: scipy disagrees"
                assert abs(ref.fun - float(res.value)) < 1e-7
                # the exact point is feasible for every constraint
                assert res.point.is_nonneg()
                for row, rhs in ineqs:
                    assert row.dot(res.point) >= rhs
                solved += 1
            elif res.status == INFEASIBLE:
                assert ref.status == 2
            else:
                assert ref.status == 3
        assert solved >= 20  # the sample exercises the optimal branch

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minimize([QVector([1])], inequalities=[(QVector([1, 2]), rat(0))])


# coprime and mixed denominators, so the common denominator of a
# program's rows ranges from 1 to large products
denominators_st = st.sampled_from((1, 1, 2, 3, 4, 5, 6, 7, 11, 13))


@st.composite
def programs(draw):
    """Programs in 1-6 variables y >= 0 with up to 6 >= rows over mixed
    and coprime denominators, signed and zero right-hand sides.  Rows
    come repeated exactly or scaled by a positive factor, or with their
    negation (an equality as two rows), and sometimes every variable is
    boxed above: so phase 1 ends with artificials in the basis that the
    drive-out loop pivots out, on entries of either sign."""
    n = draw(st.integers(1, 6))

    def scalar(denominator=None):
        return Fraction(
            draw(st.integers(-6, 6)), denominator or draw(denominators_st)
        )

    def row():
        # a denominator of the row's own, so rows scale differently
        own = draw(denominators_st)
        return QVector(
            [scalar(draw(st.sampled_from((1, own)))) for _ in range(n)]
        )

    def rhs():
        # a zero right-hand side starts phase 1 at a degenerate vertex
        return scalar() if draw(st.booleans()) else Fraction(0)

    inequalities = [(row(), rhs()) for _ in range(draw(st.integers(0, 4)))]
    for r, b in list(inequalities):
        kind = draw(st.integers(0, 2))
        position = draw(st.integers(0, len(inequalities)))
        if kind == 1:
            k = draw(st.sampled_from((1, 2, Fraction(3, 5), Fraction(7, 2))))
            inequalities.insert(position, (r.scale(k), b * k))
        elif kind == 2:
            inequalities.insert(position, (-r, -b))
    if draw(st.booleans()):
        for j in range(n):
            inequalities.append((-QVector.unit(n, j), -1 - abs(scalar())))
    # a zero objective, or one parallel to a constraint, has many optimal
    # points, so the point returned depends on the whole pivot path
    kind = draw(st.integers(0, 3))
    if kind == 0:
        objective = QVector.zero(n)
    elif kind == 1 or not inequalities:
        objective = row()
    else:
        parallel = draw(st.sampled_from(inequalities))[0]
        objective = parallel.scale(scalar())
    return objective, inequalities


class TestAgainstFractionSimplex:
    # dropping the sign normalization of `eliminate` breaks this unbounded
    # program: the drive-out loop pivots on the -1 slack entry of the zero
    # row, and phase 2 then runs over a negative common denominator
    @example((QVector([Fraction(-3, 7)]), [(QVector([0]), 0), (QVector([1]), 0)]))
    # scaling each row by its own denominator instead of the common one
    # weights the artificials unevenly and phase 1 ends on another vertex
    @example(
        (
            QVector([0, 0, 0]),
            [
                (QVector([-1, 3, 3]), 1),
                (QVector([-1, Fraction(-3, 2), Fraction(1, 3)]), 0),
            ],
        )
    )
    @given(programs())
    @settings(max_examples=400, deadline=None)
    def test_exactly_equal(self, program):
        objective, inequalities = program
        (ours,) = minimize([objective], inequalities)
        assert ours == reference_minimize(objective, inequalities)
        if ours.status == OPTIMAL:
            assert type(ours.value) is Fraction
            assert all(type(x) is Fraction for x in ours.point)


@st.composite
def multi_objective_programs(draw):
    """A program of `programs()` with 1-6 objectives over its one
    feasible region: the program's own objective, then negations of
    earlier ones (the negation of a nonconstant bounded objective is
    often unbounded, so optimal and unbounded results share a call),
    repeats, multiples of constraint rows, zero and fresh rows."""
    objective, inequalities = draw(programs())
    n = objective.dim
    constraint_rows = [row for row, _ in inequalities]
    objectives = [objective]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            objectives.append(-draw(st.sampled_from(objectives)))
        elif kind == 1:
            objectives.append(draw(st.sampled_from(objectives)))
        elif kind == 2 and constraint_rows:
            factor = Fraction(draw(st.integers(-6, 6)), draw(denominators_st))
            objectives.append(draw(st.sampled_from(constraint_rows)).scale(factor))
        elif kind == 3:
            objectives.append(QVector.zero(n))
        else:
            objectives.append(
                QVector(
                    Fraction(draw(st.integers(-6, 6)), draw(denominators_st))
                    for _ in range(n)
                )
            )
    return objectives, inequalities


class TestSeveralObjectives:
    """`minimize` runs phase 1 once per feasible region and a phase 2
    per objective; each result must equal the `Fraction` simplex run on
    that objective alone, point included."""

    @staticmethod
    def one_at_a_time(objectives, inequalities=()):
        return tuple(
            reference_minimize(objective, inequalities)
            for objective in objectives
        )

    @given(multi_objective_programs())
    @settings(max_examples=300, deadline=None)
    def test_equals_one_program_per_objective(self, program):
        objectives, inequalities = program
        results = minimize(objectives, inequalities)
        assert type(results) is tuple
        assert results == self.one_at_a_time(objectives, inequalities)

    def test_optimal_and_unbounded_in_one_call(self):
        # x >= 0, y >= 0
        inequalities = [(QVector([1, 0]), rat(0)), (QVector([0, 1]), rat(0))]
        objectives = [
            QVector([1, 1]),
            QVector([-1, 0]),
            QVector([0, 1]),
            QVector([-1, -1]),
            QVector([1, 1]),
        ]
        results = minimize(objectives, inequalities=inequalities)
        assert [r.status for r in results] == [
            OPTIMAL, UNBOUNDED, OPTIMAL, UNBOUNDED, OPTIMAL
        ]
        assert results == self.one_at_a_time(objectives, inequalities)
        assert results[0] == results[4]

    def test_infeasible_region_fails_every_objective(self):
        # x >= 2 and x <= 1
        inequalities = [(QVector([1]), rat(2)), (QVector([-1]), rat(-1))]
        objectives = [QVector([1]), QVector([-1]), QVector([0])]
        results = minimize(objectives, inequalities=inequalities)
        assert [r.status for r in results] == [INFEASIBLE] * 3
        assert all(r.value is None and r.point is None for r in results)
        assert results == self.one_at_a_time(objectives, inequalities)

    def test_repeated_rows_keep_every_row(self, monkeypatch):
        # x + y == 4 three times over as pairs of >= rows, x - y >= 0:
        # phase 1 leaves artificials of the repeated rows basic at zero,
        # and the drive-out pivots each one out on a core column, so every
        # phase 2 starts from all seven rows with no artificial basic
        inequalities = [
            (QVector([1, 1]), rat(4)),
            (QVector([-1, -1]), rat(-4)),
            (QVector([2, 2]), rat(8)),
            (QVector([-2, -2]), rat(-8)),
            (QVector([rat("-1/2"), rat("-1/2")]), rat(-2)),
            (QVector([rat("1/2"), rat("1/2")]), rat(2)),
            (QVector([1, -1]), rat(0)),
        ]
        m = len(inequalities)
        n_core = 2 + m
        starts = []
        original = simplex._phase_two

        def recording(objective, constraints, basis, prev, eligible):
            starts.append((len(constraints), list(basis)))
            return original(objective, constraints, basis, prev, eligible)

        monkeypatch.setattr(simplex, "_phase_two", recording)
        objectives = [QVector([1, 0]), QVector([-1, 0]), QVector([1, -1])]
        results = minimize(objectives, inequalities)
        assert [r.status for r in results] == [OPTIMAL, OPTIMAL, OPTIMAL]
        assert results[0].point == QVector([2, 2])
        assert results[1].value == -4
        assert results[2].value == 0
        assert len(starts) == 3
        for rows, basis in starts:
            assert rows == m
            assert all(col < n_core for col in basis)
        assert results == self.one_at_a_time(objectives, inequalities)

    def test_six_objectives_without_constraints(self):
        # over y >= 0 with no rows, an objective with a negative entry is
        # unbounded and any other is 0 at the origin
        objectives = (
            [QVector([0, 0])] * 2 + [QVector([1, 0])] * 2 + [QVector([-1, 0])] * 2
        )
        results = minimize(objectives)
        assert [r.status for r in results] == [OPTIMAL] * 4 + [UNBOUNDED] * 2
        assert all(r.point == QVector([0, 0]) for r in results[:4])
        assert results == self.one_at_a_time(objectives)

    def test_no_objectives(self):
        with pytest.raises(ValueError):
            minimize([], inequalities=[(QVector([1]), rat(0))])
        with pytest.raises(ValueError):
            minimize(())

    def test_objective_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minimize(
                [QVector([1]), QVector([1, 0])],
                inequalities=[(QVector([1]), rat(0))],
            )
