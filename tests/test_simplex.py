"""Exact two-phase simplex against hand-worked programs, scipy and the
`Fraction` simplex, on its one form: minimize c . y over y >= 0
subject to rows row . y >= rhs.

scipy solves the same programs in floating point; statuses must agree
and optimal values must match to 1e-7, which an exact solver passes
with room to spare.  The `Fraction` simplex (tests/cone_oracles.py)
takes the same pivot path as the integer tableau (the dual phase 1
from the slack basis, then Bland's rule), so status, value and point
must be exactly equal.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from latfix.conegeom import simplex
from latfix.conegeom.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, minimize
from latfix.cli import gallery
from latfix.conegeom import Subspace, least_element_above
from latfix.exactnum.rational import QVector, rat

from cone_oracles import reference_minimize
from conftest import random_qvector, rng_for


def scipy_minimize(objective, inequalities):
    """scipy's status code and optimum for the program: its linprog
    takes A_ub x <= b_ub, and bounds=(0, None) is y >= 0.  HiGHS's
    presolve calls some degenerate unbounded programs infeasible (min -y3
    subject to y1 - y2 + y3 >= -1 and -y1 + y2 - y3 >= 0, which the
    origin meets), so it is off."""
    ref = linprog(
        [float(c) for c in objective],
        A_ub=[[-float(x) for x in row] for row, _ in inequalities] or None,
        b_ub=[-float(rhs) for _, rhs in inequalities] or None,
        bounds=(0, None),
        method="highs",
        options={"presolve": False},
    )
    return ref.status, ref.fun


def agrees_with_scipy(result, objective, inequalities):
    """The exact result has scipy's status (0 optimal, 2 infeasible,
    3 unbounded), its optimum to 1e-7, and an exact feasible point."""
    status, fun = scipy_minimize(objective, inequalities)
    if result.status == INFEASIBLE:
        return status == 2
    if result.status == UNBOUNDED:
        return status == 3
    return (
        status == 0
        and abs(fun - float(result.value)) < 1e-7
        and result.point.is_nonneg()
        and all(row.dot(result.point) >= rhs for row, rhs in inequalities)
    )


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
            assert agrees_with_scipy(res, objective, ineqs), f"trial {trial}"
            solved += res.status == OPTIMAL
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
    boxed above: so the dual phase 1 often has several rows with a
    negative right-hand side to choose from, pivots into core and slack
    columns, and meets empty regions, where the leaving row has no
    negative entry."""
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
    # every phase 1 pivot is on a negative entry: without the sign
    # normalization of `eliminate` the common denominator stays -1 after
    # the one pivot here, the pivot row keeps its negative right-hand
    # side, and phase 1 repeats that pivot forever (TestWork fails fast)
    @example((QVector([1]), [(QVector([1]), 1)]))
    # the slack must enter as 1 over the denominator 1: entering as the
    # common denominator D = 2 over a denominator of 2 breaks Bareiss's
    # exact division, and this empty region comes out unbounded
    @example(
        (
            QVector([Fraction(-1, 2)]),
            [(QVector([Fraction(1, 2)]), 1), (QVector([0]), Fraction(1, 2))],
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
def degenerate_programs(draw):
    """1-3 objectives in 1-6 variables y >= 0 over up to 10 rows, each one
    of at most 3 base rows scaled by 1, 2, 1/2 or -1, with a right-hand
    side that is zero three times in four: many rows are parallel and
    pass through one vertex, so both phases pivot through ties."""
    n = draw(st.integers(1, 6))

    def vector():
        return QVector(
            Fraction(draw(st.integers(-4, 4)), draw(denominators_st))
            for _ in range(n)
        )

    bases = [vector() for _ in range(draw(st.integers(1, 3)))]
    inequalities = [
        (
            draw(st.sampled_from(bases)).scale(
                draw(st.sampled_from((1, 2, Fraction(1, 2), -1)))
            ),
            Fraction(draw(st.integers(-3, 3))) if draw(st.integers(0, 3)) == 0 else 0,
        )
        for _ in range(draw(st.integers(0, 10)))
    ]
    objectives = [vector() for _ in range(draw(st.integers(1, 3)))]
    return objectives, inequalities


class TestDegeneratePrograms:
    @given(degenerate_programs())
    @settings(max_examples=300, deadline=None)
    def test_against_scipy_and_the_fraction_simplex(self, program):
        objectives, inequalities = program
        results = minimize(objectives, inequalities)
        for objective, result in zip(objectives, results):
            assert result == reference_minimize(objective, inequalities)
            assert agrees_with_scipy(result, objective, inequalities)


@st.composite
def empty_regions(draw):
    """Objectives over an empty region: rows from `degenerate_programs`
    and one more, -(sum_i l_i row_i) - u >= e - sum_i l_i rhs_i for
    l, u >= 0 and e > 0.  Its sum with the l-weighted rows reads
    -u . y >= e, which no y >= 0 meets (Farkas's lemma)."""
    objectives, inequalities = draw(degenerate_programs())
    n = objectives[0].dim
    weights = [draw(st.sampled_from((0, 1, 2, Fraction(1, 3)))) for _ in inequalities]
    row = QVector(-Fraction(draw(st.integers(0, 2))) for _ in range(n))
    rhs = Fraction(draw(st.integers(1, 3)), draw(denominators_st))
    for weight, (r, b) in zip(weights, inequalities):
        row -= r.scale(weight)
        rhs -= weight * b
    position = draw(st.integers(0, len(inequalities)))
    return objectives, [*inequalities[:position], (row, rhs), *inequalities[position:]]


class TestEmptyRegions:
    # 0 . y >= 1: the leaving row s = -1 is its slack alone
    @example(([QVector([1]), QVector([-1])], [(QVector([0]), 1)]))
    # -y0 - y1 >= 1: the leaving row s + y0 + y1 = -1 has no negative entry
    @example(([QVector([1, 0]), QVector([-1, -1])], [(QVector([-1, -1]), 1)]))
    # y0 >= 2 and -y0 >= -1: after y0 enters, the second row reads
    # s0 + s1 = -1
    @example(
        (
            [QVector([1]), QVector([-1]), QVector([0])],
            [(QVector([1]), 2), (QVector([-1]), -1)],
        )
    )
    @given(empty_regions())
    @settings(max_examples=200, deadline=None)
    def test_every_objective_is_infeasible(self, program):
        objectives, inequalities = program
        results = minimize(objectives, inequalities)
        assert results == (LPResult(INFEASIBLE, None, None),) * len(objectives)
        assert reference_minimize(objectives[0], inequalities) == results[0]
        assert agrees_with_scipy(results[0], objectives[0], inequalities)


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
        # the dual phase 1 keeps the slacks of the repeated rows basic at
        # zero, so every phase 2 starts from all seven rows, each n + m + 1
        # entries wide
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
        starts = []
        original = simplex._phase_two

        def recording(objective, constraints, basis, prev):
            starts.append((len(constraints), {len(row) for row in constraints}))
            return original(objective, constraints, basis, prev)

        monkeypatch.setattr(simplex, "_phase_two", recording)
        objectives = [QVector([1, 0]), QVector([-1, 0]), QVector([1, -1])]
        results = minimize(objectives, inequalities)
        assert [r.status for r in results] == [OPTIMAL, OPTIMAL, OPTIMAL]
        assert results[0].point == QVector([2, 2])
        assert results[1].value == -4
        assert results[2].value == 0
        assert starts == [(m, {2 + m + 1})] * 3
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


class TestTableauShape:
    """Every tableau `minimize` hands to `eliminate` has n + m + 1
    columns: y, one slack per row and the right-hand side."""

    @given(multi_objective_programs())
    @settings(max_examples=200, deadline=None)
    def test_every_tableau_is_n_plus_m_plus_one_wide(self, program):
        objectives, inequalities = program
        n, m = objectives[0].dim, len(inequalities)
        shapes = set()
        original = simplex.eliminate

        def recording(rows, r, c, prev):
            shapes.add((len(rows), frozenset(map(len, rows))))
            return original(rows, r, c, prev)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simplex, "eliminate", recording)
            minimize(objectives, inequalities)
        # phase 1 steps on the m constraint rows, phase 2 adds a cost row
        width = frozenset({n + m + 1})
        assert shapes <= {(m, width), (m + 1, width)}

    def test_phase_one_pivots_on_the_constraint_rows(self, monkeypatch):
        # min x + y  s.t.  x >= 1, y >= 2: phase 1 pivots x, then y, into
        # the 2 x 5 constraint tableau; phase 2 prices its cost row and
        # stops at once
        shapes = []
        original = simplex.eliminate

        def recording(rows, r, c, prev):
            shapes.append((len(rows), {len(row) for row in rows}, c))
            return original(rows, r, c, prev)

        monkeypatch.setattr(simplex, "eliminate", recording)
        minimize(
            [QVector([1, 1])],
            inequalities=[(QVector([1, 0]), rat(1)), (QVector([0, 1]), rat(2))],
        )
        assert shapes == [(2, {5}, 0), (2, {5}, 1), (3, {5}, 0), (3, {5}, 1)]


class TestWork:
    """`eliminate` steps of two least-element searches, pinned at the
    counts of the dual phase 1.  The wrapper stops a search at its pin,
    so a phase 1 that cycles fails here instead of hanging."""

    @staticmethod
    def steps(monkeypatch, pin, search):
        calls = 0
        original = simplex.eliminate

        def counting(rows, r, c, prev):
            nonlocal calls
            calls += 1
            assert calls <= pin, f"more than {pin} eliminate steps"
            return original(rows, r, c, prev)

        monkeypatch.setattr(simplex, "eliminate", counting)
        return search()

    def test_gallery_intro_kb(self, monkeypatch):
        # F = span{(1, 0, -1), (0, 1, 1)}, a lattice subspace only, above
        # the bound (1, 0, 1): one row, two objectives
        case = self.steps(monkeypatch, 3, gallery.case_intro_kb)
        assert case["id"] == "intro-kb"

    def test_eight_dimensional_fixed_space(self, monkeypatch):
        # a fixed space of the seed-0 `fixspace` benchmark pool: two
        # stochastic blocks of R^8, above the maximum 2 b1 + 2 b2 of two
        # of its vectors, which is its own least element; six rows
        b1 = QVector([1, rat("307/411"), rat("1365/1507"), rat("131/137"), 0, 0, 0, 0])
        b2 = QVector([0, 0, 0, 0, 1, rat("291/196"), rat("689/490"), rat("2299/1960")])
        fixed = Subspace(8, (b1, b2))
        bound = b1.scale(2) + b2.scale(2)
        least = self.steps(monkeypatch, 12, lambda: least_element_above(fixed, bound))
        assert least == bound
