"""Exact linear programming over the rationals.

A small two-phase simplex with Bland's rule, used to minimize linear
objectives over y >= 0 subject to rows row . y >= rhs, the one form
the least-element search needs.  `minimize(objectives, inequalities)`
takes a sequence of objectives over one feasible region and returns one
`LPResult` per objective: one phase 1 per feasible region, one phase 2
per objective, each phase 2 started from the same feasible tableau, so
a result never depends on the other objectives of the call.  The
tableau is integers over one common denominator: the `QVector`
numerators of the rows are brought to one least common
denominator, and every pivot and cost-row pricing step is the
fraction-free row step `exactnum.linalg.eliminate`, so no step pays a gcd.
Feasibility, unboundedness, and optimal values are exact `Fraction`s,
and Bland's rule guarantees termination.  Problem sizes here are tiny
(tens of variables), so a dense tableau is the right tool.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from ..exactnum import TheoremViolationError
from ..exactnum.linalg import eliminate
from ..exactnum.rational import QVector, rat
from ..exactnum.record import record

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@record
class LPResult:
    status: str
    value: Fraction | None
    point: QVector | None


def _run_simplex(
    tableau: list[list[int]],
    basis: list[int],
    eligible: Sequence[bool],
) -> str:
    """Minimize the cost carried in the last tableau row.  Bland's rule:
    smallest-index entering and leaving candidates.  The common
    denominator is read off the tableau: every basic column holds it in
    its own row."""
    m = len(tableau) - 1
    while True:
        cost = tableau[-1]
        col = next(
            (j for j in range(len(cost) - 1) if eligible[j] and cost[j] < 0),
            None,
        )
        if col is None:
            return OPTIMAL
        row = None
        # the ratios rhs / a share the denominator, so compare them by
        # cross-multiplying: rhs a_best < rhs_best a
        best_rhs = best_a = 0
        for i in range(m):
            a = tableau[i][col]
            if a > 0:
                rhs = tableau[i][-1]
                if row is None or rhs * best_a < best_rhs * a or (
                    rhs * best_a == best_rhs * a and basis[i] < basis[row]
                ):
                    best_rhs, best_a, row = rhs, a, i
        if row is None:
            return UNBOUNDED
        eliminate(tableau, row, col, tableau[row][basis[row]])
        basis[row] = col


def _price(tableau: list[list[int]], basis: list[int], prev: int) -> None:
    """Turn the integer costs c in the last row into the reduced cost
    row prev c - sum_i c_basis[i] tableau[i], one step per basic row."""
    tableau[-1] = [prev * x for x in tableau[-1]]
    for i, col in enumerate(basis):
        eliminate(tableau, i, col, prev)


def minimize(
    objectives: Sequence[QVector],
    inequalities: Sequence[tuple[QVector, Fraction]] = (),
) -> tuple[LPResult, ...]:
    """Minimize each objective . y over y >= 0 subject to row . y >= rhs
    for every inequality: one `LPResult` per objective, in order.

    The feasible region is shared, so phase 1 and the drive-out of the
    leftover artificials run once; each objective's phase 2 then runs on
    its own copy of that tableau and basis, so every result is the one a
    program with that objective alone would give.  An infeasible region
    makes every result INFEASIBLE."""
    if not objectives:
        raise ValueError("no objectives")
    n = objectives[0].dim
    rows = [(row, rat(rhs)) for row, rhs in inequalities]
    for row in [*objectives, *(row for row, _ in rows)]:
        if row.dim != n:
            raise ValueError("constraint dimension mismatch")
    m = len(rows)
    # columns: y_0..y_{n-1}, one slack per row, one artificial per row,
    # rhs; the constraint rows are scaled by the common denominator D of
    # their entries, the artificial columns are not
    n_core = n + m
    total = n_core + m
    scale = lcm(*(d for row, rhs in rows for d in (row.den, rhs.denominator)))
    tableau: list[list[int]] = []
    for i, (row, rhs) in enumerate(rows):
        sign = scale if rhs >= 0 else -scale
        factor = sign // row.den
        line = [factor * x for x in row.nums] + [0] * (2 * m + 1)
        line[n + i] = -sign
        line[n_core + i] = 1
        line[total] = sign * rhs.numerator // rhs.denominator
        tableau.append(line)
    basis = [n_core + i for i in range(m)]

    # phase 1: minimize the artificial sum
    tableau.append([0] * n_core + [1] * m + [0])
    _price(tableau, basis, 1)
    if _run_simplex(tableau, basis, [True] * total) != OPTIMAL:
        raise TheoremViolationError("phase 1 unbounded, yet bounded below by 0")
    if tableau[-1][-1] != 0:
        return (LPResult(INFEASIBLE, None, None),) * len(objectives)
    prev = tableau[0][basis[0]] if basis else 1

    # drive leftover artificials out of the basis: the slack columns give
    # the core columns full row rank, so every row has a nonzero core
    # entry, and a basic column is zero outside its own row
    for i in range(m - 1, -1, -1):
        if basis[i] >= n_core:
            col = next(j for j in range(n_core) if tableau[i][j] != 0)
            prev = eliminate(tableau, i, col, prev)
            basis[i] = col

    del tableau[-1]
    eligible = [j < n_core for j in range(total)]
    return tuple(
        _phase_two(objective, tableau, basis, prev, eligible)
        for objective in objectives
    )


def _phase_two(
    objective: QVector,
    constraints: list[list[int]],
    basis: list[int],
    prev: int,
    eligible: Sequence[bool],
) -> LPResult:
    """Phase 2 from the feasible constraint rows and basis, which it
    leaves as they are: the objective's numerators over its den, with
    only the eligible (non-artificial) columns allowed to enter.
    `eliminate` replaces rows and never writes into one, so a new list
    of the same rows is a private tableau."""
    n = objective.dim
    cost = [*objective.nums] + [0] * (len(eligible) + 1 - n)
    tableau = [*constraints, cost]
    basis = basis[:]
    _price(tableau, basis, prev)
    if _run_simplex(tableau, basis, eligible) == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    if basis:
        prev = tableau[0][basis[0]]
    values = {col: tableau[i][-1] for i, col in enumerate(basis)}
    point = QVector.from_ints((values.get(j, 0) for j in range(n)), prev)
    return LPResult(OPTIMAL, Fraction(-tableau[-1][-1], prev * objective.den), point)
