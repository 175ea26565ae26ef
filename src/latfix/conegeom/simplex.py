"""Exact linear programming over the rationals.

A small two-phase simplex with Bland's rule, used to minimize linear
objectives over y >= 0 subject to rows row . y >= rhs, the one form
the least-element search needs.  `minimize(objectives, inequalities)`
takes a sequence of objectives over one feasible region and returns one
`LPResult` per objective: one phase 1 per feasible region, one phase 2
per objective, each phase 2 started from the same feasible tableau, so
a result never depends on the other objectives of the call.

Phase 1 is the dual simplex (Lemke 1954) on the zero cost, started
from the slack basis: row i reads s_i - row_i . y = -rhs_i with s_i
basic, and every basis is dual feasible for the zero cost, so no
variable is added.  A row with a negative right-hand side leaves and a
column with a negative entry in it enters.  Every such column ties in
the dual ratio test, and Bland's rule on the dual (the smallest basic
index leaves, the smallest column enters) guarantees termination.  A
leaving row with no negative entry certifies an empty region: it reads
sum_j a_j x_j = rhs < 0 with every a_j >= 0 over x >= 0.  The tableau
is integers over one common denominator: the `QVector` numerators of
the rows are brought to one least common denominator, and every pivot
and cost-row pricing step is the fraction-free row step
`exactnum.linalg.eliminate`, so no step pays a gcd.  Feasibility,
unboundedness, and optimal values are exact `Fraction`s.  Problem
sizes here are tiny (tens of variables), so a dense tableau is the
right tool.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

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


def _run_simplex(tableau: list[list[int]], basis: list[int]) -> str:
    """Minimize the cost carried in the last tableau row.  Bland's rule:
    smallest-index entering and leaving candidates.  The common
    denominator is read off the tableau: every basic column holds it in
    its own row."""
    m = len(tableau) - 1
    while True:
        cost = tableau[-1]
        col = next((j for j in range(len(cost) - 1) if cost[j] < 0), None)
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

    The feasible region is shared, so phase 1, the dual simplex from
    the slack basis, runs once; each objective's phase 2 then runs on
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
    # columns: y_0..y_{n-1}, one slack per row, rhs; row i is
    # s_i - row_i . y = -rhs_i with row_i and rhs_i scaled by the common
    # denominator D of the rows and s_i entering as 1 (so s_i is D times
    # the surplus), the identity start that Bareiss's division needs
    scale = lcm(*(d for row, rhs in rows for d in (row.den, rhs.denominator)))
    tableau: list[list[int]] = []
    for i, (row, rhs) in enumerate(rows):
        factor = scale // row.den
        line = [-factor * x for x in row.nums] + [0] * (m + 1)
        line[n + i] = 1
        line[-1] = -scale * rhs.numerator // rhs.denominator
        tableau.append(line)
    basis = [n + i for i in range(m)]
    prev = 1

    # phase 1: the dual simplex on the zero cost, Bland's rule
    while negative := [i for i in range(m) if tableau[i][-1] < 0]:
        row = min(negative, key=basis.__getitem__)
        col = next((j for j in range(n + m) if tableau[row][j] < 0), None)
        if col is None:
            return (LPResult(INFEASIBLE, None, None),) * len(objectives)
        prev = eliminate(tableau, row, col, prev)
        basis[row] = col

    return tuple(
        _phase_two(objective, tableau, basis, prev) for objective in objectives
    )


def _phase_two(
    objective: QVector,
    constraints: list[list[int]],
    basis: list[int],
    prev: int,
) -> LPResult:
    """Phase 2 from the feasible constraint rows and basis, which it
    leaves as they are: the objective's numerators over its den.
    `eliminate` replaces rows and never writes into one, so a new list
    of the same rows is a private tableau."""
    n = objective.dim
    cost = [*objective.nums] + [0] * (len(constraints) + 1)
    tableau = [*constraints, cost]
    basis = basis[:]
    _price(tableau, basis, prev)
    if _run_simplex(tableau, basis) == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    if basis:
        prev = tableau[0][basis[0]]
    values = {col: tableau[i][-1] for i, col in enumerate(basis)}
    point = QVector.from_ints((values.get(j, 0) for j in range(n)), prev)
    return LPResult(OPTIMAL, Fraction(-tableau[-1][-1], prev * objective.den), point)
