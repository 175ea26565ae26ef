"""Exact linear programming over the rationals.

A small two-phase simplex with Bland's rule, used to minimize linear
objectives over systems of equality and >= constraints with free
variables.  Everything runs in Fraction arithmetic, so feasibility,
unboundedness, and optimal values are exact and Bland's rule guarantees
termination.  Problem sizes here are tiny (tens of variables), so a
dense tableau is the right tool.  Pivots and cost-row pricing are
steps of `exactnum.linalg.eliminate`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..exactnum import TheoremViolationError
from ..exactnum.linalg import eliminate
from ..exactnum.rational import ONE, ZERO, QVector, rat

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Fraction | None
    point: QVector | None


def _run_simplex(
    tableau: list[list[Fraction]],
    basis: list[int],
    eligible: Sequence[bool],
) -> str:
    """Minimize the cost carried in the last tableau row.  Bland's rule:
    smallest-index entering and leaving candidates."""
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
        best: Fraction | None = None
        for i in range(m):
            a = tableau[i][col]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[row])
                ):
                    best = ratio
                    row = i
        if row is None:
            return UNBOUNDED
        eliminate(tableau, row, col)
        basis[row] = col


def minimize(
    objective: QVector,
    equalities: Sequence[tuple[QVector, Fraction]] = (),
    inequalities: Sequence[tuple[QVector, Fraction]] = (),
) -> LPResult:
    """Minimize objective . y over free y subject to row . y == rhs for
    equalities and row . y >= rhs for inequalities."""
    n = objective.dim
    rows: list[tuple[QVector, Fraction, bool]] = []
    for row, rhs in equalities:
        rows.append((row, rat(rhs), False))
    for row, rhs in inequalities:
        rows.append((row, rat(rhs), True))
    for row, _, _ in rows:
        if row.dim != n:
            raise ValueError("constraint dimension mismatch")
    m = len(rows)
    n_slack = sum(1 for _, _, ge in rows if ge)
    # columns: u_0..u_{n-1}, w_0..w_{n-1}, slacks, artificials, rhs
    n_core = 2 * n + n_slack
    total = n_core + m
    tableau: list[list[Fraction]] = []
    slack_at = 0
    for i, (row, rhs, ge) in enumerate(rows):
        line = [ZERO] * (total + 1)
        sign = ONE if rhs >= 0 else -ONE
        for j in range(n):
            line[j] = sign * row[j]
            line[n + j] = -sign * row[j]
        if ge:
            line[2 * n + slack_at] = -sign
            slack_at += 1
        line[n_core + i] = ONE
        line[total] = sign * rhs
        tableau.append(line)
    basis = [n_core + i for i in range(m)]

    # phase 1: minimize the artificial sum
    cost = [ZERO] * (total + 1)
    for j in range(n_core, total):
        cost[j] = ONE
    tableau.append(cost)
    # each basic column holds a unit pivot and zeros in the other
    # constraint rows, so these steps only price out the cost row
    for i, col in enumerate(basis):
        eliminate(tableau, i, col)
    if _run_simplex(tableau, basis, [True] * total) != OPTIMAL:
        raise TheoremViolationError("phase 1 unbounded, yet bounded below by 0")
    if tableau[-1][-1] != 0:
        return LPResult(INFEASIBLE, None, None)

    # drive leftover artificials out of the basis, drop redundant rows
    for i in range(m - 1, -1, -1):
        if basis[i] >= n_core:
            col = next(
                (j for j in range(n_core) if tableau[i][j] != 0), None
            )
            if col is None:
                del tableau[i]
                del basis[i]
            else:
                eliminate(tableau, i, col)
                basis[i] = col

    # phase 2: original objective over u - w
    cost = [ZERO] * (total + 1)
    for j in range(n):
        cost[j] = objective[j]
        cost[n + j] = -objective[j]
    tableau[-1] = cost
    for i, col in enumerate(basis):
        eliminate(tableau, i, col)
    status = _run_simplex(tableau, basis, [j < n_core for j in range(total)])
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    values = {basis[i]: tableau[i][-1] for i in range(len(basis))}
    point = QVector(
        values.get(j, ZERO) - values.get(n + j, ZERO) for j in range(n)
    )
    return LPResult(OPTIMAL, -tableau[-1][-1], point)
