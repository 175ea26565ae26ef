"""Test-only cone oracles: conic-hull membership, the exhaustive
sign-pattern sublattice decision, the randomized AM-property check, a
reference ray-basis supremum, a reference double description, a
reference least element and a reference simplex.

The first three decide by exact linear programs over free variables
through `minimize_free`, a test-only adapter to
`latfix.conegeom.minimize` (which takes y >= 0 and >= rows only): it
writes y = u - w and each equality as two >= rows.  That is a route
independent of the double description and the suprema they are used
to check.  The reference ray-basis supremum is the earlier route of
`least_upper_bound_in` (coordinatewise maxima of ray coordinates,
through a `Fraction` Gauss-Jordan inverse), which the positive
projection must match.  The reference double description is an
independent `Fraction` route to the rays of
`extreme_rays_of_inequality_cone` and `positive_cone`: it runs in
coefficient space on rows that must span, starting from a
Gauss-Jordan inverse, recomputes every tight set from dot products and
maps rays back through `Subspace.from_coefficients`, so the integer
version, which runs on the subspace's own vectors, can be compared
with it exactly.  The reference classification is the earlier route of
`classify_subspace`: those reference rays, `rank` of the rays for the
generating flag and a pairwise check of the ray supports, which the
support criteria must match.  The reference least element is the
earlier route of `least_element_above` on every subspace, one LP over
the free coefficients with the n coordinate objectives and n rows,
which the d objectives a lattice subspace now takes, and the pivot
coordinates turned into the bounds y >= 0, must match.  The reference
simplex is a `Fraction` version of `minimize` on the same y >= 0 and
>= rows form and the same pivot rules (the dual phase 1 from the slack
basis, then Bland's rule): a tableau of `Fraction`s with unscaled
slacks, reduced by unit-pivot Gauss-Jordan steps, which the integer
tableau must match exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import sub
from typing import Sequence

from latfix.conegeom import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LatticeClassification,
    LPResult,
    Subspace,
    Verdict,
    classify_subspace,
    least_upper_bound_in,
    minimize,
)
from latfix.exactnum.linalg import rank, rref
from latfix.exactnum import TheoremViolationError
from latfix.exactnum.rational import ONE, ZERO, QMatrix, QVector, rat

SIGN_ORACLE_DIM_BOUND = 12


def minimize_free(
    objectives: Sequence[QVector],
    equalities: Sequence[tuple[QVector, Fraction]] = (),
    inequalities: Sequence[tuple[QVector, Fraction]] = (),
) -> tuple[LPResult, ...]:
    """`minimize` over free y subject to row . y == rhs for equalities
    and row . y >= rhs for inequalities: y = u - w with u, w >= 0, and
    each equality as the two rows row . y >= rhs and -row . y >= -rhs.
    Each optimal point comes back as u - w."""

    def split(row: QVector) -> QVector:
        return QVector.from_ints([*row.nums, *(-x for x in row.nums)], row.den)

    rows = [(split(row), rhs) for row, rhs in inequalities]
    for row, rhs in equalities:
        rows += [(split(row), rhs), (split(-row), -rat(rhs))]
    results = minimize([split(c) for c in objectives], inequalities=rows)
    n = objectives[0].dim
    free = []
    for r in results:
        if r.point is not None:
            u, w = r.point.nums[:n], r.point.nums[n:]
            point = QVector.from_ints(map(sub, u, w), r.point.den)
            r = LPResult(r.status, r.value, point)
        free.append(r)
    return tuple(free)


def in_conic_hull(rays: Sequence[QVector], x: QVector) -> bool:
    """Exact membership of x in the conic hull of the rays."""
    if not rays:
        return x.is_zero()
    n = x.dim
    k = len(rays)
    zero_obj = QVector.zero(k)
    eqs = [
        (QVector(r[j] for r in rays), x[j])
        for j in range(n)
    ]
    ineqs = [(QVector.unit(k, i), ZERO) for i in range(k)]
    (result,) = minimize_free([zero_obj], equalities=eqs, inequalities=ineqs)
    return result.status == OPTIMAL


def sign_pattern_sublattice_oracle(subspace: Subspace) -> bool:
    """Direct decision of the sublattice property by sign-cell analysis.

    F is closed under the coordinatewise modulus iff for every sign
    pattern sigma whose cell {v in F : sigma_j v_j >= 0} has full
    dimension in F, the reflection diag(sigma) maps F into F.  Cells of
    lower dimension are limits of full-dimensional ones, so they impose
    no extra condition.  Exhaustive over 2^(n-1) patterns (sigma and
    -sigma give the same condition), hence the ambient bound.
    """
    n = subspace.ambient_dim
    if n > SIGN_ORACLE_DIM_BOUND:
        raise ValueError(
            f"ambient dimension {n} exceeds the oracle bound"
            f" {SIGN_ORACLE_DIM_BOUND}"
        )
    if subspace.is_zero():
        return True
    d = subspace.dim
    coord_rows = subspace.coordinate_rows
    nonzero = [j for j in range(n) if not coord_rows[j].is_zero()]
    for bits in range(1 << (n - 1)):
        sigma = [1] + [1 if (bits >> i) & 1 == 0 else -1 for i in range(n - 1)]
        # full-dimensional cell <=> some c satisfies all constraints strictly
        obj = QVector([ZERO] * d + [-ONE])
        ineqs = [
            (
                QVector(tuple(coord_rows[j].scale(sigma[j])) + (-ONE,)),
                ZERO,
            )
            for j in nonzero
        ]
        ineqs.append((QVector([ZERO] * d + [-ONE]), -ONE))  # t <= 1
        (result,) = minimize_free([obj], inequalities=ineqs)
        if result.status != OPTIMAL or result.value >= 0:
            continue
        reflected_ok = all(
            subspace.contains(QVector(sigma[j] * b[j] for j in range(n)))
            for b in subspace.basis
        )
        if not reflected_ok:
            return False
    return True


def reference_inverse(matrix: QMatrix) -> QMatrix:
    """Inverse of a square matrix by Gauss-Jordan on [M | I] with
    `Fraction` entries and unit pivots; ValueError when M is singular."""
    n = matrix.nrows
    rows = [
        list(r) + [Fraction(int(i == j)) for j in range(n)]
        for i, r in enumerate(matrix.rows)
    ]
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            raise ValueError("matrix is singular")
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for i in range(n):
            f = rows[i][c]
            if i != c and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return QMatrix(row[n:] for row in rows)


def reference_ray_supremum(
    subspace: Subspace, vectors: Sequence[QVector]
) -> QVector:
    """Supremum within a lattice subspace F read off its extreme rays,
    the earlier route of `least_upper_bound_in`: the cone is simplicial,
    so in the ray basis the order of F is coordinatewise and the
    supremum is sum_i (max_k a_ki) r_i, a_k the ray coordinates of the
    k-th input, found through the inverse of the ray coefficients."""
    classification = classify_subspace(subspace)
    if classification.verdict == Verdict.NOT_LATTICE_SUBSPACE:
        raise ValueError("ray supremum needs a lattice subspace")
    coefficients = [subspace.coefficients_of(g) for g in vectors]
    if None in coefficients:
        raise ValueError("vector outside the subspace")
    rays = classification.rays
    if not rays:
        return QVector.zero(subspace.ambient_dim)
    # c = a R for the matrix R of ray coefficients, so a = (R^-1)^T c
    to_rays = reference_inverse(
        QMatrix([subspace.coefficients_of(r) for r in rays])
    ).transpose()
    maxima = to_rays.matvec(coefficients[0])
    for c in coefficients[1:]:
        maxima = maxima.cwise_max(to_rays.matvec(c))
    return QMatrix(rays).transpose().matvec(maxima)


def reference_least_element_above(
    subspace: Subspace, bound: QVector
) -> QVector | None:
    """The least element of {z in F : z >= bound}, or None, by the
    earlier route of `least_element_above` on every subspace: one
    `minimize_free` call over the free coefficients, with the n
    coordinate rows both as objectives and as the n rows z_j >= bound_j
    (no pivot coordinate becomes a bound), the coordinatewise minimum
    returned when it lies in F."""
    n = subspace.ambient_dim
    if bound.dim != n:
        raise ValueError("bound dimension mismatch")
    if subspace.is_zero():
        return QVector.zero(n) if all(b <= 0 for b in bound.nums) else None
    coord_rows = subspace.coordinate_rows
    constraints = [(coord_rows[j], bound[j]) for j in range(n)]
    results = minimize_free(coord_rows, inequalities=constraints)
    if results[0].status == INFEASIBLE:
        return None
    if any(result.status == UNBOUNDED for result in results):
        raise TheoremViolationError(
            "upper-bound set unbounded below; order structure violated"
        )
    candidate = QVector([result.value for result in results])
    return candidate if subspace.contains(candidate) else None


def am_property_check(subspace: Subspace, trials: int, seed: int) -> bool:
    """Randomized sup-norm AM-property check on the positive cone of F:
    the least upper bound within F of positive x, y must carry norm
    max(sup-norm x, sup-norm y).  Requires F to be a lattice subspace."""
    classification = classify_subspace(subspace)
    if classification.verdict == Verdict.NOT_LATTICE_SUBSPACE:
        raise ValueError("AM check needs a lattice subspace")
    rng = random.Random(seed)
    for _ in range(trials):
        x = QVector.zero(subspace.ambient_dim)
        y = QVector.zero(subspace.ambient_dim)
        for r in classification.rays:
            x = x + r.scale(Fraction(rng.randint(0, 8), rng.randint(1, 4)))
            y = y + r.scale(Fraction(rng.randint(0, 8), rng.randint(1, 4)))
        z = least_upper_bound_in(subspace, [x, y])
        if z is None:
            return False
        if z.sup_norm() != max(x.sup_norm(), y.sup_norm()):
            return False
    return True


def primitive(v: QVector) -> QVector:
    """v scaled to coprime integer entries with positive leading sign;
    the zero vector is returned unchanged."""
    if v.is_zero():
        return v
    scale = lcm(*(e.denominator for e in v))
    ints = [int(e * scale) for e in v]
    g = gcd(*ints)
    lead = next(x for x in ints if x != 0)
    return QVector(x // g if lead > 0 else -x // g for x in ints)


def _primitive_ray(v: QVector) -> QVector:
    """v scaled to coprime integers by a positive factor (primitive()
    alone fixes the leading sign, which can reverse a ray)."""
    p = primitive(v)
    return p if p.dot(v) > 0 else -p


def reference_extreme_rays(rows: Sequence[QVector]) -> tuple[QVector, ...]:
    """Extreme rays of {c : row . c >= 0 for every row} by double
    description on `Fraction`s, with every tight set recomputed from dot
    products at each insertion.  The rows must span, which makes the
    cone pointed; ValueError otherwise.  Rays come back as coprime
    integer vectors, lexicographically sorted."""
    rows = [QVector(tuple(r)) for r in rows]
    if not rows:
        raise ValueError("no inequality rows")
    d = rows[0].dim
    if any(r.dim != d for r in rows):
        raise ValueError("inequality rows of mixed dimension")
    chosen = rref(QMatrix(rows).transpose())[1]
    if len(chosen) != d:
        raise ValueError("inequality rows do not span; cone is not pointed")
    inverse = reference_inverse(QMatrix([rows[i] for i in chosen]))
    rays = [
        _primitive_ray(QVector(inverse.entry(i, k) for i in range(d)))
        for k in range(d)
    ]
    processed = list(chosen)
    for j, row in enumerate(rows):
        if j in chosen:
            continue
        values = [row.dot(r) for r in rays]
        tights = [
            frozenset(t for t in processed if rows[t].dot(r) == 0)
            for r in rays
        ]
        new_rays = [r for r, v in zip(rays, values) if v >= 0]
        pos = [i for i, v in enumerate(values) if v > 0]
        neg = [i for i, v in enumerate(values) if v < 0]
        for ip in pos:
            for im in neg:
                common = tights[ip] & tights[im]
                if len(common) < d - 2 or any(
                    k != ip and k != im and common <= tight
                    for k, tight in enumerate(tights)
                ):
                    continue
                combo = rays[im].scale(values[ip]) + rays[ip].scale(-values[im])
                new_rays.append(_primitive_ray(combo))
        processed.append(j)
        seen: set[tuple] = set()
        rays = []
        for r in new_rays:
            key = tuple(r)
            if key not in seen and not r.is_zero():
                seen.add(key)
                rays.append(r)
        if not rays:
            break
    return tuple(sorted(rays, key=tuple))


def reference_positive_cone_rays(subspace: Subspace) -> tuple[QVector, ...]:
    """Extreme rays of {x in F : x >= 0}: the reference double
    description on the coefficient cone, mapped back with
    `from_coefficients` and made primitive."""
    if subspace.is_zero():
        return ()
    coeff_rays = reference_extreme_rays(subspace.coordinate_rows)
    return tuple(
        sorted(
            (primitive(subspace.from_coefficients(c)) for c in coeff_rays),
            key=tuple,
        )
    )


def reference_classification(subspace: Subspace) -> LatticeClassification:
    """Lattice classification by the earlier route: the reference rays,
    generating when they have rank dim F, simplicial when there are also
    exactly dim F of them, disjoint when no two supports meet."""
    if subspace.is_zero():
        return LatticeClassification(Verdict.SUBLATTICE, True, True, True, ())
    d = subspace.dim
    rays = reference_positive_cone_rays(subspace)
    generating = bool(rays) and rank(QMatrix(rays)) == d
    simplicial = len(rays) == d and generating
    disjoint = all(
        not (r.support() & s.support()) for r, s in combinations(rays, 2)
    )
    if not simplicial:
        verdict = Verdict.NOT_LATTICE_SUBSPACE
    elif disjoint:
        verdict = Verdict.SUBLATTICE
    else:
        verdict = Verdict.LATTICE_SUBSPACE_ONLY
    return LatticeClassification(verdict, generating, simplicial, disjoint, rays)


def _unit_pivot(rows: list[list[Fraction]], r: int, c: int) -> None:
    """Gauss-Jordan row step on `Fraction`s, in place: scale row r to a
    unit pivot in column c, then clear column c from every other row."""
    pivot = rows[r][c]
    if pivot != 1:
        rows[r] = [x / pivot for x in rows[r]]
    pivot_row = rows[r]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f != 0:
            rows[i] = [a - f * b for a, b in zip(row, pivot_row)]


def _reference_run_simplex(tableau: list[list[Fraction]], basis: list[int]) -> str:
    """Bland's rule on the cost carried in the last tableau row."""
    m = len(tableau) - 1
    while True:
        cost = tableau[-1]
        col = next((j for j in range(len(cost) - 1) if cost[j] < 0), None)
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
        _unit_pivot(tableau, row, col)
        basis[row] = col


def reference_minimize(
    objective: QVector,
    inequalities: Sequence[tuple[QVector, Fraction]] = (),
) -> LPResult:
    """Two-phase simplex with Bland's rule on a `Fraction` tableau for one
    objective over y >= 0; the contract of `minimize([objective], ...)`,
    returning its one result.

    Phase 1 is the dual simplex on the zero cost from the slack basis,
    with no artificial variables: row i is s_i - row_i . y = -rhs_i with
    s_i basic and unscaled.  Of the rows with a negative right-hand side,
    the one whose basic column has the smallest index leaves, and the
    smallest column with a negative entry in it enters (every such
    column ties in the dual ratio test under the zero cost); Bland's rule
    on the dual ends the loop.  A leaving row with no negative entry
    reads sum_j a_j x_j = rhs < 0 with every a_j >= 0, so the region is
    empty.  Phase 2 is Bland's rule with every column eligible."""
    n = objective.dim
    rows = [(row, rat(rhs)) for row, rhs in inequalities]
    m = len(rows)
    # columns: y_0..y_{n-1}, slacks, rhs
    tableau: list[list[Fraction]] = []
    for i, (row, rhs) in enumerate(rows):
        line = [-x for x in row] + [ZERO] * (m + 1)
        line[n + i] = ONE
        line[-1] = -rhs
        tableau.append(line)
    basis = [n + i for i in range(m)]

    while True:
        negative = [i for i in range(m) if tableau[i][-1] < 0]
        if not negative:
            break
        row = min(negative, key=lambda i: basis[i])
        col = next((j for j in range(n + m) if tableau[row][j] < 0), None)
        if col is None:
            return LPResult(INFEASIBLE, None, None)
        _unit_pivot(tableau, row, col)
        basis[row] = col

    tableau.append([*objective, *[ZERO] * (m + 1)])
    for i, col in enumerate(basis):
        _unit_pivot(tableau, i, col)
    if _reference_run_simplex(tableau, basis) == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    values = {basis[i]: tableau[i][-1] for i in range(len(basis))}
    point = QVector(values.get(j, ZERO) for j in range(n))
    return LPResult(OPTIMAL, -tableau[-1][-1], point)
