"""Test-only cone oracles: conic-hull membership, the exhaustive
sign-pattern sublattice decision and the randomized AM-property check.

They decide by exact linear programs (`latfix.conegeom.minimize`), a
route independent of the double description and the ray-basis suprema
they are used to check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from latfix.conegeom import (
    OPTIMAL,
    Subspace,
    Verdict,
    classify_subspace,
    least_upper_bound_in,
    minimize,
)
from latfix.exactnum.rational import ONE, ZERO, QVector

SIGN_ORACLE_DIM_BOUND = 12


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
    return minimize(zero_obj, equalities=eqs, inequalities=ineqs).status == OPTIMAL


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
    coord_rows = subspace.coordinate_rows()
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
        result = minimize(obj, inequalities=ineqs)
        if result.status != OPTIMAL or result.value >= 0:
            continue
        reflected_ok = all(
            subspace.contains(QVector(sigma[j] * b[j] for j in range(n)))
            for b in subspace.basis
        )
        if not reflected_ok:
            return False
    return True


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
