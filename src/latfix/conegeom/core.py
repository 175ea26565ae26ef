"""Order geometry of subspaces of R^n.

A subspace F carries the order inherited from the coordinate lattice.
Its positive cone F `intersect` R^n_+ is polyhedral; the double
description method run in coefficient space yields the extreme rays.
The classification rests on two classical facts about finite-dimensional
ordered spaces:

* F with a closed generating cone is a vector lattice iff the cone is
  simplicial, i.e. has exactly dim F linearly independent extreme rays
  (Choquet/Yudin characterization of finite-dimensional vector lattices);
* a simplicial generating cone spans a sublattice of the coordinate
  lattice iff its extreme rays have pairwise disjoint supports, since
  disjoint supports make the coordinatewise modulus internal, and in a
  sublattice the coordinatewise meet of distinct extreme rays must
  vanish.

Double description decides ray adjacency from the tight sets it holds;
coordinates in F are read off the pivots of its RREF basis.

Least upper bounds inside F are found by exact coordinatewise
minimization over the upper-bound set (a rational LP per coordinate);
the assembled minimum is returned only when it itself lies in F, which
certifies it as the least element.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from ..exactnum import TheoremViolationError
from ..exactnum.linalg import invert, rank, row_space_basis, rref
from ..exactnum.rational import ONE, ZERO, QMatrix, QVector, rat
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, minimize

SIGN_ORACLE_DIM_BOUND = 12


class Verdict(str, Enum):
    NOT_LATTICE_SUBSPACE = "NotLatticeSubspace"
    LATTICE_SUBSPACE_ONLY = "LatticeSubspaceOnly"
    SUBLATTICE = "Sublattice"


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^n with an RREF-canonical basis.  The RREF
    form is load-bearing: coefficients_of reads each coefficient at its
    basis vector's pivot, so a basis given directly must be in RREF."""

    ambient_dim: int
    basis: tuple[QVector, ...]

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[QVector]) -> "Subspace":
        vecs = list(vectors)
        for v in vecs:
            if v.dim != ambient_dim:
                raise ValueError("spanning vector has wrong dimension")
        if not vecs:
            return Subspace(ambient_dim, ())
        return Subspace(ambient_dim, row_space_basis(QMatrix(vecs)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def coefficients_of(self, v: QVector) -> QVector | None:
        """Coefficients of v in the basis, or None when v is outside."""
        if v.dim != self.ambient_dim:
            raise ValueError("vector dimension mismatch")
        c = QVector(v[next(j for j, x in enumerate(b) if x)] for b in self.basis)
        return c if self.from_coefficients(c) == v else None

    def contains(self, v: QVector) -> bool:
        return self.coefficients_of(v) is not None

    def from_coefficients(self, c: QVector) -> QVector:
        out = QVector.zero(self.ambient_dim)
        for ci, b in zip(c, self.basis):
            out = out + b.scale(ci)
        return out

    def coordinate_rows(self) -> tuple[QVector, ...]:
        """Row j maps coefficients c to the j-th ambient coordinate of
        the spanned vector."""
        return tuple(
            QVector(b[j] for b in self.basis) for j in range(self.ambient_dim)
        )


@dataclass(frozen=True)
class PolyhedralCone:
    ambient: Subspace
    rays: tuple[QVector, ...]


@dataclass(frozen=True)
class LatticeClassification:
    verdict: Verdict
    cone_generating: bool
    cone_simplicial: bool
    rays_support_disjoint: bool


# ---------------------------------------------------------------------------
# double description


def _primitive_ray(v: QVector) -> QVector:
    """v scaled to coprime integers by a positive factor (primitive()
    alone fixes the leading sign, which can reverse a ray)."""
    p = v.primitive()
    return p if p.dot(v) > 0 else -p


def extreme_rays_of_inequality_cone(
    rows: Sequence[QVector],
) -> tuple[QVector, ...]:
    """Extreme rays of {c : row . c >= 0 for every row}.

    The rows must span the dual space, which makes the cone pointed; the
    rays come back as coprime integer vectors, lexicographically sorted.
    Inequalities are inserted in index order after the first d
    independent rows (the pivots of one rref of their transpose), and two
    rays are adjacent when no other ray's tight set contains their common
    tight set (Fukuda and Prodon, 1996), so the output is deterministic.
    """
    rows = [QVector(tuple(r)) for r in rows]
    if not rows:
        raise ValueError("no inequality rows")
    d = rows[0].dim
    if any(r.dim != d for r in rows):
        raise ValueError("inequality rows of mixed dimension")
    chosen = rref(QMatrix(rows).transpose())[1]
    if len(chosen) != d:
        raise ValueError("inequality rows do not span; cone is not pointed")
    base = QMatrix([rows[i] for i in chosen])
    inverse = invert(base)
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


def positive_cone(subspace: Subspace) -> PolyhedralCone:
    """Extreme rays of {x in F : x >= 0}, via double description on the
    coefficient cone and mapped back to ambient coordinates.  The zero
    subspace has no rays."""
    if subspace.is_zero():
        return PolyhedralCone(subspace, ())
    coeff_rays = extreme_rays_of_inequality_cone(subspace.coordinate_rows())
    ambient_rays = sorted(
        (subspace.from_coefficients(c).primitive() for c in coeff_rays),
        key=tuple,
    )
    return PolyhedralCone(subspace, tuple(ambient_rays))


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


# ---------------------------------------------------------------------------
# classification


def classify_subspace(subspace: Subspace) -> LatticeClassification:
    """Lattice classification of F under the inherited coordinate order.

    The zero subspace is vacuously closed under the modulus and is
    classified as a sublattice with all flags true.
    """
    if subspace.is_zero():
        return LatticeClassification(Verdict.SUBLATTICE, True, True, True)
    d = subspace.dim
    rays = positive_cone(subspace).rays
    generating = bool(rays) and rank(QMatrix(rays)) == d
    simplicial = len(rays) == d and generating
    disjoint = all(
        not (rays[i].support() & rays[j].support())
        for i in range(len(rays))
        for j in range(i + 1, len(rays))
    )
    if not (generating and simplicial):
        verdict = Verdict.NOT_LATTICE_SUBSPACE
    elif disjoint:
        verdict = Verdict.SUBLATTICE
    else:
        verdict = Verdict.LATTICE_SUBSPACE_ONLY
    return LatticeClassification(verdict, generating, simplicial, disjoint)


# ---------------------------------------------------------------------------
# least upper bounds within a subspace


def least_element_above(subspace: Subspace, bound: QVector) -> QVector | None:
    """The least element of {z in F : z >= bound}, or None.

    Each ambient coordinate of z is minimized by an exact simplex run
    over the coefficient space; the assembled coordinatewise minimum is
    the least element precisely when it lies in F itself, which is
    checked exactly.
    """
    n = subspace.ambient_dim
    if bound.dim != n:
        raise ValueError("bound dimension mismatch")
    if subspace.is_zero():
        return QVector.zero(n) if all(b <= 0 for b in bound) else None
    coord_rows = subspace.coordinate_rows()
    constraints = [(coord_rows[j], bound[j]) for j in range(n)]
    minima: list[Fraction] = []
    for j in range(n):
        result = minimize(coord_rows[j], inequalities=constraints)
        if result.status == INFEASIBLE:
            return None
        if result.status == UNBOUNDED:
            raise TheoremViolationError(
                "upper-bound set unbounded below; order structure violated"
            )
        minima.append(result.value)
    candidate = QVector(minima)
    if not subspace.contains(candidate):
        return None
    return candidate


def least_upper_bound_in(
    subspace: Subspace, vectors: Sequence[QVector]
) -> QVector | None:
    """The least element of {z in F : z >= g for all g}, or None.

    Every input must lie in F; z >= g for all g collapses to a single
    coordinatewise bound.
    """
    if not vectors:
        raise ValueError("empty vector collection")
    for g in vectors:
        if not subspace.contains(g):
            raise ValueError("vector outside the subspace")
    n = subspace.ambient_dim
    bound = QVector(max(g[j] for g in vectors) for j in range(n))
    return least_element_above(subspace, bound)


def modulus_in(subspace: Subspace, x: QVector) -> QVector | None:
    """Least upper bound of {x, -x} within F; requires x in F."""
    return least_upper_bound_in(subspace, [x, -x])


# ---------------------------------------------------------------------------
# sign-pattern oracle and AM property


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
    rays = positive_cone(subspace).rays
    rng = random.Random(seed)
    for _ in range(trials):
        x = QVector.zero(subspace.ambient_dim)
        y = QVector.zero(subspace.ambient_dim)
        for r in rays:
            x = x + r.scale(Fraction(rng.randint(0, 8), rng.randint(1, 4)))
            y = y + r.scale(Fraction(rng.randint(0, 8), rng.randint(1, 4)))
        z = least_upper_bound_in(subspace, [x, y])
        if z is None:
            return False
        if z.sup_norm() != max(x.sup_norm(), y.sup_norm()):
            return False
    return True
