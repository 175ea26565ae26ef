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

Least upper bounds inside a lattice subspace F are read off its extreme
rays: the cone is simplicial, so in the ray basis the order of F is
coordinatewise (Abramovich, Aliprantis and Polyrakis 1994; Polyrakis
1996) and a supremum is the coordinatewise maximum of ray coordinates.
On any other subspace the least element above a bound is found by exact
coordinatewise minimization over the upper-bound set (a rational LP per
coordinate); the assembled minimum is returned only when it itself lies
in F, which certifies it as the least element.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from ..exactnum import TheoremViolationError
from ..exactnum.linalg import invert, rank, row_space_basis, rref
from ..exactnum.rational import QMatrix, QVector
from .simplex import INFEASIBLE, UNBOUNDED, minimize


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

    def __post_init__(self) -> None:
        pivots = [next((j for j, x in enumerate(b) if x), None) for b in self.basis]
        if (
            None in pivots
            or any(self.basis[i][p] != 1 for i, p in enumerate(pivots))
            or any(p >= q for p, q in zip(pivots, pivots[1:]))
            or any(
                b[p] for i, p in enumerate(pivots)
                for k, b in enumerate(self.basis) if k != i
            )
        ):
            raise ValueError("subspace basis is not in reduced row echelon form")

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
    rays: tuple[QVector, ...]


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


# ---------------------------------------------------------------------------
# classification


def classify_subspace(subspace: Subspace) -> LatticeClassification:
    """Lattice classification of F under the inherited coordinate order.

    The extreme rays of the positive cone ride along in the result.  The
    zero subspace is vacuously closed under the modulus and is
    classified as a sublattice with all flags true and no rays.
    """
    if subspace.is_zero():
        return LatticeClassification(Verdict.SUBLATTICE, True, True, True, ())
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
    return LatticeClassification(verdict, generating, simplicial, disjoint, rays)


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

    Every input must lie in F.  On a lattice subspace the d extreme rays
    r_i form a basis in which the order of F is coordinatewise, so the
    result is sum_i (max_k a_ki) r_i, where a_k are the ray coordinates
    of the k-th input: one d x d inverse, no LP, and never None.  On any
    other subspace z >= g for all g collapses to a single coordinatewise
    bound for least_element_above.
    """
    return _least_upper_bound(subspace, classify_subspace(subspace), vectors)


def _least_upper_bound(
    subspace: Subspace,
    classification: LatticeClassification,
    vectors: Sequence[QVector],
) -> QVector | None:
    """least_upper_bound_in, given the classification of the subspace."""
    if not vectors:
        raise ValueError("empty vector collection")
    coefficients = [subspace.coefficients_of(g) for g in vectors]
    if None in coefficients:
        raise ValueError("vector outside the subspace")
    if classification.verdict == Verdict.NOT_LATTICE_SUBSPACE:
        n = subspace.ambient_dim
        bound = QVector(max(g[j] for g in vectors) for j in range(n))
        return least_element_above(subspace, bound)
    rays = classification.rays
    if not rays:
        return QVector.zero(subspace.ambient_dim)
    # coefficients c = a R for the matrix R of ray coefficients, so the
    # ray coordinates are a = c R^-1
    to_rays = invert(
        QMatrix([subspace.coefficients_of(r) for r in rays])
    ).transpose()
    ray_coords = [to_rays.matvec(c) for c in coefficients]
    out = QVector.zero(subspace.ambient_dim)
    for i, r in enumerate(rays):
        out = out + r.scale(max(a[i] for a in ray_coords))
    return out


def modulus_in(subspace: Subspace, x: QVector) -> QVector | None:
    """Least upper bound of {x, -x} within F; requires x in F."""
    return least_upper_bound_in(subspace, [x, -x])
