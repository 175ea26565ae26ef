"""Order geometry of subspaces of R^n.

A subspace F carries the order inherited from the coordinate lattice.
Its positive cone F `intersect` R^n_+ is polyhedral; the double
description method run on the vectors of F yields the extreme rays.
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

A `Subspace` carries its cone: its cached `classification` runs double
description once and holds the extreme rays, which `positive_cone` and
`classify_subspace` read.  The flags come off the ray supports:

* the cone C is generating iff the ray supports cover the basis
  supports: the sum of the rays is then positive wherever F is nonzero,
  an interior point, and every b in F = C - C has support inside them;
* the rays have pairwise disjoint supports iff their support sizes add
  up to the size of their union: a shared coordinate counts twice.

Everything here reads the integer numerators of the `QVector`s.  Double
description runs on plain ints in R^n: the RREF basis, each vector
made primitive, is the start, and the inequalities x_j >= 0 are the
coordinates themselves, so a ray's value on one is its entry and no
product is taken.  Each ray is kept as a primitive integer vector, and
its tight set is a bitmask inherited from the parent rays, never
recomputed.  Ray adjacency is the combinatorial test of Fukuda and
Prodon (1996) on those bitmasks.  Coordinates in F are read off the
pivots of its RREF basis, found once per subspace.

A lattice subspace F is the range of a positive projection Q (Ando
1969; Abramovich, Aliprantis and Polyrakis 1994), built once per
subspace from its extreme rays, and a supremum in F is Q applied to the
coordinatewise maximum m of the inputs: Qm lies in F and dominates
Qx = x for every input x, and any upper bound z in F satisfies z >= m,
so z = Qz >= Qm.
The least element above a bound that need not lie in F (a supremum,
on any other subspace) is found by exact minimization over the
upper-bound set: one rational LP call, so one phase 1 per feasible
region and one phase 2 per objective.  Its variables are y >= 0, the
coefficients of z in F less the bound at the pivots, so the pivots are
bounds and only the n - d other coordinates are >= rows.  On a lattice
subspace the objectives are the d coordinates that the extreme rays
own, and Q applied to their minima is the only candidate; on any other
subspace they are the n ambient coordinates, and the assembled minimum
is returned only when it itself lies in F, which certifies it as the
least element.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from enum import Enum
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm

from ..exactnum import TheoremViolationError
from ..exactnum.linalg import row_space_basis
from ..exactnum.rational import QMatrix, QVector
from ..exactnum.record import record
from .simplex import INFEASIBLE, UNBOUNDED, minimize


class Verdict(str, Enum):
    NOT_LATTICE_SUBSPACE = "NotLatticeSubspace"
    LATTICE_SUBSPACE_ONLY = "LatticeSubspaceOnly"
    SUBLATTICE = "Sublattice"


@record
class Subspace:
    """A linear subspace of R^n with an RREF-canonical basis of vectors in
    R^ambient_dim.  The RREF form is load-bearing: coefficients_of reads
    each coefficient at its basis vector's pivot, so a basis given
    directly must be in RREF.  The pivots are found once, on
    construction; the subspace carries its positive cone and lattice
    classification, computed once, which `positive_cone` and
    `classify_subspace` read."""

    ambient_dim: int
    basis: tuple[QVector, ...]

    def __post_init__(self) -> None:
        if any(b.dim != self.ambient_dim for b in self.basis):
            raise ValueError("subspace basis vector has wrong dimension")
        pivots = tuple(
            next((j for j, x in enumerate(b.nums) if x), None) for b in self.basis
        )
        if (
            None in pivots
            or any(b.nums[p] != b.den for b, p in zip(self.basis, pivots))
            or any(p >= q for p, q in zip(pivots, pivots[1:]))
            or any(
                b.nums[p] for i, p in enumerate(pivots)
                for k, b in enumerate(self.basis) if k != i
            )
        ):
            raise ValueError("subspace basis is not in reduced row echelon form")
        object.__setattr__(self, "pivots", pivots)

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
        c = QVector.from_ints([v.nums[p] for p in self.pivots], v.den)
        return c if self.from_coefficients(c) == v else None

    def contains(self, v: QVector) -> bool:
        return self.coefficients_of(v) is not None

    def from_coefficients(self, c: QVector) -> QVector:
        """sum_i c_i b_i, over c.den times the common denominator d of
        the basis: one integer combination of the basis numerators."""
        d = lcm(*(b.den for b in self.basis))
        out = [0] * self.ambient_dim
        for x, b in zip(c.nums, self.basis):
            if x:
                x *= d // b.den
                out = [o + x * y for o, y in zip(out, b.nums)]
        return QVector.from_ints(out, c.den * d)

    @cached_property
    def coordinate_rows(self) -> tuple[QVector, ...]:
        """Row j maps coefficients c to the j-th ambient coordinate of
        the spanned vector; computed once per subspace."""
        a, d = QMatrix(self.basis).int_rows()
        return tuple(
            QVector.from_ints([row[j] for row in a], d)
            for j in range(self.ambient_dim)
        )

    @cached_property
    def classification(self) -> LatticeClassification:
        """Lattice classification under the inherited coordinate order,
        carrying the extreme rays of the positive cone, found by one
        double description on the subspace's own vectors.  The zero
        subspace is a vacuous sublattice with all flags true and no
        rays."""
        rays = extreme_rays_of_inequality_cone(self)
        supports = [r.support() for r in rays]
        covered = frozenset().union(*supports)
        generating = covered == frozenset().union(*(b.support() for b in self.basis))
        simplicial = generating and len(rays) == self.dim
        disjoint = sum(map(len, supports)) == len(covered)
        if not simplicial:
            verdict = Verdict.NOT_LATTICE_SUBSPACE
        elif disjoint:
            verdict = Verdict.SUBLATTICE
        else:
            verdict = Verdict.LATTICE_SUBSPACE_ONLY
        return LatticeClassification(verdict, generating, simplicial, disjoint, rays)

    @cached_property
    def owned_coordinates(self) -> tuple[int, ...]:
        """On a lattice subspace, one coordinate per extreme ray, in ray
        order: the first coordinate j on which the ray r is nonzero and
        every other ray is zero, so r's coordinate in F is x_j / r_j.
        Such a j exists: the cone is simplicial, so the facet spanned by
        the other rays is a face of F meet R^n_+, cut out by the
        coordinates that vanish on it, and r is nonzero on one of them.
        Raises ValueError on a subspace that is not a lattice subspace."""
        if self.classification.verdict == Verdict.NOT_LATTICE_SUBSPACE:
            raise ValueError("not a lattice subspace: no positive projection")
        rays = self.classification.rays
        owners = [sum(1 for r in rays if r.nums[j]) for j in range(self.ambient_dim)]
        owned = []
        for r in rays:
            j = next((j for j, x in enumerate(r.nums) if x and owners[j] == 1), None)
            if j is None:
                raise TheoremViolationError("an extreme ray owns no coordinate")
            owned.append(j)
        return tuple(owned)

    @cached_property
    def positive_projection(self) -> QMatrix:
        """On a lattice subspace, a positive projection Q onto it:
        Q = sum_r r e_j^T / r_j over the extreme rays r, j the coordinate
        r owns (`owned_coordinates`).  Then Q >= 0, its columns lie in F
        and Q r = r for every ray.  Its rows are integers over one
        denominator, the lcm D of the owned entries r_j: column j is
        r (D / r_j).  Raises ValueError on a subspace that is not a
        lattice subspace."""
        n = self.ambient_dim
        owned = list(zip(self.owned_coordinates, self.classification.rays))
        den = lcm(*(r.nums[j] for j, r in owned))
        columns = [(0,) * n] * n
        for j, r in owned:
            columns[j] = [x * (den // r.nums[j]) for x in r.nums]
        return QMatrix(QVector.from_ints(row, den) for row in zip(*columns))


@record
class PolyhedralCone:
    ambient: Subspace
    rays: tuple[QVector, ...]


@record
class LatticeClassification:
    verdict: Verdict
    cone_generating: bool
    cone_simplicial: bool
    rays_support_disjoint: bool
    rays: tuple[QVector, ...]


# ---------------------------------------------------------------------------
# double description


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """ints divided by their gcd, a positive factor, so a ray keeps its
    direction; a zero vector stays zero."""
    g = gcd(*ints) or 1
    return tuple(v // g for v in ints)


def extreme_rays_of_inequality_cone(subspace: Subspace) -> tuple[QVector, ...]:
    """Extreme rays of {x in F : x_j >= 0 for every j}, F the subspace.

    The cone lies in R^n_+, so it is pointed; the rays come back as
    coprime integer vectors of R^n, lexicographically sorted.
    Everything runs on plain ints: a ray is a primitive integer vector
    and its tight set (the processed coordinates on which it vanishes)
    is a bitmask.  The start is the RREF basis: x_{p_k} is the k-th
    coefficient of x for the k-th pivot p_k, so the pivot coordinates
    cut out a simplicial cone whose rays are the basis vectors, b_k
    tight on every pivot but its own.  The other coordinates are
    inserted in index order, a ray's value on coordinate j being its
    entry r_j.
    A kept ray on the new hyperplane gains its bit; a new ray
    v_p r_m - v_m r_p, both parents satisfying every processed
    coordinate, is tight exactly where both are, plus the new one.  Two
    rays are adjacent when no other ray's tight set contains their
    common tight set (Fukuda and Prodon, 1996), so the output is
    deterministic.
    """
    d = subspace.dim
    start = sum(1 << p for p in subspace.pivots)
    rays = [_primitive(b.nums) for b in subspace.basis]
    tights = [start & ~(1 << p) for p in subspace.pivots]
    for j in range(subspace.ambient_dim):
        bit = 1 << j
        if start & bit:
            continue
        values = [r[j] for r in rays]
        new_rays: list[tuple[int, ...]] = []
        new_tights: list[int] = []
        for r, tight, v in zip(rays, tights, values):
            if v >= 0:
                new_rays.append(r)
                new_tights.append(tight | bit if v == 0 else tight)
        neg = [i for i, v in enumerate(values) if v < 0]
        for ip, vp in enumerate(values):
            if vp <= 0:
                continue
            for im in neg:
                common = tights[ip] & tights[im]
                if common.bit_count() < d - 2 or any(
                    k != ip and k != im and tight & common == common
                    for k, tight in enumerate(tights)
                ):
                    continue
                vm = values[im]
                combo = [vp * a - vm * b for a, b in zip(rays[im], rays[ip])]
                new_rays.append(_primitive(combo))
                new_tights.append(common | bit)
        rays, tights = new_rays, new_tights
        if not rays:
            break
    return tuple(QVector.from_ints(r) for r in sorted(rays))


def positive_cone(subspace: Subspace) -> PolyhedralCone:
    """Extreme rays of {x in F : x >= 0}, read off the classification F
    carries.  The zero subspace has no rays."""
    return PolyhedralCone(subspace, subspace.classification.rays)


def classify_subspace(subspace: Subspace) -> LatticeClassification:
    """Lattice classification of F under the inherited coordinate order:
    the classification F carries, computed once per subspace."""
    return subspace.classification


# ---------------------------------------------------------------------------
# least upper bounds within a subspace


def least_element_above(subspace: Subspace, bound: QVector) -> QVector | None:
    """The least element of {z in F : z >= bound}, or None.

    The upper-bound set is one feasible region for one `minimize` call,
    so phase 1 runs once and each objective gets its own phase 2.  The
    k-th coefficient of z in F is z at the k-th pivot, so with the
    coefficients bound_P + y, bound_P the bound at the pivots, the pivot
    constraints are y >= 0 and z = shift + sum_k y_k b_k for the shift
    spanned by bound_P (one integer combination of the basis): only the
    other z_j are rows, coord_rows[j] . y >= (bound - shift)_j, their
    right-hand sides read off the numerators of bound - shift.

    On a lattice subspace with extreme rays r_k, each owning the
    coordinate j_k, the objectives are the d coordinates j_k: let m_k be
    the minimum of z_{j_k} and z = sum_k (m_k / r_k(j_k)) r_k, which is
    the positive projection Q applied to m placed at the j_k.  Q reads
    only the owned coordinates and fixes the shift, which lies in F, so
    z = shift + Q v for v the minima of y's objectives.  Every f
    in the region is sum_k (f_{j_k} / r_k(j_k)) r_k with f_{j_k} >= m_k,
    so f - z is a nonnegative combination of rays: z lies below the
    whole region.  A least element, lying in the region, has exactly
    the coordinates m_k, so it is z; z is returned when z >= bound and
    None otherwise.

    On any other subspace the objectives are the n ambient coordinates,
    and the assembled coordinatewise minimum is the least element
    precisely when it lies in F itself, which is checked exactly.
    """
    n = subspace.ambient_dim
    if bound.dim != n:
        raise ValueError("bound dimension mismatch")
    if subspace.is_zero():
        return QVector.zero(n) if all(b <= 0 for b in bound.nums) else None
    coord_rows = subspace.coordinate_rows
    pivots = subspace.pivots
    shift = subspace.from_coefficients(
        QVector.from_ints([bound.nums[p] for p in pivots], bound.den)
    )
    gap = bound - shift
    rows = [
        (coord_rows[j], Fraction(x, gap.den))
        for j, x in enumerate(gap.nums)
        if j not in pivots
    ]
    lattice = subspace.classification.verdict != Verdict.NOT_LATTICE_SUBSPACE
    coords = subspace.owned_coordinates if lattice else range(n)
    results = minimize([coord_rows[j] for j in coords], inequalities=rows)
    if results[0].status == INFEASIBLE:
        return None
    if any(result.status == UNBOUNDED for result in results):
        raise TheoremViolationError(
            "upper-bound set unbounded below; order structure violated"
        )
    if lattice:
        values = [0] * n
        for j, result in zip(coords, results):
            values[j] = result.value
        least = shift + subspace.positive_projection @ QVector(values)
        return least if least.ge(bound) else None
    candidate = shift + QVector([result.value for result in results])
    if not subspace.contains(candidate):
        return None
    return candidate


def least_upper_bound_in(
    subspace: Subspace, vectors: Sequence[QVector]
) -> QVector | None:
    """The least element of {z in F : z >= g for all g}, or None.

    Every input must lie in F, and the classification F carries
    (computed once per subspace) picks the route.  On a lattice subspace
    the result is Q max(g_1, ..., g_k) for the positive projection Q
    onto F, computed once per subspace: there is no LP, and the result is
    never None.  On any other subspace z >= g for all g collapses to the
    same coordinatewise bound for least_element_above.
    """
    if not vectors:
        raise ValueError("empty vector collection")
    if not all(subspace.contains(g) for g in vectors):
        raise ValueError("vector outside the subspace")
    bound = reduce(QVector.cwise_max, vectors)
    if subspace.classification.verdict == Verdict.NOT_LATTICE_SUBSPACE:
        return least_element_above(subspace, bound)
    return subspace.positive_projection @ bound


def modulus_in(subspace: Subspace, x: QVector) -> QVector | None:
    """Least upper bound of {x, -x} within F; requires x in F."""
    return least_upper_bound_in(subspace, [x, -x])
