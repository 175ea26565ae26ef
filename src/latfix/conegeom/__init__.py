"""Cone geometry: positive cones of subspaces, lattice classification,
and least upper bounds computed exactly inside a subspace."""

from .core import (
    LatticeClassification,
    PolyhedralCone,
    Subspace,
    Verdict,
    classify_subspace,
    extreme_rays_of_inequality_cone,
    least_element_above,
    least_upper_bound_in,
    modulus_in,
    positive_cone,
)
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, minimize

__all__ = [
    "INFEASIBLE",
    "OPTIMAL",
    "UNBOUNDED",
    "LPResult",
    "LatticeClassification",
    "PolyhedralCone",
    "Subspace",
    "Verdict",
    "classify_subspace",
    "extreme_rays_of_inequality_cone",
    "least_element_above",
    "least_upper_bound_in",
    "minimize",
    "modulus_in",
    "positive_cone",
]
