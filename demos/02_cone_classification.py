"""Classifying subspaces of a finite-dimensional lattice by their
positive cone: sublattice, lattice subspace, or neither.

The three verdicts are decided from the extreme rays of the cone
F intersected with the positive orthant: disjoint supports give a
sublattice, a generating simplicial cone gives a lattice subspace, and
anything else fails to be a lattice in the inherited order.
Run with: python3 demos/02_cone_classification.py
"""

from latfix.conegeom import (
    Subspace,
    classify_subspace,
    least_upper_bound_in,
    modulus_in,
    positive_cone,
)
from latfix.exactnum.rational import QVector


def describe(name, vectors, probe=None):
    ambient = len(vectors[0])
    subspace = Subspace.from_vectors(ambient, [QVector(v) for v in vectors])
    result = classify_subspace(subspace)
    rays = positive_cone(subspace).rays
    print(f"{name}:")
    print("  verdict:", result.verdict.value)
    print("  cone generating:", result.cone_generating)
    print("  cone simplicial:", result.cone_simplicial)
    print("  extreme rays:", [[str(x) for x in r] for r in rays])
    if probe is not None:
        x = QVector(probe)
        m = modulus_in(subspace, x)
        print(
            "  modulus of", [str(v) for v in x], "within F:",
            None if m is None else [str(v) for v in m],
        )
    print()
    return subspace


# coordinate-slab sublattice: rays sit on disjoint supports
describe("slab span{e1, e2+e3}", [[1, 0, 0], [0, 1, 1]], probe=[1, -1, -1])

# the averaging example's fixed space: a lattice subspace whose lattice
# operations differ from the ambient ones
plane = describe(
    "plane span{(1,1,1), (1,0,-1)}",
    [[1, 1, 1], [1, 0, -1]],
    probe=[1, 0, -1],
)

# the modulus within F dominates the ambient modulus but is larger
x = QVector([1, 0, -1])
print(
    "ambient |x| =", [str(v) for v in x.abs()],
    " vs modulus within F =",
    [str(v) for v in modulus_in(plane, x)],
)

# a least upper bound of two members, taken within F
a = QVector([1, 1, 1])
lub = least_upper_bound_in(plane, [a, x])
print("least upper bound of {(1,1,1), (1,0,-1)} in F:", [str(v) for v in lub])
print()

# a thin cone: the only positive direction is e2, so differences of
# positive members span a line, not the plane
describe("thin span{(1,0,-1), (0,1,0)}", [[1, 0, -1], [0, 1, 0]], probe=[1, 0, -1])
