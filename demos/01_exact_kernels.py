"""Exact rational linear algebra: kernels, characteristic polynomials,
and the spectral projection onto a fixed space.

Everything below is computed in exact arithmetic; no floats appear.
Run with: python3 demos/01_exact_kernels.py
"""

from fractions import Fraction

from latfix.exactnum.linalg import char_poly, fix_projection, kernel_basis, rank
from latfix.exactnum.polynomials import cyclotomic_division
from latfix.exactnum.rational import QMatrix, QVector

third = Fraction(1, 3)
averaging = QMatrix(
    [
        [1, 0, 0],
        [third, third, third],
        [0, 0, 1],
    ]
)

print("operator:")
for row in averaging.rows:
    print("  ", [str(x) for x in row])

# fix T = ker(I - T); the kernel basis is canonical (reduced row
# echelon shape), so equal spaces print identically
identity = QMatrix.identity(3)
fixed_directions = kernel_basis(identity - averaging)
print("\nfixed space basis (canonical):")
for v in fixed_directions:
    print("  ", [str(x) for x in v])
print("rank of I - T:", rank(identity - averaging))

p = char_poly(averaging)
print("\ncharacteristic polynomial coefficients (ascending):")
print("  ", [str(c) for c in p.coeffs])
# chi = (x - 1)^2 (x - 1/3): the cyclotomic factor Phi_1 = x - 1 twice
multiplicities, rest = cyclotomic_division(p)
print("cyclotomic factors by exact trial division:")
for order, multiplicity in multiplicities.items():
    print(f"   order {order} with multiplicity {multiplicity}")
print("cyclotomic-free rest (ascending):", [str(c) for c in rest.coeffs])

# eigenvalue 1 is semisimple here, so the order-preserving projection
# onto the fixed space exists and is computed exactly
projection = fix_projection(averaging)
print("\nprojection onto the fixed space:")
for row in projection.rows:
    print("  ", [str(x) for x in row])

sample = QVector([1, 0, -1])
print("\nprojection fixes fixed vectors:", projection @ sample == sample)
print("projection is idempotent:", projection @ projection == projection)
