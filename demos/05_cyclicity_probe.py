"""Peripheral spectrum cyclicity: root-of-unity eigenvalues of positive
contractions, the eigenspace dimension estimate, and the semigroup
analogue for Metzler generators.

Root-of-unity content is read off exactly from cyclotomic trial
division and, for repeated orders, cyclotomic kernels; no eigenvalue is
ever computed in floating point.
Run with: python3 demos/05_cyclicity_probe.py
"""

import tempfile
from pathlib import Path

from latfix.cyclicity import (
    probe_random_contractions,
    root_of_unity_spectrum,
    semigroup_imaginary_check,
    verify_dimension_cyclicity,
)
from latfix.exactnum.rational import QMatrix
from latfix.opcore import PositiveMatrixOperator

# a permutation with a 6-cycle and a 2-cycle: the peripheral spectrum
# carries all sixth roots of unity plus an extra -1 and +1
perm = QMatrix(
    [
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, 1, 0],
    ]
)
op = PositiveMatrixOperator(perm)
print("orders with multiplicities:", root_of_unity_spectrum(op))

report = verify_dimension_cyclicity(op)
print("dimension estimate verdict:", report.verdict)
print("sample estimates (order, k, reduced order, holds):")
for e in report.estimates[:6]:
    print(f"  order {e.order}, power {e.k} -> order {e.reduced_order}:"
          f" {e.mult_at_order} <= {e.mult_at_reduced}: {e.holds}")

# the semigroup analogue: a Metzler matrix with nonpositive logarithmic
# sup norm generates a positive contractive semigroup, so its point
# spectrum avoids the punctured imaginary axis
generator = QMatrix([[-2, 1, 0], [1, -3, 1], [0, 2, -2]])
semi = semigroup_imaginary_check(generator)
print("\ngenerator Metzler:", semi.metzler)
print("logarithmic sup norm:", semi.log_norm_sup)
print("imaginary axis content:", semi.imaginary_eigenvalues)
print("verdict:", semi.verdict)

# randomized consistency probe; the log's header records why finite
# dimensions can only ever agree with the estimate
with tempfile.TemporaryDirectory() as tmp:
    log_path = Path(tmp) / "probe.jsonl"
    summary = probe_random_contractions(
        trials=25, dim_max=5, seed=2026, out_path=str(log_path)
    )
    print(
        f"\nprobe: {summary.trials} trials up to dimension"
        f" {summary.dim_max}, violations: {summary.violations}"
    )
    print("log header:", log_path.read_text().splitlines()[0][:120], "...")
