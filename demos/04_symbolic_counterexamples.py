"""The boundary cases: operators on symbolic sequence spaces whose
fixed spaces stop being lattices, and a matrix that is positive but
not power bounded.

Vectors here are finitely many explicit coordinates plus eventually
constant tails, so suprema over infinite index sets stay exact.
Run with: python3 demos/04_symbolic_counterexamples.py
"""

from latfix.exactnum.rational import QMatrix
from latfix.fixlattice import transfinite_trace
from latfix.opcore import (
    OperatorFamily,
    PositiveMatrixOperator,
    power_bounded_analysis,
)
from latfix.seqspace import (
    NoSupremumError,
    builtin_operator,
    constant_profile_embedding,
    orbit_sup,
    symbolic_eigenspace,
    symbolic_fixed_space,
    symbolic_operator_norm,
)


def show(v):
    parts = ["finite: " + str([str(x) for x in v.finite_part])]
    for decl, c in zip(v.schema.chains, v.chains):
        parts.append(f"chain {decl.name}: prefix {[str(x) for x in c.prefix]} tail {c.tail}")
    for k in range(len(v.grid_rows)):
        row = v.grid_rows[k]
        parts.append(f"grid row {k}: prefix {[str(x) for x in row.prefix]} tail {row.tail}")
    return "; ".join(parts)


print("== shift-by-one on two coordinates plus a c0 chain ==")
op41 = builtin_operator("e41")
basis = symbolic_fixed_space(op41)
print("operator norm:", symbolic_operator_norm(op41))
for v in basis:
    print("fixed direction:", show(v))
embedded = constant_profile_embedding(op41.schema, basis)
classification41 = embedded.classification
print("classification:", classification41.verdict.value)
print("positive fixed vectors:", [str(r) for r in classification41.rays] or "only zero")
try:
    orbit_sup(op41, basis[0].abs())
except NoSupremumError as exc:
    print("orbit of |f| has no supremum:", exc)

print("\n== averaging head with two accumulating chains ==")
op42 = builtin_operator("e42")
basis = symbolic_fixed_space(op42)
print("fixed space dimension:", len(basis))
sign_mixed = next(v for v in basis if not v.abs() == v)
trace = transfinite_trace(op42, [sign_mixed, sign_mixed.scale(-1)])
print("climb to the modulus within fix T:")
for step in trace.steps:
    print(f"  after limit step {step.limit_step_index}: {show(step.vector)}"
          f" (fixed: {step.is_fixed})")

print("\n== norm-2 operator whose square has an unbounded climb ==")
op43 = builtin_operator("e43")
print("operator norm:", symbolic_operator_norm(op43))
print("eigenvalue +1 eigenspace size:", len(symbolic_eigenspace(op43, 1)))
(f,) = symbolic_eigenspace(op43, -1)
print("eigenvalue -1 direction:", show(f))
trace = transfinite_trace(op43, [f, f.scale(-1)], power=2)
print("trace over fix(T^2):", trace.outcome)
print("norms of successive limit steps:", [str(x) for x in trace.evidence])

print("\n== positive but not power bounded ==")
matrix = QMatrix([[1, 0, 0], [1, 1, 1], [0, 0, 1]])
op44 = PositiveMatrixOperator(matrix)
analysis = power_bounded_analysis(op44)
print("power bounded:", analysis.verdict)
print("reason:", analysis.reason)
print("the fixed space meets the positive cone only along (0,1,0):")
fixed = OperatorFamily([op44]).fixed_space
classification44 = fixed.classification
print("  rays:", [[str(x) for x in r] for r in classification44.rays])
print("  verdict:", classification44.verdict.value)
