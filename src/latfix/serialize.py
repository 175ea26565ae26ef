"""JSON codecs for the inputs and reports of the command line.

Rationals render as "p/q" strings ("p" when the denominator is 1); no
floating point appears anywhere.  Report dictionaries are built in a
fixed key order and dumped with fixed separators, so equal values
produce byte-identical canonical JSON across runs and platforms.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping, Sequence

from .conegeom import LatticeClassification, Subspace
from .cyclicity import CyclicityReport, ProbeSummary, SemigroupReport
from .exactnum.polynomials import QPolynomial
from .exactnum.rational import QMatrix, QVector, rat, ratio_str, rat_str as rational_str
from .fixlattice import FixedSpaceReport, TransfiniteTrace
from .opcore import (
    NormTag,
    ONE_NORM,
    PositiveMatrixOperator,
    OperatorFamily,
    PowerBoundAnalysis,
    SUP_NORM,
    weighted_one_norm,
)
from .seqspace import ChainValue, SymbolicVector


def parse_rational(value) -> Fraction:
    """`rat` of a JSON value: an int or a "p/q" string; every other value
    is a ValueError."""
    try:
        return rat(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"not a rational: {value!r}") from exc


def vector_to_json(v: QVector) -> list[str]:
    return [ratio_str(x, v.den) for x in v.nums]


def parse_vector(data) -> QVector:
    if not isinstance(data, list):
        raise ValueError("vector must be a JSON list")
    return QVector(parse_rational(x) for x in data)


def parse_matrix(data) -> QMatrix:
    if not isinstance(data, Mapping) or "rows" not in data:
        raise ValueError('matrix must be a JSON object with "rows"')
    rows = data["rows"]
    if not isinstance(rows, list) or not rows:
        raise ValueError("matrix rows must be a nonempty list")
    return QMatrix([parse_vector(r) for r in rows])


def polynomial_to_json(p: QPolynomial) -> dict:
    return {"coeffs": [ratio_str(x, p.den) for x in p.nums]}


def subspace_to_json(s: Subspace) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "basis": [vector_to_json(b) for b in s.basis],
    }


def parse_subspace(data) -> Subspace:
    if not isinstance(data, Mapping) or "ambient_dim" not in data:
        raise ValueError('subspace must be a JSON object with "ambient_dim"')
    ambient = data["ambient_dim"]
    if not isinstance(ambient, int) or isinstance(ambient, bool) or ambient < 0:
        raise ValueError("ambient_dim must be a nonnegative integer")
    basis = data.get("basis", [])
    if not isinstance(basis, list):
        raise ValueError("basis must be a list of vectors")
    return Subspace.from_vectors(ambient, [parse_vector(v) for v in basis])


def parse_norm(data) -> NormTag:
    if data == "sup":
        return SUP_NORM
    if data == "one":
        return ONE_NORM
    if isinstance(data, Mapping) and set(data) == {"weighted_one"}:
        return weighted_one_norm(parse_vector(data["weighted_one"]))
    raise ValueError(f"unknown norm {data!r}")


def parse_operator(data) -> PositiveMatrixOperator:
    if not isinstance(data, Mapping) or "matrix" not in data:
        raise ValueError('operator must be a JSON object with "matrix"')
    matrix = parse_matrix(data["matrix"])
    norm = parse_norm(data.get("norm", "sup"))
    return PositiveMatrixOperator(matrix, norm_tag=norm)


def parse_family(data) -> OperatorFamily:
    if not isinstance(data, Mapping) or "matrices" not in data:
        raise ValueError('family must be a JSON object with "matrices"')
    matrices = data["matrices"]
    if not isinstance(matrices, list) or not matrices:
        raise ValueError("family needs at least one matrix")
    norm = parse_norm(data.get("norm", "sup"))
    return OperatorFamily(
        PositiveMatrixOperator(parse_matrix(m), norm_tag=norm)
        for m in matrices
    )


def parse_vector_list(data) -> list[QVector]:
    if isinstance(data, Mapping) and "vectors" in data:
        data = data["vectors"]
    if not isinstance(data, list) or not data:
        raise ValueError("expected a nonempty list of vectors")
    return [parse_vector(v) for v in data]


# ---------------------------------------------------------------------------
# symbolic types


def chain_to_json(c: ChainValue) -> dict:
    return {
        "prefix": [rational_str(x) for x in c.prefix],
        "tail": rational_str(c.tail),
    }


def symbolic_vector_to_json(v: SymbolicVector) -> dict:
    return {
        "finite": vector_to_json(v.finite_part),
        "chains": [chain_to_json(c) for c in v.chains],
        "grid_rows": [chain_to_json(r) for r in v.grid_rows],
    }


# ---------------------------------------------------------------------------
# reports


def classification_to_json(
    classification: LatticeClassification, rays: Sequence[QVector]
) -> dict:
    return {
        "verdict": classification.verdict.value,
        "cone_generating": classification.cone_generating,
        "cone_simplicial": classification.cone_simplicial,
        "rays_support_disjoint": classification.rays_support_disjoint,
        "rays": [vector_to_json(r) for r in rays],
    }


def fixed_space_report_to_json(report: FixedSpaceReport, rays: Sequence[QVector]) -> dict:
    return {
        "family_valid": report.family_valid,
        "fixed_space": subspace_to_json(report.fixed_space),
        "classification": classification_to_json(report.classification, rays),
        "theorem_conformant": report.theorem_conformant,
        "norm_checks": [
            {
                "set": check.description,
                "ambient_norm": rational_str(check.ambient_norm),
                "fixed_norm": (
                    None
                    if check.fixed_norm is None
                    else rational_str(check.fixed_norm)
                ),
                "equal": check.equal,
            }
            for check in report.norm_checks
        ],
    }


def _step_vector_to_json(vector) -> dict | list:
    if isinstance(vector, SymbolicVector):
        return symbolic_vector_to_json(vector)
    return vector_to_json(vector)


def trace_to_json(trace: TransfiniteTrace) -> dict:
    return {
        "outcome": trace.outcome,
        "limit_steps": trace.limit_steps,
        "fixed_point": (
            None
            if trace.fixed_point is None
            else _step_vector_to_json(trace.fixed_point)
        ),
        "evidence": [rational_str(x) for x in trace.evidence],
        "steps": [
            {
                "limit_step_index": step.limit_step_index,
                "vector": _step_vector_to_json(step.vector),
                "is_fixed": step.is_fixed,
            }
            for step in trace.steps
        ],
    }


def cyclicity_report_to_json(report: CyclicityReport) -> dict:
    return {
        "orders": [list(pair) for pair in report.orders],
        "algebraic_orders": [list(pair) for pair in report.algebraic_orders],
        "non_cyclotomic_boundary": report.non_cyclotomic_boundary,
        "estimates": [
            {
                "order": e.order,
                "k": e.k,
                "mult_at_order": e.mult_at_order,
                "reduced_order": e.reduced_order,
                "mult_at_reduced": e.mult_at_reduced,
                "holds": e.holds,
            }
            for e in report.estimates
        ],
        "verdict": report.verdict,
    }


def semigroup_report_to_json(report: SemigroupReport) -> dict:
    return {
        "metzler": report.metzler,
        "log_norm_sup": rational_str(report.log_norm_sup),
        "imaginary_eigenvalues": report.imaginary_eigenvalues,
        "nonzero_imaginary_pairs": report.nonzero_imaginary_pairs,
        "verdict": report.verdict,
    }


def power_bound_to_json(analysis: PowerBoundAnalysis) -> dict:
    return {
        "verdict": analysis.verdict,
        "offending_factor": (
            None
            if analysis.offending_factor is None
            else polynomial_to_json(analysis.offending_factor)
        ),
        "reason": analysis.reason,
    }


def probe_summary_to_json(summary: ProbeSummary) -> dict:
    return {
        "trials": summary.trials,
        "dim_max": summary.dim_max,
        "seed": summary.seed,
        "violations": summary.violations,
    }


def canonical_json(data) -> str:
    """Byte-stable rendering: fixed key order (insertion order of the
    report builders), two-space indent, trailing newline."""
    return json.dumps(data, indent=2, ensure_ascii=True) + "\n"
