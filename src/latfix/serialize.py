"""JSON codecs for the inputs and reports of the command line.

Rationals render as "p/q" strings ("p" when the denominator is 1); no
floating point appears anywhere.  An input vector parses straight to
integer numerators over one common denominator: an entry spelled
``-?[0-9]+(/[0-9]+)?`` is read with two `int` calls and no `Fraction`,
and every other value goes through `parse_rational`, so the accepted set,
the values and the error messages are those of `fractions.Fraction`,
less the values with more digits than `str` renders.
Report dictionaries are built in a fixed key order and rendered by
`canonical_json`, a small recursive renderer whose output is byte for
byte ``json.dumps(data, indent=2, ensure_ascii=True)`` plus a newline, so
equal values produce byte-identical JSON across runs and platforms.
"""
from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import lcm

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
    """`rat` of a JSON value: an int or a "p/q" string; every other value,
    and one whose numerator or denominator has more digits than `str`
    renders (``sys.get_int_max_str_digits()``), is a ValueError."""
    try:
        q = rat(value)
        str(q)  # a ValueError beyond the digit limit
    except (TypeError, ValueError) as exc:
        raise ValueError(f"not a rational: {value!r}") from exc
    return q


_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator > 0) of a JSON value, not reduced.  The
    common spelling ``"p"`` or ``"p/q"`` builds no `Fraction`; any other
    value, a zero denominator, or digits beyond `int`'s limit go through
    `parse_rational` and raise its error."""
    match = _RATIO.fullmatch(value) if type(value) is str else None
    if match is not None:
        num, den = match.groups()
        try:
            num, den = int(num), 1 if den is None else int(den)
        except ValueError:
            pass
        else:
            if den:
                return num, den
    value = parse_rational(value)
    return value.numerator, value.denominator


def vector_to_json(v: QVector) -> list[str]:
    return [ratio_str(x, v.den) for x in v.nums]


def parse_vector(data) -> QVector:
    if not isinstance(data, list):
        raise ValueError("vector must be a JSON list")
    pairs = [_ratio(x) for x in data]
    den = lcm(*(d for _, d in pairs))
    return QVector.from_ints([n * (den // d) for n, d in pairs], den)


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
    *prefix, tail = vector_to_json(c.values)
    return {"prefix": prefix, "tail": tail}


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


def _render(value, pad: str) -> str:
    """`value` as JSON at indent `pad`, as ``json.dumps`` with indent 2
    and ASCII escapes would write it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key!r}")
        items = [
            encode_basestring_ascii(key) + ": " + _render(item, inner)
            for key, item in value.items()
        ]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_render(item, inner) for item in value]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    body = (",\n" + inner).join(items)
    return brackets[0] + "\n" + inner + body + "\n" + pad + brackets[1]


def canonical_json(data) -> str:
    """Byte-stable rendering: fixed key order (insertion order of the
    report builders), two-space indent, ASCII escapes, trailing newline;
    the bytes of ``json.dumps(data, indent=2, ensure_ascii=True) + "\\n"``
    for dicts with str keys, lists, tuples, str, int, bool and None.  A
    float or a non-str key is a TypeError."""
    return _render(data, "") + "\n"
