"""The worked-example gallery.

Each case builds its objects from scratch, runs the full analysis, and
returns a canonical report dictionary.  Expected outputs live as
fixture files next to the package; `gallery all` recomputes every case
and compares byte-for-byte against the fixtures.
"""
from __future__ import annotations

import os
from fractions import Fraction

from .. import serialize
from ..conegeom import least_element_above, modulus_in
from ..exactnum import TheoremViolationError
from ..exactnum.linalg import char_poly
from ..exactnum.rational import ONE, ZERO, QMatrix, QVector
from ..fixlattice import fixed_space_report, transfinite_trace
from ..opcore import (
    ONE_NORM,
    OperatorFamily,
    PositiveMatrixOperator,
    operator_norm,
    power_bounded_analysis,
    super_fixed_check,
)
from ..seqspace import (
    ZERO_CHAIN,
    SymbolicVector,
    builtin_operator,
    constant_profile_embedding,
    symbolic_eigenspace,
    symbolic_fixed_space,
    symbolic_operator_norm,
)

FIXTURE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "gallery_fixtures"
)

GALLERY_IDS = (
    "intro-strict",
    "intro-kb",
    "e41",
    "e42a",
    "e42b",
    "e43",
    "e44",
)


def case_intro_strict() -> dict:
    """Strictly monotone norm: the fixed space of an l1-contraction is
    a sublattice, so moduli of fixed vectors stay fixed."""
    half = Fraction(1, 2)
    matrix = QMatrix(
        [
            QVector((half, half, ZERO)),
            QVector((half, half, ZERO)),
            QVector((ZERO, ZERO, ONE)),
        ]
    )
    family = OperatorFamily([PositiveMatrixOperator(matrix, norm_tag=ONE_NORM)])
    report = fixed_space_report(family)
    fixed_vector = QVector((1, 1, -1))
    modulus = fixed_vector.abs()
    op = family.members[0]
    if op.apply(fixed_vector) != fixed_vector:
        raise TheoremViolationError("intro-strict: the fixed vector is not fixed")
    return {
        "id": "intro-strict",
        "norm": "one",
        "operator_norm": serialize.rational_str(operator_norm(op)),
        "report": serialize.fixed_space_report_to_json(
            report, report.classification.rays
        ),
        "fixed_vector": serialize.vector_to_json(fixed_vector),
        "modulus_fixed": op.apply(modulus) == modulus,
    }


def case_intro_kb() -> dict:
    """Power-bounded but not contractive: the least fixed vector above
    a super fixed one still exists (finite dimensions behave like a
    KB-space), but the norm equality of the contractive case is lost."""
    third = Fraction(1, 3)
    two_thirds = Fraction(2, 3)
    matrix = QMatrix(
        [
            QVector((ONE, ZERO, ZERO)),
            QVector((two_thirds, third, two_thirds)),
            QVector((ZERO, ZERO, ONE)),
        ]
    )
    op = PositiveMatrixOperator(matrix)
    family = OperatorFamily([op])
    fixed = family.fixed_space
    classification = fixed.classification
    bound = QVector((1, 0, 1))
    if not super_fixed_check(op, bound):
        raise TheoremViolationError("intro-kb: the bound is not super fixed")
    least = least_element_above(fixed, bound)
    if least is None:
        raise TheoremViolationError("intro-kb: no least fixed vector above the bound")
    return {
        "id": "intro-kb",
        "norm": "sup",
        "operator_norm": serialize.rational_str(operator_norm(op)),
        "contractive": family.contractive,
        "power_bounded": serialize.power_bound_to_json(
            power_bounded_analysis(op)
        ),
        "fixed_space": serialize.subspace_to_json(fixed),
        "classification": serialize.classification_to_json(
            classification, classification.rays
        ),
        "least_fixed_above": {
            "bound": serialize.vector_to_json(bound),
            "result": serialize.vector_to_json(least),
            "bound_norm": serialize.rational_str(bound.sup_norm()),
            "result_norm": serialize.rational_str(least.sup_norm()),
            "norm_preserved": least.sup_norm() == bound.sup_norm(),
        },
    }


def case_e41() -> dict:
    """Contraction whose fixed space contains no positive vector other
    than zero: not a lattice subspace."""
    op = builtin_operator("e41")
    basis = symbolic_fixed_space(op)
    embedded = constant_profile_embedding(op.schema, basis)
    classification = embedded.classification
    rays = classification.rays
    return {
        "id": "e41",
        "operator_norm": serialize.rational_str(symbolic_operator_norm(op)),
        "fixed_space_basis": [
            serialize.symbolic_vector_to_json(v) for v in basis
        ],
        "embedded_fixed_space": serialize.subspace_to_json(embedded),
        "classification": serialize.classification_to_json(
            classification, rays
        ),
        "positive_fixed_vectors_only_zero": not rays,
    }


def case_e42a() -> dict:
    """Finite part of the averaging example: the fixed space is a
    lattice subspace but not a sublattice, and the modulus within it
    differs from the ambient modulus."""
    family = OperatorFamily([PositiveMatrixOperator(builtin_operator("e42").finite_block)])
    report = fixed_space_report(family)
    f_hat = QVector((1, 0, -1))
    modulus = modulus_in(report.fixed_space, f_hat)
    if modulus is None:
        raise TheoremViolationError("e42a: no modulus within a lattice subspace")
    return {
        "id": "e42a",
        "norm": "sup",
        "report": serialize.fixed_space_report_to_json(
            report, report.classification.rays
        ),
        "modulus_within": {
            "of": serialize.vector_to_json(f_hat),
            "ambient_modulus": serialize.vector_to_json(f_hat.abs()),
            "result": serialize.vector_to_json(modulus),
        },
    }


def case_e42b() -> dict:
    """The transfinite climb: two limit steps from the ambient modulus
    to the supremum within the fixed space."""
    op = builtin_operator("e42")
    f_hat = QVector((1, 0, -1))
    f_sym = SymbolicVector(op.schema, f_hat, (ZERO_CHAIN, ZERO_CHAIN))
    trace = transfinite_trace(op, [f_sym, -f_sym])
    return {
        "id": "e42b",
        "operator_norm": serialize.rational_str(symbolic_operator_norm(op)),
        "trace": serialize.trace_to_json(trace),
    }


def case_e43() -> dict:
    """Power-bounded norm-2 operator with -1 in the point spectrum but
    not +1; the fixed space of its square is not a lattice subspace and
    the monotone limit steps on it grow without bound."""
    op = builtin_operator("e43")
    minus = symbolic_eigenspace(op, -1)
    plus = symbolic_eigenspace(op, 1)
    # Fix(T^2) is spanned by the eigenvectors at 1 and -1: a fixed vector v
    # of T^2 splits as v = (v + Tv)/2 + (v - Tv)/2, eigenvectors of T at 1
    # and -1 within the representable class
    square_fix = plus + minus
    embedded = constant_profile_embedding(op.schema, square_fix)
    classification = embedded.classification
    f = minus[0]
    trace = transfinite_trace(op, [f, -f], power=2)
    return {
        "id": "e43",
        "operator_norm": serialize.rational_str(symbolic_operator_norm(op)),
        "eigenspace_minus_one": [
            serialize.symbolic_vector_to_json(v) for v in minus
        ],
        "eigenspace_plus_one": [
            serialize.symbolic_vector_to_json(v) for v in plus
        ],
        "fix_of_square": {
            "basis": [serialize.symbolic_vector_to_json(v) for v in square_fix],
            "embedded": serialize.subspace_to_json(embedded),
            "classification": serialize.classification_to_json(
                classification, classification.rays
            ),
        },
        "trace_of_square": serialize.trace_to_json(trace),
    }


def case_e44() -> dict:
    """Positive, not power bounded: spectrum {1} with a defective
    eigenvalue, fixed space not a lattice subspace."""
    matrix = QMatrix(
        [
            QVector((ONE, ZERO, ZERO)),
            QVector((ONE, ONE, ONE)),
            QVector((ZERO, ZERO, ONE)),
        ]
    )
    op = PositiveMatrixOperator(matrix)
    family = OperatorFamily([op])
    report = fixed_space_report(family)
    return {
        "id": "e44",
        "norm": "sup",
        "operator_norm": serialize.rational_str(operator_norm(op)),
        "char_poly": serialize.polynomial_to_json(char_poly(matrix)),
        "power_bounded": serialize.power_bound_to_json(
            power_bounded_analysis(op)
        ),
        "report": serialize.fixed_space_report_to_json(
            report, report.classification.rays
        ),
    }


CASE_BUILDERS = {
    "intro-strict": case_intro_strict,
    "intro-kb": case_intro_kb,
    "e41": case_e41,
    "e42a": case_e42a,
    "e42b": case_e42b,
    "e43": case_e43,
    "e44": case_e44,
}


def run_gallery(case_id: str) -> dict:
    if case_id not in CASE_BUILDERS:
        raise ValueError(f"unknown gallery case {case_id!r}")
    return CASE_BUILDERS[case_id]()


def fixture_path(case_id: str) -> str:
    return os.path.join(FIXTURE_DIR, f"{case_id}.json")


def expected_text(case_id: str) -> str:
    path = fixture_path(case_id)
    if not os.path.exists(path):
        raise ValueError(f"missing gallery fixture {os.path.basename(path)}")
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def case_matches(case_id: str) -> tuple[bool, str]:
    """(match, canonical text of the freshly computed report)."""
    text = serialize.canonical_json(run_gallery(case_id))
    return text == expected_text(case_id), text


def regenerate_fixtures() -> list[str]:
    texts = {i: serialize.canonical_json(run_gallery(i)) for i in GALLERY_IDS}
    path = FIXTURE_DIR
    try:
        os.makedirs(FIXTURE_DIR, exist_ok=True)
        for case_id, text in texts.items():
            path = fixture_path(case_id)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc
    return list(texts)
