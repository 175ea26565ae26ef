"""Command-line surface.

Commands print human-readable text by default and canonical JSON with
--json.  Exit codes: 0 for success (Inapplicable verdicts included),
1 for verification failures and theorem-violation defects, 2 for
invalid input.
"""
from __future__ import annotations

import argparse
import json
import sys

from .. import serialize
from ..conegeom import classify_subspace
from ..cyclicity import (
    probe_random_contractions,
    semigroup_imaginary_check,
    verify_dimension_cyclicity,
)
from ..fixlattice import (
    TheoremViolationError,
    fixed_space_report,
    sup_in_fixspace,
)
from ..opcore import vector_norm
from . import gallery

OK = 0
DEFECT = 1
INVALID = 2


def _load_json(path: str):
    def parse_int(literal: str) -> int:
        # json.load's own int() fails past the digit limit with a message
        # that does not name the file
        try:
            return int(literal)
        except ValueError:
            raise ValueError(
                f"{path} holds an integer of {len(literal.lstrip('-'))} digits,"
                f" beyond the limit of {sys.get_int_max_str_digits()} digits"
            ) from None

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_int=parse_int)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{path} nests too deeply to read as JSON") from None


def _inline(value) -> str | None:
    """Compact rendering for scalars and (nested) lists of scalars."""
    if value is None or isinstance(value, (bool, int, str)):
        return json.dumps(value)
    if isinstance(value, list):
        parts = [_inline(item) for item in value]
        if all(p is not None for p in parts):
            return "[" + ", ".join(parts) + "]"
    return None


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            compact = _inline(item)
            if compact is not None:
                lines.append(f"{pad}{key}: {compact}")
            else:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(item, indent + 1))
    elif isinstance(value, list):
        for item in value:
            compact = _inline(item)
            if compact is not None:
                lines.append(f"{pad}- {compact}")
            else:
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
    else:
        lines.append(f"{pad}{json.dumps(value)}")
    return lines


def _emit(data: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(serialize.canonical_json(data))
    else:
        print("\n".join(_render_text(data)))


def _cmd_gallery(args) -> int:
    if args.gallery_action == "regen":
        written = gallery.regenerate_fixtures()
        print(f"regenerated {len(written)} fixtures: {', '.join(written)}")
        return OK
    ids = gallery.GALLERY_IDS if args.gallery_action == "all" else (args.id,)
    status = OK
    for case_id in ids:
        match, text = gallery.case_matches(case_id)
        if args.json:
            sys.stdout.write(text)
        else:
            print("\n".join(_render_text(json.loads(text))))
        label = "match" if match else "MISMATCH against stored fixture"
        print(f"[{case_id}] {label}", file=sys.stderr)
        if not match:
            status = DEFECT
    return status


def _cmd_classify(args) -> int:
    subspace = serialize.parse_subspace(_load_json(args.input))
    classification = classify_subspace(subspace)
    data = {
        "subspace": serialize.subspace_to_json(subspace),
        "classification": serialize.classification_to_json(
            classification, classification.rays
        ),
    }
    _emit(data, args.json)
    return OK


def _cmd_fixspace(args) -> int:
    family = serialize.parse_family(_load_json(args.input))
    report = fixed_space_report(family)
    _emit(
        serialize.fixed_space_report_to_json(report, report.classification.rays),
        args.json,
    )
    if report.theorem_conformant is False:
        return DEFECT
    return OK


def _cmd_sup_in_fix(args) -> int:
    family = serialize.parse_family(_load_json(args.input))
    vectors = serialize.parse_vector_list(_load_json(args.vectors))
    g_f, g_e = sup_in_fixspace(family, vectors)
    data = {
        "g_F": serialize.vector_to_json(g_f),
        "g_E": serialize.vector_to_json(g_e),
        "g_F_norm": serialize.rational_str(vector_norm(g_f, family.norm_tag)),
        "g_E_norm": serialize.rational_str(vector_norm(g_e, family.norm_tag)),
    }
    _emit(data, args.json)
    return OK


def _cmd_cyclicity(args) -> int:
    op = serialize.parse_operator(_load_json(args.input))
    report = verify_dimension_cyclicity(op)
    _emit(serialize.cyclicity_report_to_json(report), args.json)
    return DEFECT if report.verdict == "Fail" else OK


def _cmd_semigroup(args) -> int:
    matrix = serialize.parse_matrix(_load_json(args.input))
    report = semigroup_imaginary_check(matrix)
    _emit(serialize.semigroup_report_to_json(report), args.json)
    return DEFECT if report.verdict == "Fail" else OK


def _cmd_probe(args) -> int:
    try:
        summary = probe_random_contractions(
            trials=args.trials,
            dim_max=args.dim_max,
            seed=args.seed,
            out_path=args.out,
        )
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc}") from exc
    _emit(serialize.probe_summary_to_json(summary), args.json)
    return DEFECT if summary.violations else OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latfix",
        description=(
            "Fixed spaces of positive contractions: lattice"
            " classification, suprema within fixed spaces, peripheral"
            " spectrum cyclicity, and the worked-example gallery."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gallery = sub.add_parser("gallery", help="run the example gallery")
    gallery_sub = p_gallery.add_subparsers(dest="gallery_action", required=True)
    p_run = gallery_sub.add_parser("run", help="run one case")
    p_run.add_argument("id", choices=gallery.GALLERY_IDS)
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(func=_cmd_gallery)
    p_all = gallery_sub.add_parser("all", help="run every case")
    p_all.add_argument("--json", action="store_true")
    p_all.set_defaults(func=_cmd_gallery)
    p_regen = gallery_sub.add_parser(
        "regen", help="maintenance: rewrite the stored fixtures"
    )
    p_regen.set_defaults(func=_cmd_gallery)

    p_classify = sub.add_parser(
        "classify", help="lattice classification of a subspace"
    )
    p_classify.add_argument("-i", "--input", required=True)
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(func=_cmd_classify)

    p_fixspace = sub.add_parser(
        "fixspace", help="fixed-space report of an operator family"
    )
    p_fixspace.add_argument("-i", "--input", required=True)
    p_fixspace.add_argument("--json", action="store_true")
    p_fixspace.set_defaults(func=_cmd_fixspace)

    p_sup = sub.add_parser(
        "sup-in-fix", help="supremum of fixed vectors within the fixed space"
    )
    p_sup.add_argument("-i", "--input", required=True)
    p_sup.add_argument("-g", "--vectors", required=True)
    p_sup.add_argument("--json", action="store_true")
    p_sup.set_defaults(func=_cmd_sup_in_fix)

    p_cyc = sub.add_parser(
        "cyclicity", help="root-of-unity spectrum and dimension estimates"
    )
    p_cyc.add_argument("-i", "--input", required=True)
    p_cyc.add_argument("--json", action="store_true")
    p_cyc.set_defaults(func=_cmd_cyclicity)

    p_semi = sub.add_parser(
        "semigroup", help="Metzler generator imaginary-axis check"
    )
    p_semi.add_argument("-i", "--input", required=True)
    p_semi.add_argument("--json", action="store_true")
    p_semi.set_defaults(func=_cmd_semigroup)

    p_probe = sub.add_parser(
        "probe", help="randomized consistency probe of the dimension estimate"
    )
    p_probe.add_argument("--trials", type=int, required=True)
    p_probe.add_argument("--dim-max", type=int, default=6)
    p_probe.add_argument("--seed", type=int, required=True)
    p_probe.add_argument("--out", default=None)
    p_probe.add_argument("--json", action="store_true")
    p_probe.set_defaults(func=_cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TheoremViolationError as exc:
        print(f"defect: {exc}", file=sys.stderr)
        return DEFECT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID

