"""Per-layer tracing from outside the program.

The traced functions are wrapped by rebinding their names in every
`latfix` module namespace that holds them (modules import each other's
functions with `from ... import`, and package `__init__` files re-export
them); `QMatrix.matmul` is patched on the class, which also catches `@`
between matrices.  Each call inside an operation records a span (name,
start, end, parent span, operation id) kept in memory.  Self time is a
span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# metric prefix -> (defining module, attribute); the prefix is the layer
# (a latfix module) and the function name
TRACED = {
    "exactnum.poly_of_matrix": ("latfix.exactnum.linalg", "poly_of_matrix"),
    "exactnum.QMatrix.matmul": ("latfix.exactnum.rational", "QMatrix.matmul"),
    "exactnum.char_poly": ("latfix.exactnum.linalg", "char_poly"),
    "exactnum.rref": ("latfix.exactnum.linalg", "rref"),
    "exactnum.rank": ("latfix.exactnum.linalg", "rank"),
    "exactnum.kernel_basis": ("latfix.exactnum.linalg", "kernel_basis"),
    "exactnum.solve": ("latfix.exactnum.linalg", "solve"),
    "exactnum.unit_circle_root_count": ("latfix.exactnum.polynomials", "unit_circle_root_count"),
    "exactnum.factor_over_rationals": ("latfix.exactnum.polynomials", "factor_over_rationals"),
    "exactnum.sturm_count": ("latfix.exactnum.polynomials", "sturm_count"),
    "cyclicity.verify_dimension_cyclicity": ("latfix.cyclicity", "verify_dimension_cyclicity"),
    "cyclicity.non_cyclotomic_boundary": ("latfix.cyclicity", "non_cyclotomic_boundary"),
    "cyclicity.algebraic_root_of_unity_spectrum": ("latfix.cyclicity", "algebraic_root_of_unity_spectrum"),
    "conegeom.minimize": ("latfix.conegeom.simplex", "minimize"),
    "conegeom.least_element_above": ("latfix.conegeom.core", "least_element_above"),
    "conegeom.extreme_rays_of_inequality_cone": ("latfix.conegeom.core", "extreme_rays_of_inequality_cone"),
    "conegeom.classify_subspace": ("latfix.conegeom.core", "classify_subspace"),
    "conegeom.positive_cone": ("latfix.conegeom.core", "positive_cone"),
    "opcore.contraction_check": ("latfix.opcore", "contraction_check"),
    "opcore.power_bounded_analysis": ("latfix.opcore", "power_bounded_analysis"),
    "fixlattice.fixed_space_report": ("latfix.fixlattice", "fixed_space_report"),
    "fixlattice.sup_in_fixspace": ("latfix.fixlattice", "sup_in_fixspace"),
    "fixlattice.least_fixed_above": ("latfix.fixlattice", "least_fixed_above"),
    "fixlattice.transfinite_trace": ("latfix.fixlattice", "transfinite_trace"),
    "seqspace.orbit_sup": ("latfix.seqspace", "orbit_sup"),
    "seqspace.symbolic_fixed_space": ("latfix.seqspace", "symbolic_fixed_space"),
    "seqspace.symbolic_eigenspace": ("latfix.seqspace", "symbolic_eigenspace"),
    "serialize.canonical_json": ("latfix.serialize", "canonical_json"),
    "cli.gallery.run_gallery": ("latfix.cli.gallery", "run_gallery"),
}

# metric name -> unit, better; in the order they are reported
PER_FUNCTION = (
    ("calls_per_op", "count", "lower"),
    ("self_ms_per_op", "ms", "lower"),
    ("errors_per_op", "count", "lower"),
)
DERIVED = (
    ("exactnum.QMatrix.matmul.mults_per_op", "count", "lower"),
    ("exactnum.rref.entries_per_op", "count", "lower"),
    ("cyclicity.phi_eval_useful_ratio", "ratio", "higher"),
    ("conegeom.least_element_above.found_ratio", "ratio", "higher"),
    ("conegeom.extreme_rays_of_inequality_cone.rays_per_call", "count", "higher"),
    ("conegeom.extreme_rays_of_inequality_cone.rank_calls_per_call", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    specs = [
        (f"{name}.{suffix}", unit, better)
        for name in TRACED
        for suffix, unit, better in PER_FUNCTION
    ]
    return specs + list(DERIVED)


class Tracer:
    """Wraps the traced functions between install() and uninstall();
    records spans only while an operation is open (op_id not None), so
    the benchmark's own checks stay out of the counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []  # [span index, time covered by children]
        self.active: Counter = Counter()  # names currently on the stack
        self.calls: Counter = Counter()
        self.self_time: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self.ops = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- operation boundaries ------------------------------------------------

    def begin(self, op_id: int) -> None:
        self.op_id = op_id

    def end(self) -> None:
        self.op_id = None
        self.ops += 1

    # -- rebinding -------------------------------------------------------------

    def install(self) -> None:
        latfix_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "latfix" or n.startswith("latfix."))
        ]
        for name, (module_name, attr) in TRACED.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in latfix_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = [name, 0.0, 0.0, stack[-1][0] if stack else -1, tracer.op_id]
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(span)
            stack.append(frame)
            tracer.active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.active[name] -= 1
                duration = end - start
                span[1], span[2] = start, end
                tracer.self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
            tracer._count(name, args, result)
            return result

        return functools.wraps(fn)(traced)

    def _count(self, name: str, args, result) -> None:
        """Work counts that only the arguments or results show."""
        counts = self.counts
        if name == "exactnum.QMatrix.matmul":
            a, b = args
            counts["mults"] += a.nrows * a.ncols * b.ncols
        elif name == "exactnum.rref":
            rows, cols = args[0].shape
            counts["rref_entries"] += rows * cols * min(rows, cols)
        elif name == "exactnum.rank":
            if self.active["conegeom.extreme_rays_of_inequality_cone"]:
                counts["dd_rank_calls"] += 1
        elif name == "exactnum.poly_of_matrix":
            if self.active["cyclicity.verify_dimension_cyclicity"]:
                counts["phi_evals"] += 1
        elif name == "cyclicity.verify_dimension_cyclicity":
            counts["orders_found"] += len(result.orders)
        elif name == "conegeom.least_element_above":
            counts["least_found"] += result is not None
        elif name == "conegeom.extreme_rays_of_inequality_cone":
            counts["dd_rays"] += len(result)

    # -- results ---------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict:
        ops = max(self.ops, 1)
        c = self.counts
        values = {}
        for name in TRACED:
            values[f"{name}.calls_per_op"] = self.calls[name] / ops
            values[f"{name}.self_ms_per_op"] = self.self_time[name] * 1000 / ops
            values[f"{name}.errors_per_op"] = self.errors[name] / ops
        dd_calls = self.calls["conegeom.extreme_rays_of_inequality_cone"]
        values.update(
            {
                "exactnum.QMatrix.matmul.mults_per_op": c["mults"] / ops,
                "exactnum.rref.entries_per_op": c["rref_entries"] / ops,
                "cyclicity.phi_eval_useful_ratio": _ratio(c["orders_found"], c["phi_evals"]),
                "conegeom.least_element_above.found_ratio": _ratio(
                    c["least_found"], self.calls["conegeom.least_element_above"]
                ),
                "conegeom.extreme_rays_of_inequality_cone.rays_per_call": _ratio(
                    c["dd_rays"], dd_calls
                ),
                "conegeom.extreme_rays_of_inequality_cone.rank_calls_per_call": _ratio(
                    c["dd_rank_calls"], dd_calls
                ),
                "trace.overhead_ratio": overhead_ratio,
            }
        )
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in metric_specs()
        }

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start, end, parent span index
        (-1 for a root), operation id; the line number is the index."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, and 0 when nothing was attempted; the
    base is reported alongside as a calls_per_op metric."""
    return numerator / denominator if denominator else 0.0
