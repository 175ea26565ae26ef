"""Exact rational linear algebra and polynomial analysis.

Scalars are arbitrary-precision rationals; no certified code path ever
touches floating point.  Kernel bases are canonicalized by reduced row
echelon form so that equal subspaces produce byte-identical bases.

`record` (in `exactnum.record`) is the frozen-record decorator of every
latfix result and operator class.  It stands in for the standard frozen
dataclass because each command is a fresh interpreter: that module's
import and its per-class method generation cost more than a small
command's answer.  A record holds only its fields; derived state is a
``cached_property`` or is set by ``__post_init__``.

Import each name from the submodule that defines it (`linalg`,
`polynomials`, `rational`, `record`).  The package itself defines
`TheoremViolationError`; `euler_phi` is re-exported for the benchmark
workloads, which import it from here.
"""
from .polynomials import euler_phi


class TheoremViolationError(RuntimeError):
    """A guarantee of the fixed-space theory failed on a validated
    input; this signals a defect, not a legitimate outcome."""


__all__ = ["TheoremViolationError", "euler_phi"]
