"""Peripheral spectrum cyclicity of positive contractions.

For a positive contraction, every unimodular eigenvalue lambda that is
a root of unity drags its whole power orbit along: lambda^k is again an
eigenvalue and the eigenspace dimension can only grow when passing from
lambda to lambda^k.  This module makes that dimension estimate an
executable check in rational arithmetic: trial division by the
cyclotomic polynomials (``polynomials.cyclotomic_division``) gives the
root-of-unity content of the characteristic polynomial, the n-th
cyclotomic is evaluated at the matrix (its kernel has dimension
multiplicity * phi(n)) only when it divides the characteristic
polynomial more than once (a simple factor forces multiplicity 1), and
a Sturm count on the cyclotomic-free remainder finds the unimodular
eigenvalues that are not roots of unity.  Nothing is factored, so there
is no degree bound.

The related semigroup statement is covered in its finite-dimensional
form: a Metzler matrix with nonpositive logarithmic sup norm generates
a positive contractive semigroup, whose generator then cannot have
nonzero purely imaginary point spectrum (the eigenvalue i*beta would
force the infinite family i*k*beta).  Absence is certified by splitting
the characteristic polynomial into even and odd parts and Sturm
counting the common roots on the negative axis.

The randomized prober documents its own limitation: a positive matrix
decomposes into a block-triangular (Frobenius) normal form whose
peripheral eigenvalues are roots of unity times the spectral radius, so
finite dimensions can only supply consistency evidence for the open
infinite-dimensional question, never a counterexample.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from .exactnum import TheoremViolationError
from .exactnum.linalg import char_poly, poly_of_matrix, rank
from .exactnum.polynomials import (
    QPolynomial,
    cyclotomic,
    cyclotomic_division,
    euler_phi,
    has_unimodular_root,
    poly_gcd,
    strip_zero_roots,
    sturm_count,
)
from .exactnum.rational import QMatrix, QVector
from .exactnum.record import record
from .opcore import PositiveMatrixOperator, contraction_check

PROBE_STRUCTURAL_NOTE = (
    "finite-dimensional positive matrices reduce to a block-triangular"
    " Frobenius normal form whose peripheral eigenvalues are roots of"
    " unity times the spectral radius, so random matrix probing can only"
    " produce consistency evidence for the infinite-dimensional open"
    " question, never a counterexample"
)


def root_of_unity_spectrum(
    op: PositiveMatrixOperator,
) -> list[tuple[int, int]]:
    """Orders n whose primitive n-th roots of unity are eigenvalues,
    with geometric multiplicities, ascending by order."""
    return list(verify_dimension_cyclicity(op).orders)


def algebraic_root_of_unity_spectrum(
    op: PositiveMatrixOperator,
) -> list[tuple[int, int]]:
    """Like root_of_unity_spectrum but with algebraic multiplicities,
    read off from repeated cyclotomic division of the characteristic
    polynomial."""
    return list(verify_dimension_cyclicity(op).algebraic_orders)


def non_cyclotomic_boundary(op: PositiveMatrixOperator) -> bool:
    """True when the matrix has a unimodular eigenvalue that is not a
    root of unity.  A root of unity has a cyclotomic (irreducible)
    minimal polynomial, so these are the unimodular roots left after
    trial division by the cyclotomics; a Sturm count finds them, with no
    factorization and no degree bound."""
    return verify_dimension_cyclicity(op).non_cyclotomic_boundary


@record
class DimensionEstimate:
    order: int
    k: int
    mult_at_order: int
    reduced_order: int
    mult_at_reduced: int
    holds: bool


@record
class CyclicityReport:
    orders: tuple[tuple[int, int], ...]
    algebraic_orders: tuple[tuple[int, int], ...]
    non_cyclotomic_boundary: bool
    estimates: tuple[DimensionEstimate, ...]
    verdict: str


def verify_dimension_cyclicity(op: PositiveMatrixOperator) -> CyclicityReport:
    """Check the eigenspace dimension estimate on all root-of-unity
    eigenvalues: passing from a primitive n-th root to its k-th power
    (a primitive n/gcd(n,k)-th root) can only grow the eigenspace.

    Verdict is Inapplicable when the operator is not contractive (the
    estimate is a theorem only for positive contractions; the report
    still carries the data), Fail when a validated instance violates
    the estimate (a defect signal), Pass otherwise.
    """
    algebraic, rest = cyclotomic_division(char_poly(op.matrix))
    # The primitive n-th roots of unity are conjugate over the rationals,
    # so the kernel of the n-th cyclotomic at the matrix has dimension
    # g * phi(n) with 1 <= g <= mult; a simple factor forces g = 1.
    geometric = dict(algebraic)
    for n, mult in algebraic.items():
        if mult == 1:
            continue
        phi = euler_phi(n)
        kernel_dim = op.dim - rank(poly_of_matrix(cyclotomic(n), op.matrix))
        g, leftover = divmod(kernel_dim, phi)
        if leftover or not 1 <= g <= mult:
            raise TheoremViolationError(
                f"kernel of the order-{n} cyclotomic at the matrix has"
                f" dimension {kernel_dim}, not g * {phi} with 1 <= g <= {mult}"
            )
        geometric[n] = g
    orders = tuple(geometric.items())
    estimates: list[DimensionEstimate] = []
    for n, m in orders:
        for k in range(n):
            reduced = n // gcd(n, k)
            m_reduced = geometric.get(reduced, 0)
            estimates.append(
                DimensionEstimate(
                    order=n,
                    k=k,
                    mult_at_order=m,
                    reduced_order=reduced,
                    mult_at_reduced=m_reduced,
                    holds=m_reduced >= m,
                )
            )
    if not contraction_check(op):
        verdict = "Inapplicable"
    elif all(e.holds for e in estimates):
        verdict = "Pass"
    else:
        verdict = "Fail"
    return CyclicityReport(
        orders=orders,
        algebraic_orders=tuple(algebraic.items()),
        non_cyclotomic_boundary=has_unimodular_root(rest),
        estimates=tuple(estimates),
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# semigroup generators


@record
class SemigroupReport:
    metzler: bool
    log_norm_sup: Fraction
    imaginary_eigenvalues: str
    nonzero_imaginary_pairs: int
    verdict: str


def _even_odd_split(p: QPolynomial) -> tuple[QPolynomial, QPolynomial]:
    """p(x) = E(x^2) + x * O(x^2)."""
    even = QPolynomial.from_ints(p.nums[0::2], p.den)
    odd = QPolynomial.from_ints(p.nums[1::2], p.den)
    return even, odd


def _imaginary_pair_count(p: QPolynomial) -> int:
    """Number of distinct conjugate pairs (i*beta, -i*beta), beta > 0,
    of roots of p.

    i*beta is a root iff the even and odd parts of p share the root
    -beta^2, so the count is a Sturm count of their gcd, reflected, on
    the positive axis.
    """
    common = strip_zero_roots(poly_gcd(*_even_odd_split(p)))
    if common.degree == 0:
        return 0
    reflected = QPolynomial.from_ints(
        (c if i % 2 == 0 else -c for i, c in enumerate(common.nums)), common.den
    )
    return sturm_count(reflected, lo=0, hi=None)


def log_norm_sup(matrix: QMatrix) -> Fraction:
    """Logarithmic norm induced by the sup norm: the largest of
    a_ii + sum of |a_ij| over j != i.  Nonpositive iff the semigroup
    e^(tA) is sup-norm contractive for all t >= 0."""
    values = []
    for i, row in enumerate(matrix.rows):
        total = row[i]
        for j, entry in enumerate(row):
            if j != i:
                total += abs(entry)
        values.append(total)
    return max(values)


def is_metzler(matrix: QMatrix) -> bool:
    return all(
        entry >= 0
        for i, row in enumerate(matrix.rows)
        for j, entry in enumerate(row)
        if i != j
    )


def semigroup_imaginary_check(matrix: QMatrix) -> SemigroupReport:
    """Certify a positive contractive semigroup (Metzler generator,
    nonpositive logarithmic sup norm) and verify the absence of nonzero
    purely imaginary point spectrum, the finite-dimensional consequence
    of imaginary-axis cyclicity.

    Verdict is Inapplicable when certification fails, Fail when a
    certified generator nevertheless has a nonzero imaginary eigenvalue
    (a defect signal), Pass otherwise.
    """
    if not matrix.is_square():
        raise ValueError("generator must be square")
    metzler = is_metzler(matrix)
    mu = log_norm_sup(matrix)
    p = char_poly(matrix)
    pairs = _imaginary_pair_count(p)
    has_zero = p.evaluate(0) == 0
    if pairs:
        description = (
            f"{pairs} conjugate pair(s) of nonzero purely imaginary"
            " eigenvalues"
        )
    elif has_zero:
        description = "eigenvalue 0 only on the imaginary axis"
    else:
        description = "no purely imaginary eigenvalues"
    if not metzler or mu > 0:
        verdict = "Inapplicable"
    elif pairs:
        verdict = "Fail"
    else:
        verdict = "Pass"
    return SemigroupReport(
        metzler=metzler,
        log_norm_sup=mu,
        imaginary_eigenvalues=description,
        nonzero_imaginary_pairs=pairs,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# randomized probing


@record
class ProbeRecord:
    trial: int
    dim: int
    orders: tuple[tuple[int, int], ...]
    verdict: str
    non_cyclotomic_boundary: bool


@record
class ProbeSummary:
    trials: int
    dim_max: int
    seed: int
    violations: int
    records: tuple[ProbeRecord, ...]


def random_positive_contraction(rng: random.Random, dim: int) -> QMatrix:
    """Random entrywise-nonnegative matrix with row sums at most 1, so
    a sup-norm contraction."""
    rows = []
    for _ in range(dim):
        denominator = rng.randint(2, 12)
        numerators = [rng.randint(0, denominator) for _ in range(dim)]
        total = sum(numerators)
        scale = max(total, denominator)
        rows.append(QVector(Fraction(a, scale) for a in numerators))
    return QMatrix(rows)


def probe_random_contractions(
    trials: int,
    dim_max: int = 6,
    seed: int = 42,
    out_path: str | None = None,
) -> ProbeSummary:
    """Generate random positive contractions and check, for each, that
    the peripheral spectrum consists of roots of unity and that the
    dimension estimate holds.  Any violation is a defect of this
    implementation, never a mathematical discovery; the log header
    records why (see PROBE_STRUCTURAL_NOTE).

    Trials derive independent seeds from (seed, trial index), so any
    execution order or distribution across workers produces the same
    records; the log is written in trial order.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    if dim_max < 1:
        raise ValueError("dimension bound must be positive")
    import random  # here, so that no other command pays for the import

    records: list[ProbeRecord] = []
    violations = 0
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        dim = rng.randint(1, dim_max)
        op = PositiveMatrixOperator(random_positive_contraction(rng, dim))
        report = verify_dimension_cyclicity(op)
        bad = report.verdict != "Pass" or report.non_cyclotomic_boundary
        if bad:
            violations += 1
        records.append(
            ProbeRecord(
                trial=trial,
                dim=dim,
                orders=report.orders,
                verdict=report.verdict,
                non_cyclotomic_boundary=report.non_cyclotomic_boundary,
            )
        )
    summary = ProbeSummary(
        trials=trials,
        dim_max=dim_max,
        seed=seed,
        violations=violations,
        records=tuple(records),
    )
    if out_path is not None:
        write_probe_log(summary, out_path)
    return summary


def write_probe_log(summary: ProbeSummary, path: str) -> None:
    """JSON-lines evidence log: one header object, then one record per
    trial in trial order."""
    with open(path, "w", encoding="utf-8") as handle:
        header = {
            "trials": summary.trials,
            "dim_max": summary.dim_max,
            "seed": summary.seed,
            "violations": summary.violations,
            "reason": PROBE_STRUCTURAL_NOTE,
        }
        handle.write(json.dumps(header) + "\n")
        for record in summary.records:
            line = {
                "trial": record.trial,
                "dim": record.dim,
                "orders": [list(pair) for pair in record.orders],
                "verdict": record.verdict,
                "non_cyclotomic_boundary": record.non_cyclotomic_boundary,
            }
            handle.write(json.dumps(line) + "\n")
