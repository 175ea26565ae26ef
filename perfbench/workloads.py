"""Seeded inputs, operations and output checks of the benchmark workloads.

Every input is the JSON document a user would hand to the `latfix` CLI,
generated here from the workload seed with `random.Random` only.  Each
operation does the work of one CLI command: it parses the input with
`latfix.serialize`, makes the library calls the command makes, renders
the canonical JSON of the output, and checks the answer against
properties that hold for every input of its workload.

The pools are stratified: the traffic dimensions (matrix dimension,
planted cycle order, block count, norm, subspace shape) follow a fixed
schedule, and the seed draws only the entries.  Medians and tail
percentiles then fall inside one stratum for every seed, so different
seeds measure the same mix of work.
"""
from __future__ import annotations

import random
from fractions import Fraction

# Library functions are called through their modules, so that the
# traced run's rebinding of module attributes sees every call.
from latfix import conegeom, cyclicity, fixlattice, serialize
from latfix.cli import gallery
from latfix.conegeom import Verdict
from latfix.exactnum import euler_phi
from latfix.opcore import vector_norm

# ---------------------------------------------------------------------------
# traffic schedules: the pool holds one input per schedule entry.  Counts
# are chosen so that, with inputs sorted by cost, the median and the 90th
# percentile fall inside a run of inputs of one kind, never on the edge
# between a cheap kind and a dear one.


def _expand(spec) -> tuple:
    return tuple(params for params, count in spec for _ in range(count))


def _every_fourth(plain: tuple, planted: tuple) -> tuple:
    plain_it, planted_it = iter(plain), iter(planted)
    total = len(plain) + len(planted)
    return tuple(next(planted_it) if i % 4 == 3 else next(plain_it) for i in range(total))


# (dim, planted cycle order or 0): dims 3-8, every fourth input a planted
# cycle of order 2-6 padded with substochastic filler
CYCLICITY_SCHEDULE = _every_fourth(
    _expand((((3, 0), 7), ((4, 0), 7), ((5, 0), 7), ((6, 0), 3), ((7, 0), 5), ((8, 0), 1))),
    ((3, 2), (4, 2), (4, 3), (5, 3), (5, 4), (6, 4), (6, 5), (7, 5), (7, 6), (8, 6)),
)

# (block sizes, polynomial count, norm): dims 4-8, fixed-space dimension
# = block count, 1-3 commuting polynomials, 11 sup-norm and 9 one-norm.
# Inputs of one kind cost nearly the same for every seed, so 20 inputs
# suffice, and each runs more often in a run.
FIXSPACE_SCHEDULE = _expand(
    (
        (((4,), 1, "sup"), 2),
        (((4,), 3, "one"), 1),
        (((2, 2), 1, "sup"), 2),
        (((2, 2), 2, "one"), 2),
        (((3, 2), 1, "sup"), 1),
        (((4, 3), 2, "sup"), 1),
        (((4, 3), 1, "one"), 2),
        (((7,), 1, "sup"), 1),
        (((2, 2, 2), 2, "sup"), 1),
        (((2, 3, 2), 1, "one"), 1),
        (((4, 4), 1, "one"), 1),
        (((8,), 1, "sup"), 1),
        (((3, 3, 2), 2, "one"), 2),
        (((2, 3, 3), 3, "sup"), 2),
    )
)

# (ambient n, subspace dim, kind): n 9-12, dim about n/2, 54 of 80 mixed.
# The cost of a mixed input varies with its ray count, so the pool is
# large enough that the percentiles rest on many inputs.
CONES_SCHEDULE = _expand(
    (
        ((9, 4, "positive"), 4),
        ((10, 5, "positive"), 4),
        ((11, 5, "positive"), 4),
        ((12, 6, "positive"), 2),
        ((9, 4, "disjoint"), 4),
        ((10, 5, "disjoint"), 4),
        ((11, 5, "disjoint"), 2),
        ((12, 6, "disjoint"), 2),
        ((9, 4, "mixed"), 24),
        ((10, 5, "mixed"), 8),
        ((11, 5, "mixed"), 6),
        ((12, 5, "mixed"), 16),
    )
)


def _matrix_json(rows) -> dict:
    return {"rows": [[str(x) for x in row] for row in rows]}


# ---------------------------------------------------------------------------
# generators


def _substochastic_rows(rng: random.Random, dim: int) -> list[list[Fraction]]:
    """Nonnegative rows with sums at most 1, about a third of them
    exactly 1, the rest strictly below."""
    rows = []
    for _ in range(dim):
        den = rng.randint(2, 9)
        nums = [rng.randint(0, den) if rng.random() < 0.7 else 0 for _ in range(dim)]
        total = sum(nums) or 1
        scale = total if rng.random() < 0.35 else max(total + 1, den)
        rows.append([Fraction(a, scale) for a in nums])
    return rows


def _cyclicity_input(rng: random.Random, dim: int, order: int) -> dict:
    if not order:
        rows = _substochastic_rows(rng, dim)
    else:
        filler = _substochastic_rows(rng, dim - order)
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(order):
            rows[i][(i + 1) % order] = Fraction(1)
        for i, row in enumerate(filler):
            rows[order + i][order:] = row
        perm = list(range(dim))
        rng.shuffle(perm)
        rows = [[rows[perm[i]][perm[j]] for j in range(dim)] for i in range(dim)]
    return {"operator": {"matrix": _matrix_json(rows), "norm": "sup"}, "order": order}


def _positive_stochastic_block(rng: random.Random, size: int) -> list[list[Fraction]]:
    rows = []
    for _ in range(size):
        nums = [rng.randint(1, 4) for _ in range(size)]
        total = sum(nums)
        rows.append([Fraction(a, total) for a in nums])
    return rows


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _fixspace_input(rng: random.Random, blocks, members: int, norm: str) -> dict:
    dim = sum(blocks)
    base = [[Fraction(0)] * dim for _ in range(dim)]
    offset = 0
    for size in blocks:
        for i, row in enumerate(_positive_stochastic_block(rng, size)):
            base[offset + i][offset:offset + size] = row
        offset += size
    if norm == "one":
        # column-stochastic: a one-norm contraction
        base = [list(col) for col in zip(*base)]
    identity = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    square = _matmul(base, base)
    matrices = []
    for _ in range(members):
        # convex weights on I, M, M^2 with weight on M or M^2, so the
        # family fixes exactly the fixed space of M
        w = [rng.randint(0, 2), rng.randint(1, 3), rng.randint(0, 2)]
        total = sum(w)
        matrices.append(
            [
                [
                    (w[0] * identity[i][j] + w[1] * base[i][j] + w[2] * square[i][j])
                    / total
                    for j in range(dim)
                ]
                for i in range(dim)
            ]
        )
    coeffs = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in blocks] for _ in range(2)]
    for c in coeffs:
        if not any(c):
            c[0] = Fraction(1)
    return {
        "family": {"matrices": [_matrix_json(m) for m in matrices], "norm": norm},
        "combos": [[str(x) for x in c] for c in coeffs],
    }


def _cones_input(rng: random.Random, n: int, d: int, kind: str) -> dict:
    """A spanning set of a d-dimensional subspace of R^n.

    mixed: mixed-sign vectors whose span holds a strictly positive
    vector, so the positive cone is d-dimensional with many rays;
    positive: nonnegative vectors, each with a coordinate of its own, so
    the cone is simplicial but supports overlap; disjoint: nonnegative
    vectors with pairwise disjoint supports.
    """
    cols = list(range(n))
    rng.shuffle(cols)
    if kind == "mixed":
        interior = [rng.randint(1, 3) for _ in range(n)]
        vectors = []
        while len(vectors) < d - 1:
            v = [rng.randint(-2, 2) for _ in range(n)]
            if min(v) < 0 < max(v):
                vectors.append(v)
        last = [a + b for a, b in zip(interior, vectors[0])]
        vectors.append(last if min(last) < 0 else [a - b for a, b in zip(interior, vectors[1])])
    else:
        vectors = [[0] * n for _ in range(d)]
        for i, j in enumerate(cols[:d]):
            vectors[i][j] = rng.randint(1, 4)
        for j in cols[d:]:
            if kind == "disjoint":
                vectors[rng.randrange(d)][j] = rng.randint(1, 4)
            else:
                for v in vectors:
                    v[j] = rng.randint(0, 3)
    return {"subspace": {"ambient_dim": n, "basis": [[str(x) for x in v] for v in vectors]}}


def make_pool(workload: str, seed: int) -> list:
    """The inputs of one pass over the workload, a function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cyclicity":
        return [_cyclicity_input(rng, *s) for s in CYCLICITY_SCHEDULE]
    if workload == "fixspace":
        return [_fixspace_input(rng, *s) for s in FIXSPACE_SCHEDULE]
    if workload == "cones":
        return [_cones_input(rng, *s) for s in CONES_SCHEDULE]
    if workload == "gallery":
        ids = list(gallery.GALLERY_IDS)
        rng.shuffle(ids)
        return ids
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# operations: run() does the command's work and returns its canonical JSON
# text with the objects the checks need; check() lists failed properties.
# Only run() is timed and traced.


def _run_cyclicity(data: dict):
    op = serialize.parse_operator(data["operator"])
    report = cyclicity.verify_dimension_cyclicity(op)
    return serialize.canonical_json(serialize.cyclicity_report_to_json(report)), (op, report)


def _check_cyclicity(data: dict, facts) -> list[str]:
    op, report = facts
    problems = []
    if report.verdict != "Pass":
        problems.append(f"verdict {report.verdict}")
    if report.non_cyclotomic_boundary:
        problems.append("non-cyclotomic boundary on a positive contraction")
    geometric = dict(report.orders)
    algebraic = dict(report.algebraic_orders)
    order = data["order"]
    if order and geometric.get(order, 0) < 1:
        problems.append(f"planted order {order} missing")
    if sum(m * euler_phi(n) for n, m in report.orders) > op.dim:
        problems.append("root-of-unity multiplicities exceed the dimension")
    for n, m in report.orders:
        if algebraic.get(n, 0) < m:
            problems.append(f"algebraic multiplicity below geometric at order {n}")
    return problems


def _run_fixspace(data: dict):
    family = serialize.parse_family(data["family"])
    tag = family.norm_tag
    # latfix fixspace
    report = fixlattice.fixed_space_report(family)
    fixed = report.fixed_space
    rays = () if fixed.is_zero() else conegeom.positive_cone(fixed).rays
    texts = [serialize.canonical_json(serialize.fixed_space_report_to_json(report, rays))]
    # latfix sup-in-fix on {b, -b} for every fixed basis vector
    sups = []
    for b in fixed.basis:
        g_f, g_e = fixlattice.sup_in_fixspace(family, [b, -b])
        sups.append((g_f, g_e))
        texts.append(
            serialize.canonical_json(
                {
                    "g_F": serialize.vector_to_json(g_f),
                    "g_E": serialize.vector_to_json(g_e),
                    "g_F_norm": serialize.rational_str(vector_norm(g_f, tag)),
                    "g_E_norm": serialize.rational_str(vector_norm(g_e, tag)),
                }
            )
        )
    # least fixed vector above the ambient max of two fixed vectors
    f1, f2 = (fixed.from_coefficients(serialize.parse_vector(c)) for c in data["combos"])
    g = f1.cwise_max(f2)
    least = fixlattice.least_fixed_above(family, g)
    texts.append(
        serialize.canonical_json(
            {"g": serialize.vector_to_json(g), "least_fixed_above": serialize.vector_to_json(least)}
        )
    )
    return "".join(texts), (family, report, sups, g, least)


def _check_fixspace(data: dict, facts) -> list[str]:
    family, report, sups, g, least = facts
    problems = []
    if not report.family_valid or report.theorem_conformant is not True:
        problems.append("family invalid or report not theorem-conformant")
    if not all(check.equal for check in report.norm_checks):
        problems.append("a norm check is not equal")
    if report.fixed_space.dim != len(data["combos"][0]):
        problems.append("fixed-space dimension differs from the block count")
    if not all(g_f.ge(g_e) for g_f, g_e in sups):
        problems.append("g_F below g_E")
    if not least.ge(g):
        problems.append("least fixed vector does not dominate g")
    if any(member.apply(least) != least for member in family.members):
        problems.append("least fixed vector is not fixed")
    return problems


def _run_cones(data: dict):
    subspace = serialize.parse_subspace(data["subspace"])
    classification = conegeom.classify_subspace(subspace)
    rays = () if subspace.is_zero() else conegeom.positive_cone(subspace).rays
    text = serialize.canonical_json(
        {
            "subspace": serialize.subspace_to_json(subspace),
            "classification": serialize.classification_to_json(classification, rays),
        }
    )
    return text, (subspace, classification, rays)


def _check_cones(data: dict, facts) -> list[str]:
    subspace, c, rays = facts
    problems = []
    if not all(r.is_nonneg() and not r.is_zero() and subspace.contains(r) for r in rays):
        problems.append("a ray is not a nonzero nonnegative vector of the subspace")
    if conegeom.positive_cone(subspace).rays != rays:
        problems.append("positive_cone calls disagree")
    disjoint = all(
        not (rays[i].support() & rays[j].support())
        for i in range(len(rays))
        for j in range(i + 1, len(rays))
    )
    if c.rays_support_disjoint != disjoint:
        problems.append("disjoint-support flag contradicts the rays")
    if c.cone_simplicial != (c.cone_generating and len(rays) == subspace.dim):
        problems.append("simplicial flag contradicts the ray count")
    if c.cone_generating and len(rays) < subspace.dim:
        problems.append("generating cone with fewer rays than dimensions")
    if not c.cone_simplicial:
        expected = Verdict.NOT_LATTICE_SUBSPACE
    elif disjoint:
        expected = Verdict.SUBLATTICE
    else:
        expected = Verdict.LATTICE_SUBSPACE_ONLY
    if c.verdict != expected:
        problems.append(f"verdict {c.verdict.value}, flags say {expected.value}")
    return problems


def _run_gallery(case_id: str):
    match, text = gallery.case_matches(case_id)
    return text, match


def _check_gallery(case_id: str, match: bool) -> list[str]:
    return [] if match else [f"gallery case {case_id} differs from its fixture"]


OPERATIONS = {
    "cyclicity": (_run_cyclicity, _check_cyclicity),
    "fixspace": (_run_fixspace, _check_fixspace),
    "cones": (_run_cones, _check_cones),
    "gallery": (_run_gallery, _check_gallery),
}
