"""The one-`QVector` chain format against the `Fraction`-tuple reference.

A `ChainValue` is one canonical `QVector`, the prefix entries then the
tail, and `SymbolicVector` arithmetic, order and norms are `QVector`
operations on the finite part and on chains padded to a common prefix
length.  Hypothesis checks each of them, and `evaluate` and `apply`, for
exact equality with `seqspace_oracles.py` on random schemas: c0 and
l-infinity chains, a grid or none, unequal prefix lengths, prefixes that
end in their tail, zero grid rows, and entries given as unreduced
"p/q" strings.

A functional is one coefficient `QVector` over the stable coordinates.
Every reader of it (`evaluate`, `mass`, `is_nonneg`, the operator norm,
the eigenspaces at 1 and -1, the constant-profile embedding and orbit
suprema) is checked against the term-tuple `TermSpec` reference on the
same operators.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from latfix.exactnum import TheoremViolationError
from latfix.exactnum.rational import ONE, ZERO, QMatrix, QVector
from latfix.seqspace import (
    C_ZERO,
    L_INFTY,
    ZERO_CHAIN,
    ChainDecl,
    ChainValue,
    GridDecl,
    IndexSchema,
    LinearFunctionalSpec,
    NoSupremumError,
    OrbitSup,
    ShiftInsertOperator,
    SymbolicVector,
    apply,
    builtin_operator,
    chain_value,
    constant_profile_embedding,
    orbit_sup,
    pointwise_sup,
    symbolic_eigenspace,
    symbolic_operator_norm,
)

from seqspace_oracles import (
    FSymbolicVector,
    TermSpec,
    fchain_value,
    reference_apply,
    reference_eigenspace,
    reference_embedding,
    reference_evaluate,
    reference_pointwise_sup,
)

ratio_st = st.one_of(
    st.tuples(st.integers(-3, 3), st.sampled_from((1, 2, 4))),
    st.tuples(st.integers(-10**13, 10**13), st.sampled_from((3, 10**12))),
)
# an unreduced "p/q" string or the Fraction it stands for
entry_st = ratio_st.flatmap(
    lambda r: st.sampled_from((f"{r[0]}/{r[1]}", Fraction(*r)))
)
coeff_st = st.builds(Fraction, st.integers(0, 3), st.sampled_from((1, 2, 3, 4)))
signed_st = st.builds(Fraction, st.integers(-5, 5), st.sampled_from((1, 2, 3, 10**12)))
tag_st = st.sampled_from((C_ZERO, L_INFTY))


@st.composite
def schema_st(draw):
    nf = draw(st.integers(0, 3))
    tags = draw(st.lists(tag_st, max_size=3))
    grid = draw(st.none() | tag_st)
    return IndexSchema(
        tuple(f"x{i}" for i in range(nf)),
        tuple(ChainDecl(f"c{i}", tag) for i, tag in enumerate(tags)),
        None if grid is None else GridDecl("g", grid),
    )


@st.composite
def sequence_st(draw, tag):
    """(prefix, tail) of a chain or grid row, often with a prefix that
    ends in the tail, sometimes all zero."""
    if draw(st.integers(0, 5)) == 0:
        return [], "0/3"
    tail = "0" if tag == C_ZERO else draw(entry_st)
    prefix = draw(st.lists(entry_st, max_size=4))
    return prefix + [tail] * draw(st.integers(0, 2)), tail


@st.composite
def raw_vector_st(draw, schema):
    n = schema.finite_dim
    finite = draw(st.lists(entry_st, min_size=n, max_size=n))
    chains = [draw(sequence_st(decl.space_tag)) for decl in schema.chains]
    rows = []
    if schema.grid is not None:
        nrows = draw(st.integers(0, 3))
        rows = [draw(sequence_st(schema.grid.space_tag)) for _ in range(nrows)]
    return finite, chains, rows


def build(schema, raw) -> tuple[SymbolicVector, FSymbolicVector]:
    """The same vector in both formats."""
    finite, chains, rows = raw
    new = SymbolicVector(
        schema,
        QVector(finite),
        tuple(chain_value(p, t) for p, t in chains),
        tuple(chain_value(p, t) for p, t in rows),
    )
    old = FSymbolicVector(
        schema,
        tuple(finite),
        tuple(fchain_value(p, t) for p, t in chains),
        tuple(fchain_value(p, t) for p, t in rows),
    )
    return new, old


@st.composite
def spec_args_st(draw, schema, coeff=coeff_st):
    """The finite and chain-tail coefficients of a functional, as
    `LinearFunctionalSpec.build` takes them."""

    def terms(keys):
        return draw(st.dictionaries(st.sampled_from(keys), coeff)) if keys else {}

    return terms(schema.finite_coords), terms([c.name for c in schema.chains])


def spec_st(schema, coeff=coeff_st):
    return spec_args_st(schema, coeff).map(lambda a: LinearFunctionalSpec.build(schema, *a))


def operator_pair(schema, block, sources, row0, cross):
    """One operator twice: with `LinearFunctionalSpec` functionals and with
    the `TermSpec` reference, each built from the same coefficients."""

    def operator(spec_type):
        def build(args):
            return spec_type.build(schema, *args)

        return ShiftInsertOperator(
            schema=schema,
            finite_block=QMatrix(block),
            chain_sources=tuple(map(build, sources)),
            grid_row0_source=None if row0 is None else build(row0),
            grid_cross=cross,
        )

    return operator(LinearFunctionalSpec), operator(TermSpec)


@st.composite
def operator_pair_st(draw, schema, coeff=coeff_st):
    nf = schema.finite_dim
    block = [[draw(coeff) for _ in range(nf)] for _ in range(nf)]
    sources = [draw(spec_args_st(schema, coeff)) for _ in schema.chains]
    grid = schema.grid is not None
    row0 = draw(spec_args_st(schema, coeff)) if grid else None
    return operator_pair(schema, block, sources, row0, draw(coeff) if grid else ZERO)


def operator_st(schema):
    return operator_pair_st(schema).map(lambda pair: pair[0])


def assert_same(v: SymbolicVector, f: FSymbolicVector) -> None:
    for part in v.parts():
        assert part.den > 0 and gcd(part.den, *part.nums) == 1
    assert v.finite_part.entries == f.finite
    for new, old in ((v.chains, f.chains), (v.grid_rows, f.grid_rows)):
        assert [(c.prefix, c.tail) for c in new] == [(c.prefix, c.tail) for c in old]
        assert all(type(x) is Fraction for c in new for x in c.prefix + (c.tail,))


class TestAgainstFractionReference:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_arithmetic_order_and_norms(self, data):
        schema = data.draw(schema_st())
        u, fu = build(schema, data.draw(raw_vector_st(schema)))
        w, fw = build(schema, data.draw(raw_vector_st(schema)))
        c = data.draw(entry_st)
        assert_same(u, fu)
        assert_same(u + w, fu + fw)
        assert_same(u - w, fu - fw)
        assert_same(-u, -fu)
        assert_same(u.scale(c), fu.scale(c))
        assert_same(u.abs(), fu.abs())
        assert_same(pointwise_sup(u, w), reference_pointwise_sup(fu, fw))
        assert u.ge(w) == fu.ge(fw) and w.ge(u) == fw.ge(fu)
        assert u.ge(u) and pointwise_sup(u, w).ge(w)
        assert u.sup_norm() == fu.sup_norm()
        assert u.is_zero() == fu.is_zero() and (u - u).is_zero()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_evaluate_and_apply(self, data):
        schema = data.draw(schema_st())
        v, fv = build(schema, data.draw(raw_vector_st(schema)))
        spec = data.draw(spec_st(schema, signed_st))
        value = spec.evaluate(v)
        assert type(value) is Fraction and value == reference_evaluate(spec, fv)
        op = data.draw(operator_st(schema))
        image, reference = apply(op, v), reference_apply(op, fv)
        assert_same(image, reference)
        assert_same(apply(op, image), reference_apply(op, reference))


# few distinct coefficients, mostly 0 and 1, so that eigenvalues 1 and -1
# and super fixed vectors are common; 2 gives grids that amplify tails
sparse_st = st.sampled_from((ZERO, ZERO, ZERO, ONE, ONE, ONE, Fraction(1, 2), Fraction(2)))


def outcome(f, *args):
    """f(*args), or the type of the error it raises."""
    try:
        return f(*args)
    except (ValueError, TheoremViolationError) as exc:
        return type(exc)


def assert_readers_agree(op, reference, v):
    """Every reader of the functionals gives the same result, or raises
    the same error type, on op and on its `TermSpec` twin: the image of
    v, the norm, both eigenspaces, their embedding, and the orbit
    suprema of both powers from v, |v|, |v| v T|v| and each |u| for an
    eigenvector u."""
    schema = op.schema
    assert apply(op, v) == apply(reference, v)
    assert symbolic_operator_norm(op) == symbolic_operator_norm(reference)
    eigenvectors = []
    starts = [v, v.abs(), pointwise_sup(v.abs(), apply(op, v.abs()))]
    for lam in (1, -1):
        basis = outcome(symbolic_eigenspace, op, lam)
        assert basis == outcome(reference_eigenspace, reference, lam)
        if isinstance(basis, list):
            eigenvectors += basis
            starts += [u.abs() for u in basis]
    for vectors in (eigenvectors, [v]):
        embedded = outcome(constant_profile_embedding, schema, vectors)
        assert embedded == outcome(reference_embedding, schema, vectors)
    outcomes = []
    for g in starts:
        for power in (1, 2):
            got = outcome(orbit_sup, op, g, power)
            assert got == outcome(orbit_sup, reference, g, power)
            outcomes.append(got)
    return outcomes


H = Fraction(1, 2)
# e41, e42 and e43 of `builtin_operator`, as the arguments of operator_pair
BUILTIN_ARGS = {
    "e41": (
        IndexSchema(("-2", "-1"), (ChainDecl("n", C_ZERO),)),
        [[1, 0], [0, 1]], [({"-2": H, "-1": H}, {})], None, ZERO,
    ),
    "e42": (
        IndexSchema(("1", "2", "3"), (ChainDecl("g", L_INFTY), ChainDecl("h", L_INFTY))),
        [[1, 0, 0], [Fraction(1, 3)] * 3, [0, 0, 1]],
        [({"1": H, "3": H}, {}), ({}, {"g": 1})], None, ZERO,
    ),
    "e43": (
        IndexSchema(("-2", "-1"), grid=GridDecl("rows", L_INFTY)),
        [[0, 1], [1, 0]], [], ({"-2": H, "-1": H}, {}), Fraction(2),
    ),
}


class TestAgainstTermSpec:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_functional(self, data):
        schema = data.draw(schema_st())
        v, _ = build(schema, data.draw(raw_vector_st(schema)))
        args = data.draw(spec_args_st(schema, signed_st))
        spec, reference = LinearFunctionalSpec.build(schema, *args), TermSpec.build(schema, *args)
        assert spec.evaluate(v) == reference.evaluate(v)
        assert spec.mass() == reference.mass()
        assert spec.is_nonneg() == reference.is_nonneg()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_operator_readers(self, data):
        schema = data.draw(schema_st())
        op, reference = data.draw(operator_pair_st(schema, sparse_st))
        v, _ = build(schema, data.draw(raw_vector_st(schema)))
        assert_readers_agree(op, reference, v)

    @pytest.mark.parametrize("name", sorted(BUILTIN_ARGS))
    def test_builtin_operators(self, name):
        op, reference = operator_pair(*BUILTIN_ARGS[name])
        assert op == builtin_operator(name)
        outcomes = assert_readers_agree(op, reference, SymbolicVector.zero(op.schema))
        # the paper's verdicts: no supremum on the c0 chain of e41, a
        # supremum for e42, and unbounded growth under the square of e43
        verdicts = {r if isinstance(r, type) else r.outcome for r in outcomes}
        assert {"e41": NoSupremumError, "e42": "Stabilized", "e43": "Unbounded"}[name] in verdicts
        if name == "e43":
            assert OrbitSup("Unbounded", evidence=(1, 2, 4)) in outcomes


class TestCanonicalChain:
    def test_noncanonical_prefix_equals_canonical(self):
        assert ChainValue(QVector([1, 1])) == chain_value([], 1)
        assert ChainValue(QVector([2, 1, 1])) == chain_value([2], 1)
        wide = ChainValue(QVector.from_ints([3, 2, 2, 2], 4))
        assert wide == chain_value(["3/4"], "2/4")
        assert (wide.values.nums, wide.values.den) == ((3, 2), 4)
        assert hash(wide) == hash(chain_value(["6/8"], "1/2"))
        assert ChainValue(QVector.zero(3)) == ZERO_CHAIN
        assert ChainValue(QVector([5, 0, 1])).prefix == (5, 0)

    def test_views(self):
        c = chain_value(["-2/6", 4], "1/2")
        assert c.prefix == (Fraction(-1, 3), Fraction(4))
        assert c.tail == Fraction(1, 2)
        entries = [c.values[min(j, len(c.values) - 1)] for j in range(4)]
        assert entries == [Fraction(-1, 3), 4, Fraction(1, 2), Fraction(1, 2)]
        assert c.padded(3) == QVector([Fraction(-1, 3), 4, Fraction(1, 2), Fraction(1, 2)])
        assert c.shifted(Fraction(7, 5)) == chain_value([Fraction(7, 5), Fraction(-1, 3), 4], "1/2")
        assert c.sup_norm() == 4 and not c.is_zero() and ZERO_CHAIN.is_zero()

    def test_chain_needs_a_tail(self):
        with pytest.raises(ValueError):
            ChainValue(QVector(()))
