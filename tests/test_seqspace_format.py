"""The one-`QVector` chain format against the `Fraction`-tuple reference.

A `ChainValue` is one canonical `QVector`, the prefix entries then the
tail, and `SymbolicVector` arithmetic, order and norms are `QVector`
operations on the finite part and on chains padded to a common prefix
length.  Hypothesis checks each of them, and `evaluate` and `apply`, for
exact equality with `seqspace_oracles.py` on random schemas: c0 and
l-infinity chains, a grid or none, unequal prefix lengths, prefixes that
end in their tail, zero grid rows, and entries given as unreduced
"p/q" strings.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from latfix.exactnum.rational import ZERO, QMatrix, QVector
from latfix.seqspace import (
    C_ZERO,
    L_INFTY,
    ZERO_CHAIN,
    ChainDecl,
    ChainValue,
    GridDecl,
    IndexSchema,
    LinearFunctionalSpec,
    ShiftInsertOperator,
    SymbolicVector,
    apply,
    chain_value,
    pointwise_sup,
)

from seqspace_oracles import (
    FSymbolicVector,
    fchain_value,
    reference_apply,
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
def spec_st(draw, schema, coeff=coeff_st):
    def terms(keys):
        return draw(st.dictionaries(st.sampled_from(keys), coeff)) if keys else {}

    return LinearFunctionalSpec.build(
        schema,
        terms(schema.finite_coords),
        terms([c.name for c in schema.chains]),
        terms([0, 1, 2, 3] if schema.grid is not None else []),
    )


@st.composite
def operator_st(draw, schema):
    nf = schema.finite_dim
    block = [[draw(coeff_st) for _ in range(nf)] for _ in range(nf)]
    inputs = []
    if nf:
        # repeated coordinates included: every input adds to its coordinate
        inputs = draw(st.lists(st.tuples(st.integers(0, nf - 1), spec_st(schema)), max_size=3))
    grid = schema.grid is not None
    return ShiftInsertOperator(
        schema=schema,
        finite_block=QMatrix(block),
        finite_inputs=tuple(inputs),
        chain_sources=tuple(draw(spec_st(schema)) for _ in schema.chains),
        grid_row0_source=draw(spec_st(schema)) if grid else None,
        grid_cross=draw(coeff_st) if grid else ZERO,
    )


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
        signed = st.builds(Fraction, st.integers(-5, 5), st.sampled_from((1, 2, 3, 10**12)))
        spec = data.draw(spec_st(schema, signed))
        value = spec.evaluate(v)
        assert type(value) is Fraction and value == reference_evaluate(spec, fv)
        op = data.draw(operator_st(schema))
        image, reference = apply(op, v), reference_apply(op, fv)
        assert_same(image, reference)
        assert_same(apply(op, image), reference_apply(op, reference))


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
        assert [c.at(j) for j in range(4)] == [Fraction(-1, 3), 4, Fraction(1, 2), Fraction(1, 2)]
        assert c.padded(3) == QVector([Fraction(-1, 3), 4, Fraction(1, 2), Fraction(1, 2)])
        assert c.shifted(Fraction(7, 5)) == chain_value([Fraction(7, 5), Fraction(-1, 3), 4], "1/2")
        assert c.sup_norm() == 4 and not c.is_zero() and ZERO_CHAIN.is_zero()

    def test_chain_needs_a_tail(self):
        with pytest.raises(ValueError):
            ChainValue(QVector(()))
