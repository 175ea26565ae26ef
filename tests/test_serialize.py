"""JSON codec round trips and report shapes.

Everything emitted must be plain JSON data (strings for rationals,
never floats) and byte-stable under canonical_json.
"""

import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latfix.conegeom import Subspace, classify_subspace, positive_cone
from latfix.cyclicity import (
    probe_random_contractions,
    semigroup_imaginary_check,
    verify_dimension_cyclicity,
)
from latfix.exactnum.polynomials import QPolynomial
from latfix.exactnum.rational import QMatrix, QVector, rat
from latfix.fixlattice import fixed_space_report, transfinite_trace
from latfix.opcore import (
    ONE_NORM,
    OperatorFamily,
    PositiveMatrixOperator,
    SUP_NORM,
    power_bounded_analysis,
    weighted_one_norm,
)
from latfix.seqspace import (
    ChainDecl,
    GridDecl,
    IndexSchema,
    L_INFTY,
    SymbolicVector,
    builtin_operator,
    chain_value,
    orbit_sup,
    symbolic_fixed_space,
)
from latfix import serialize as ser
from latfix.cli import main
from latfix.cli.gallery import GALLERY_IDS, run_gallery

fractions_st = st.fractions(min_value=-100, max_value=100, max_denominator=60)
vectors_st = st.lists(fractions_st, min_size=1, max_size=6).map(QVector)

# vector entries in the common spelling, unreduced and with 30-digit parts
part_st = st.one_of(st.integers(0, 12), st.integers(0, 10**30))
ratio_entry_st = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-10**30, 10**30),
              part_st.filter(bool)),
    st.builds(str, st.integers(-10**30, 10**30)),
    st.integers(-10**30, 10**30),
    st.sampled_from(["2/4", "-0", "007/010", "-6/4", "0/7", "10/5"]),
)

# JSON trees with every kind of string the encoder escapes
text_st = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x08\x0c\x1f\x7f\n\r\t\u2028\U0001f600'),
        st.characters(codec=None, categories=("Cc", "Cs", "Co", "L", "N", "P", "S", "Z")),
    ),
    max_size=10,
)
tree_st = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(-10**40, 10**40),
        text_st,
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(text_st, children, max_size=4),
    ),
    max_leaves=25,
)


class TestRationalCodec:
    @given(fractions_st)
    def test_round_trip(self, x):
        assert ser.parse_rational(ser.rational_str(x)) == x

    def test_integer_form(self):
        assert ser.rational_str(Fraction(-3)) == "-3"
        assert ser.rational_str(Fraction(2, 4)) == "1/2"

    def test_accepts_plain_int(self):
        assert ser.parse_rational(7) == Fraction(7)

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            ser.parse_rational(True)

    def test_rejects_garbage(self):
        for bad in ("abc", "1/0", 1.5, None, [1]):
            with pytest.raises(ValueError):
                ser.parse_rational(bad)

    ACCEPTANCE_PROBES = (
        "3/4", " 3/4 ", "\t-3/4\n", "+3", "-0", "0/5", "007", "1/0", "0/0",
        "3/-4", "3 / 4", "1.5", "1e3", "1_000", "0x10", "", " ", "/", "1/",
        "\u0663/4", "\u00bd", 0, -12, 10**30, True, False, 1.5, None, [1], {},
        "3/4\n", "1/00", "-", "--1", "9" * 5000, "1/" + "9" * 5000,
        "9" * 4300, "-" + "9" * 4300 + "/" + "7" * 4300, "1e5000", "1e-5000",
        "1e4000000", "-1E-4000000", "0e4000000",
    )

    @staticmethod
    def earlier_parse_rational(value):
        """The rule parse_rational kept before it called `rat`, plus the
        render limit: a value whose numerator or denominator has more
        digits than `int` renders as a string is rejected."""
        if isinstance(value, bool):
            raise ValueError("boolean")
        if isinstance(value, int):
            q = Fraction(value)
        elif isinstance(value, str):
            try:
                q = Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(value) from exc
        else:
            raise ValueError(value)
        limit = sys.get_int_max_str_digits()
        if limit and max(abs(q.numerator), q.denominator) >= 10**limit:
            raise ValueError(value)
        return q

    def assert_same_acceptance(self, value):
        try:
            expected = self.earlier_parse_rational(value)
        except ValueError:
            with pytest.raises(ValueError):
                ser.parse_rational(value)
        else:
            assert ser.parse_rational(value) == expected

    def test_accepted_set_unchanged(self):
        for value in self.ACCEPTANCE_PROBES:
            self.assert_same_acceptance(value)

    @staticmethod
    def assert_vector_parse_agrees(data):
        """`parse_vector` gives the value of `parse_rational` on every
        entry, or a ValueError with the same message."""
        try:
            expected = QVector([ser.parse_rational(x) for x in data])
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                ser.parse_vector(data)
            assert str(info.value) == str(exc)
        else:
            assert ser.parse_vector(data) == expected

    def test_vector_accepted_set_unchanged(self):
        for value in self.ACCEPTANCE_PROBES:
            self.assert_vector_parse_agrees([value])
            self.assert_vector_parse_agrees([value, "1/3"])
            self.assert_vector_parse_agrees(["1/3", value])

    @given(st.lists(ratio_entry_st, max_size=6))
    def test_vector_parse_matches_fractions(self, data):
        got = ser.parse_vector(data)
        expected = QVector(Fraction(x) for x in data)
        assert (got.nums, got.den, hash(got)) == (
            expected.nums, expected.den, hash(expected)
        )

    def test_huge_exponents_build_no_fraction(self, monkeypatch):
        """A short exponent spelling is decided from its exponent inside
        `rat`: `Fraction` never sees the whole string, which would cost
        seconds building 10**4000000.  The patched `Fraction` fails fast
        where the unguarded one would hang."""
        original = Fraction.__new__

        def guarded_new(cls, numerator=0, denominator=None, **kwargs):
            if isinstance(numerator, str) and re.search(r"[eE][-+]?\d{5}", numerator):
                pytest.fail(f"Fraction built from {numerator!r}")
            return original(cls, numerator, denominator, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(guarded_new))
        for text in ("1e400000", "1e4000000", "-1E-4000000", " 25e+4000000\n"):
            with pytest.raises(ValueError, match="beyond the digit limit"):
                rat(text)
            with pytest.raises(ValueError, match="beyond the digit limit"):
                QVector(["1/3", text])
            with pytest.raises(ValueError, match="^not a rational: "):
                ser.parse_rational(text)
            with pytest.raises(ValueError, match="^not a rational: "):
                ser.parse_vector(["1/3", text])
        assert rat("0e4000000") == 0 and rat("25e-2") == Fraction(1, 4)
        assert ser.parse_rational("0e4000000") == 0
        assert ser.parse_rational("-0.0E-4000000") == 0
        assert ser.parse_vector(["0e4000000", "1/3"]) == QVector([0, rat("1/3")])

    @given(st.text(alphabet="0123456789/+-. _eE\t", max_size=8))
    def test_accepted_strings_unchanged(self, text):
        self.assert_same_acceptance(text)
        self.assert_vector_parse_agrees([text, "-2/6"])


class TestVectorMatrixCodec:
    @given(vectors_st)
    def test_vector_round_trip(self, v):
        data = ser.vector_to_json(v)
        assert all(isinstance(x, str) for x in data)
        assert ser.parse_vector(data) == v

    def test_vector_rejects_non_list(self):
        with pytest.raises(ValueError):
            ser.parse_vector({"x": 1})

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_matrix_round_trip(self, nrows, ncols, data):
        m = QMatrix(
            [
                [data.draw(fractions_st) for _ in range(ncols)]
                for _ in range(nrows)
            ]
        )
        data = {"rows": [ser.vector_to_json(row) for row in m.rows]}
        assert ser.parse_matrix(json.loads(json.dumps(data))) == m

    def test_matrix_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ser.parse_matrix([["1"]])
        with pytest.raises(ValueError):
            ser.parse_matrix({"rows": []})


class TestPolynomialCodec:
    @given(st.lists(fractions_st, min_size=1, max_size=7))
    def test_round_trip(self, coeffs):
        p = QPolynomial(coeffs)
        data = ser.polynomial_to_json(p)
        assert QPolynomial(ser.parse_rational(c) for c in data["coeffs"]) == p


class TestSubspaceCodec:
    @given(st.integers(1, 5), st.integers(0, 3), st.data())
    @settings(max_examples=40)
    def test_round_trip(self, ambient, count, data):
        vectors = [
            QVector([data.draw(fractions_st) for _ in range(ambient)])
            for _ in range(count)
        ]
        s = Subspace.from_vectors(ambient, vectors)
        assert ser.parse_subspace(ser.subspace_to_json(s)) == s

    def test_rejects_bad_ambient(self):
        for text in (
            '{"ambient_dim": -1, "basis": []}',
            '{"basis": []}',
            # a JSON boolean is a Python bool, which is an int subclass
            '{"ambient_dim": true, "basis": [["1"]]}',
            '{"ambient_dim": false, "basis": []}',
        ):
            with pytest.raises(ValueError):
                ser.parse_subspace(json.loads(text))


class TestNormAndOperatorCodec:
    def test_norm_forms(self):
        assert ser.parse_norm("sup") == SUP_NORM
        assert ser.parse_norm("one") == ONE_NORM
        assert ser.parse_norm({"weighted_one": ["1", "1/2"]}) == (
            weighted_one_norm(QVector([1, rat("1/2")]))
        )

    def test_norm_rejects_unknown(self):
        for bad in ("two", {"weighted_one": ["1"], "extra": 1}, 7):
            with pytest.raises(ValueError):
                ser.parse_norm(bad)

    def test_operator_round_trip(self):
        again = ser.parse_operator(
            {"matrix": {"rows": [["1/2", "0"], ["1/3", "1/3"]]}, "norm": "one"}
        )
        assert again.matrix == QMatrix(
            [[rat("1/2"), 0], [rat("1/3"), rat("1/3")]]
        )
        assert again.norm_tag == ONE_NORM

    def test_operator_default_norm(self):
        op = ser.parse_operator({"matrix": {"rows": [["1"]]}})
        assert op.norm_tag == SUP_NORM

    def test_family_round_trip(self):
        t = QMatrix([[rat("1/2"), rat("1/2")], [0, 1]])
        again = ser.parse_family(
            {
                "matrices": [
                    {"rows": [["1/2", "1/2"], ["0", "1"]]},
                    {"rows": [["1/4", "3/4"], ["0", "1"]]},
                ]
            }
        )
        assert [op.matrix for op in again.members] == [t, t @ t]
        assert again.norm_tag == SUP_NORM

    def test_family_rejects_empty(self):
        with pytest.raises(ValueError):
            ser.parse_family({"matrices": []})

    def test_vector_list_forms(self):
        expected = [QVector([1, 2])]
        assert ser.parse_vector_list([["1", "2"]]) == expected
        assert ser.parse_vector_list({"vectors": [["1", "2"]]}) == expected
        with pytest.raises(ValueError):
            ser.parse_vector_list([])


class TestSymbolicCodec:
    @given(
        st.lists(fractions_st, max_size=4),
        fractions_st,
    )
    def test_chain_round_trip(self, prefix, tail):
        c = chain_value(prefix, tail)
        data = ser.chain_to_json(c)
        assert chain_value(
            [ser.parse_rational(x) for x in data["prefix"]],
            ser.parse_rational(data["tail"]),
        ) == c

    def test_symbolic_vector_round_trip(self):
        schema = IndexSchema(
            ("a", "b"),
            chains=(ChainDecl("u", L_INFTY),),
            grid=GridDecl("w", L_INFTY),
        )
        v = SymbolicVector(
            schema,
            QVector([1, rat("-1/2")]),
            chains=(chain_value([3], rat("1/2")),),
            grid_rows=(chain_value([], 1), chain_value([rat("2/3")], 0)),
        )
        data = ser.symbolic_vector_to_json(v)
        assert data == {
            "finite": ["1", "-1/2"],
            "chains": [{"prefix": ["3"], "tail": "1/2"}],
            "grid_rows": [
                {"prefix": [], "tail": "1"},
                {"prefix": ["2/3"], "tail": "0"},
            ],
        }
        json.dumps(data)


class TestReportShapes:
    def test_classification_json(self):
        s = Subspace.from_vectors(3, [QVector([1, 1, 1]), QVector([1, 0, -1])])
        c = classify_subspace(s)
        data = ser.classification_to_json(c, positive_cone(s).rays)
        assert data["verdict"] == "LatticeSubspaceOnly"
        assert data["rays"] == [["0", "1", "2"], ["2", "1", "0"]]
        assert isinstance(data["cone_generating"], bool)
        json.dumps(data)

    def test_fixed_space_report_json(self):
        half = rat("1/2")
        fam = OperatorFamily(
            [
                PositiveMatrixOperator(
                    QMatrix([[half, half, 0], [half, half, 0], [0, 0, 1]]),
                    ONE_NORM,
                )
            ]
        )
        report = fixed_space_report(fam)
        rays = positive_cone(report.fixed_space).rays
        data = ser.fixed_space_report_to_json(report, rays)
        assert data["family_valid"] is True
        assert data["theorem_conformant"] is True
        assert data["classification"]["verdict"] == "Sublattice"
        assert data["norm_checks"][0]["set"] == "{b1, -b1}"
        assert data["norm_checks"][0]["equal"] is True
        json.dumps(data)

    def test_matrix_trace_json(self):
        op = PositiveMatrixOperator(
            QMatrix([[1, 0, 0], [rat("1/3"), rat("1/3"), rat("1/3")], [0, 0, 1]])
        )
        f = QVector([1, 0, -1])
        data = ser.trace_to_json(transfinite_trace(op, [f, -f]))
        assert data["outcome"] == "FixedPointReached"
        assert data["fixed_point"] == ["1", "1", "1"]
        assert data["steps"][0]["is_fixed"] is True
        json.dumps(data)

    def test_symbolic_trace_and_orbit_json(self):
        op = builtin_operator("e42")
        basis = symbolic_fixed_space(op)
        sign_mixed = next(v for v in basis if not v.abs() == v)
        trace = transfinite_trace(op, [sign_mixed, sign_mixed.scale(-1)])
        data = ser.trace_to_json(trace)
        assert data["limit_steps"] == 2
        assert data["steps"][0]["vector"]["finite"] == ["1", "1", "1"]
        json.dumps(data)

        orbit = orbit_sup(op, sign_mixed.abs())
        assert orbit.outcome == "Stabilized"
        json.dumps(ser.symbolic_vector_to_json(orbit.supremum))

    def test_cyclicity_json(self):
        op = PositiveMatrixOperator(QMatrix([[0, 1], [1, 0]]))
        data = ser.cyclicity_report_to_json(verify_dimension_cyclicity(op))
        assert data["verdict"] == "Pass"
        assert data["orders"] == [[1, 1], [2, 1]]
        assert all(set(e) >= {"order", "k", "holds"} for e in data["estimates"])
        json.dumps(data)

    def test_semigroup_json(self):
        data = ser.semigroup_report_to_json(
            semigroup_imaginary_check(QMatrix([[-2, 1], [1, -2]]))
        )
        assert data == {
            "metzler": True,
            "log_norm_sup": "-1",
            "imaginary_eigenvalues": "no purely imaginary eigenvalues",
            "nonzero_imaginary_pairs": 0,
            "verdict": "Pass",
        }

    def test_power_bound_json(self):
        analysis = power_bounded_analysis(
            PositiveMatrixOperator(QMatrix([[1, 0, 0], [1, 1, 1], [0, 0, 1]]))
        )
        data = ser.power_bound_to_json(analysis)
        assert data["verdict"] == "No"
        assert data["offending_factor"] == {"coeffs": ["-1", "1"]}
        json.dumps(data)

    def test_probe_summary_json(self):
        summary = probe_random_contractions(trials=3, dim_max=3, seed=2)
        data = ser.probe_summary_to_json(summary)
        assert data == {"trials": 3, "dim_max": 3, "seed": 2, "violations": 0}


class TestCanonicalJson:
    def test_formatting(self):
        text = ser.canonical_json({"b": 1, "a": [Fraction is None]})
        assert text.endswith("\n")
        assert text == '{\n  "b": 1,\n  "a": [\n    false\n  ]\n}\n'

    def test_ascii_escapes(self):
        assert ser.canonical_json({"k": "\u00e9"}) == '{\n  "k": "\\u00e9"\n}\n'

    def test_stable_across_calls(self):
        data = {"outcome": "Pass", "values": ["1/2", "3"]}
        assert ser.canonical_json(data) == ser.canonical_json(dict(data))

    @staticmethod
    def assert_matches_json_dumps(data):
        expected = json.dumps(data, indent=2, ensure_ascii=True) + "\n"
        assert ser.canonical_json(data) == expected

    @given(tree_st)
    def test_renderer_matches_json_dumps(self, data):
        self.assert_matches_json_dumps(data)

    def test_renderer_edge_cases(self):
        for data in ({}, [], (), "", 0, -1, None, True, [[], {}, ()],
                     {"": {"a": []}}, "\ud800", ["\udfff\ud83d\ude00"]):
            self.assert_matches_json_dumps(data)

    @pytest.mark.parametrize("case_id", GALLERY_IDS)
    def test_renderer_on_gallery_reports(self, case_id):
        self.assert_matches_json_dumps(run_gallery(case_id))

    def test_renderer_on_each_command(self, tmp_path, capsys):
        """The --json output of every command is the `json.dumps`
        rendering of the data it encodes."""
        def write(name, data):
            path = tmp_path / name
            path.write_text(json.dumps(data), encoding="utf-8")
            return str(path)

        third = "1/3"
        family = write("family.json", {
            "matrices": [{"rows": [["1", "0", "0"], [third, third, third],
                                   ["0", "0", "1"]]}],
            "norm": "sup",
        })
        commands = [
            ["classify", "-i", write("subspace.json", {
                "ambient_dim": 3, "basis": [["1", "-1", "0"], ["0", "1", "1/2"]]})],
            ["fixspace", "-i", family],
            ["sup-in-fix", "-i", family, "-g",
             write("vectors.json", [["1", "1/2", "0"], ["0", "1/2", "1"]])],
            ["cyclicity", "-i", write("operator.json", {
                "matrix": {"rows": [["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]]}})],
            ["semigroup", "-i", write("generator.json", {"rows": [["-2", "1"], ["1", "-2"]]})],
            ["probe", "--trials", "2", "--dim-max", "3", "--seed", "4"],
            ["gallery", "run", "e41"],
        ]
        for argv in commands:
            assert main(argv + ["--json"]) == 0, argv
            text = capsys.readouterr().out
            assert text == json.dumps(json.loads(text), indent=2, ensure_ascii=True) + "\n"

    def test_renderer_rejects_float_and_non_str_key(self):
        with pytest.raises(TypeError):
            ser.canonical_json({"x": [1, 0.5]})
        with pytest.raises(TypeError):
            ser.canonical_json({1: "1"})
        with pytest.raises(TypeError):
            ser.canonical_json({"x": Fraction(1, 2)})
