"""Worked-example gallery: every case must reproduce its fixture
byte-for-byte, and the fixtures must say what the analysis claims."""

import json

import pytest

from latfix import opcore
from latfix.cli import gallery
from latfix.exactnum import TheoremViolationError


@pytest.mark.parametrize("case_id", gallery.GALLERY_IDS)
def test_case_matches_fixture(case_id):
    match, text = gallery.case_matches(case_id)
    assert match
    assert text == gallery.expected_text(case_id)


def test_unknown_case_rejected():
    with pytest.raises(ValueError, match="unknown gallery case"):
        gallery.run_gallery("e99")


def test_missing_fixture_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(gallery, "FIXTURE_DIR", tmp_path)
    with pytest.raises(ValueError, match="missing gallery fixture"):
        gallery.expected_text("e41")


def test_regenerate_writes_all(tmp_path, monkeypatch):
    monkeypatch.setattr(gallery, "FIXTURE_DIR", tmp_path / "fx")
    written = gallery.regenerate_fixtures()
    assert written == list(gallery.GALLERY_IDS)
    for case_id in gallery.GALLERY_IDS:
        match, _ = gallery.case_matches(case_id)
        assert match


@pytest.mark.parametrize(
    "case_id, target, fake, match",
    [
        (
            "intro-strict",
            (opcore.PositiveMatrixOperator, "apply"),
            lambda self, x: x.scale(2),
            "fixed vector is not fixed",
        ),
        (
            "intro-kb",
            (gallery, "super_fixed_check"),
            lambda *args: False,
            "not super fixed",
        ),
        (
            "intro-kb",
            (gallery, "least_element_above"),
            lambda *args: None,
            "no least fixed vector",
        ),
        (
            "e42a",
            (gallery, "modulus_in"),
            lambda *args: None,
            "no modulus",
        ),
    ],
    ids=["fixed-vector", "super-fixed", "least-fixed", "modulus"],
)
def test_case_check_raises(case_id, target, fake, match, monkeypatch):
    monkeypatch.setattr(*target, fake)
    with pytest.raises(TheoremViolationError, match=match):
        gallery.run_gallery(case_id)


def fixture(case_id):
    return json.loads(gallery.expected_text(case_id))


class TestFrozenContents:
    def test_intro_strict(self):
        data = fixture("intro-strict")
        assert data["norm"] == "one"
        assert data["operator_norm"] == "1"
        assert data["report"]["classification"]["verdict"] == "Sublattice"
        assert data["report"]["theorem_conformant"] is True
        assert data["modulus_fixed"] is True
        assert data["fixed_vector"] == ["1", "1", "-1"]

    def test_intro_kb(self):
        data = fixture("intro-kb")
        assert data["operator_norm"] == "5/3"
        assert data["contractive"] is False
        assert data["power_bounded"]["verdict"] == "Yes"
        lfa = data["least_fixed_above"]
        assert lfa["bound"] == ["1", "0", "1"]
        assert lfa["norm_preserved"] is False
        assert lfa["result_norm"] == "2"

    def test_e41(self):
        data = fixture("e41")
        assert data["operator_norm"] == "1"
        assert data["classification"]["verdict"] == "NotLatticeSubspace"
        assert data["classification"]["rays"] == []
        assert data["positive_fixed_vectors_only_zero"] is True
        (basis_vector,) = data["fixed_space_basis"]
        assert basis_vector["finite"] == ["1", "-1"]
        assert basis_vector["chains"] == [{"prefix": [], "tail": "0"}]

    def test_e42a(self):
        data = fixture("e42a")
        report = data["report"]
        assert report["classification"]["verdict"] == "LatticeSubspaceOnly"
        assert report["classification"]["rays"] == [
            ["0", "1", "2"],
            ["2", "1", "0"],
        ]
        assert report["theorem_conformant"] is True
        within = data["modulus_within"]
        assert within["ambient_modulus"] == ["1", "0", "1"]
        assert within["result"] == ["1", "1", "1"]

    def test_e42b(self):
        data = fixture("e42b")
        trace = data["trace"]
        assert trace["outcome"] == "FixedPointReached"
        assert trace["limit_steps"] == 2
        assert [step["is_fixed"] for step in trace["steps"]] == [False, True]
        assert trace["fixed_point"]["finite"] == ["1", "1", "1"]
        assert trace["fixed_point"]["chains"] == [
            {"prefix": [], "tail": "1"},
            {"prefix": [], "tail": "1"},
        ]

    def test_e43(self):
        data = fixture("e43")
        assert data["operator_norm"] == "2"
        assert data["eigenspace_plus_one"] == []
        (f,) = data["eigenspace_minus_one"]
        assert f["finite"] == ["1", "-1"]
        assert data["fix_of_square"]["classification"]["verdict"] == (
            "NotLatticeSubspace"
        )
        trace = data["trace_of_square"]
        assert trace["outcome"] == "Unbounded"
        assert trace["evidence"] == ["1", "2", "4"]
        assert trace["steps"] == []

    def test_e44(self):
        data = fixture("e44")
        assert data["char_poly"] == {"coeffs": ["-1", "3", "-3", "1"]}
        assert data["power_bounded"]["verdict"] == "No"
        report = data["report"]
        assert report["family_valid"] is False
        assert report["theorem_conformant"] is None
        assert report["classification"]["verdict"] == "NotLatticeSubspace"
        assert report["classification"]["rays"] == [["0", "1", "0"]]
