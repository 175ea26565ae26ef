"""Command-line surface: exit codes, JSON output, input validation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latfix.cli import main
from latfix.cli import gallery
from latfix.conegeom import UNBOUNDED, LPResult, core
from latfix.exactnum.linalg import poly_of_matrix


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def family_payload():
    third = "1/3"
    return {
        "matrices": [
            {"rows": [["1", "0", "0"], [third, third, third], ["0", "0", "1"]]}
        ],
        "norm": "sup",
    }


class TestGalleryCommand:
    @pytest.mark.parametrize("case_id", gallery.GALLERY_IDS)
    def test_run_single(self, case_id, capsys):
        assert main(["gallery", "run", case_id]) == 0
        captured = capsys.readouterr()
        assert f"[{case_id}] match" in captured.err

    def test_run_all_json(self, capsys):
        assert main(["gallery", "all", "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count('"id"') == len(gallery.GALLERY_IDS)

    def test_unknown_id_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["gallery", "run", "nope"])
        assert exc.value.code == 2

    def test_tampered_fixture_fails(self, tmp_path, monkeypatch, capsys):
        fresh = tmp_path / "fixtures"
        fresh.mkdir()
        for case_id in gallery.GALLERY_IDS:
            fresh.joinpath(f"{case_id}.json").write_text(
                gallery.expected_text(case_id), encoding="utf-8"
            )
        target = fresh / "e44.json"
        target.write_text(
            target.read_text().replace('"No"', '"Yes"'), encoding="utf-8"
        )
        monkeypatch.setattr(gallery, "FIXTURE_DIR", fresh)
        assert main(["gallery", "all"]) == 1
        assert "[e44] MISMATCH" in capsys.readouterr().err

    def test_regen_roundtrip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(gallery, "FIXTURE_DIR", tmp_path / "fx")
        assert main(["gallery", "regen"]) == 0
        assert "regenerated 7 fixtures" in capsys.readouterr().out
        assert main(["gallery", "all"]) == 0


class TestClassifyCommand:
    def test_happy_path_json(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "s.json",
            {"ambient_dim": 3, "basis": [["1", "1", "1"], ["1", "0", "-1"]]},
        )
        assert main(["classify", "-i", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["classification"]["verdict"] == "LatticeSubspaceOnly"
        assert data["classification"]["rays"] == [["0", "1", "2"], ["2", "1", "0"]]

    def test_text_output(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "s.json", {"ambient_dim": 2, "basis": [["1", "0"]]}
        )
        assert main(["classify", "-i", path]) == 0
        assert "verdict: \"Sublattice\"" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["classify", "-i", "/no/such/file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["classify", "-i", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_shape(self, tmp_path):
        path = write_json(tmp_path / "s.json", {"basis": []})
        assert main(["classify", "-i", path]) == 2

    def test_double_description_runs_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        real = core.extreme_rays_of_inequality_cone

        def counted(rows):
            calls.append(rows)
            return real(rows)

        monkeypatch.setattr(core, "extreme_rays_of_inequality_cone", counted)
        path = write_json(
            tmp_path / "s.json",
            {"ambient_dim": 3, "basis": [["1", "1", "1"], ["1", "0", "-1"]]},
        )
        assert main(["classify", "-i", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["classification"]["rays"] == [["0", "1", "2"], ["2", "1", "0"]]
        assert len(calls) == 1


class TestFixspaceCommand:
    def test_happy_path(self, tmp_path, capsys):
        path = write_json(tmp_path / "fam.json", family_payload())
        assert main(["fixspace", "-i", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["family_valid"] is True
        assert data["theorem_conformant"] is True
        assert data["classification"]["verdict"] == "LatticeSubspaceOnly"

    def test_invalid_family_still_reports(self, tmp_path, capsys):
        payload = {
            "matrices": [
                {"rows": [["1", "0", "0"], ["1", "1", "1"], ["0", "0", "1"]]}
            ]
        }
        path = write_json(tmp_path / "fam.json", payload)
        assert main(["fixspace", "-i", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["family_valid"] is False
        assert data["theorem_conformant"] is None

    def test_non_commuting_family_invalid_input(self, tmp_path, capsys):
        payload = {
            "matrices": [
                {"rows": [["1", "0"], ["0", "0"]]},
                {"rows": [["1/2", "1/2"], ["0", "1"]]},
            ]
        }
        path = write_json(tmp_path / "fam.json", payload)
        assert main(["fixspace", "-i", path]) == 2


    def test_double_description_runs_once(self, tmp_path, monkeypatch, capsys):
        # the fixed space has dimension 2, so the two {b, -b} norm checks
        # read their suprema off the report's own classification
        calls = []
        real = core.extreme_rays_of_inequality_cone

        def counted(rows):
            calls.append(rows)
            return real(rows)

        monkeypatch.setattr(core, "extreme_rays_of_inequality_cone", counted)
        path = write_json(tmp_path / "fam.json", family_payload())
        assert main(["fixspace", "-i", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["fixed_space"]["basis"]) == 2
        assert len(data["norm_checks"]) == 2
        assert len(calls) == 1


class TestSupInFixCommand:
    def test_happy_path(self, tmp_path, capsys):
        fam = write_json(tmp_path / "fam.json", family_payload())
        vecs = write_json(
            tmp_path / "vecs.json", [["1", "0", "-1"], ["-1", "0", "1"]]
        )
        assert main(["sup-in-fix", "-i", fam, "-g", vecs, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "g_F": ["1", "1", "1"],
            "g_E": ["1", "0", "1"],
            "g_F_norm": "1",
            "g_E_norm": "1",
        }

    def test_vector_outside_fixed_space(self, tmp_path, capsys):
        fam = write_json(tmp_path / "fam.json", family_payload())
        vecs = write_json(tmp_path / "vecs.json", [["1", "0", "0"]])
        assert main(["sup-in-fix", "-i", fam, "-g", vecs]) == 2


E44_FAMILY = {
    "matrices": [{"rows": [["1", "0", "0"], ["1", "1", "1"], ["0", "0", "1"]]}]
}


class TestDefectExit:
    """A defect inside a computation exits 1 with a `defect:` line and
    no traceback.  The LP runs only on subspaces that are not lattice
    subspaces, so the simplex cases go through the norm checks of the
    e44 fixed space, which is one."""

    @pytest.mark.parametrize(
        "target, fake",
        [
            # phase 1 of the simplex reports unbounded
            ("latfix.conegeom.simplex._run_simplex", lambda *args: UNBOUNDED),
            # the upper-bound set of a least-element search is unbounded
            (
                "latfix.conegeom.core.minimize",
                lambda *args, **kwargs: LPResult(UNBOUNDED, None, None),
            ),
        ],
        ids=["phase-one-unbounded", "upper-bound-set-unbounded"],
    )
    def test_fixspace_lp_defect(
        self, target, fake, tmp_path, monkeypatch, capsys
    ):
        path = write_json(tmp_path / "fam.json", E44_FAMILY)
        assert main(["fixspace", "-i", path]) == 0
        capsys.readouterr()
        monkeypatch.setattr(target, fake)
        assert main(["fixspace", "-i", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("defect: ")
        assert "Traceback" not in err

    def test_sup_in_fix_missing_supremum(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            "latfix.fixlattice.least_upper_bound_in", lambda *args: None
        )
        fam = write_json(tmp_path / "fam.json", family_payload())
        vecs = write_json(
            tmp_path / "vecs.json", [["1", "0", "-1"], ["-1", "0", "1"]]
        )
        assert main(["sup-in-fix", "-i", fam, "-g", vecs]) == 1
        err = capsys.readouterr().err
        assert err.startswith("defect: ")
        assert "Traceback" not in err


    def test_gallery_case_defect(self, monkeypatch, capsys):
        monkeypatch.setattr(gallery, "least_element_above", lambda *args: None)
        assert main(["gallery", "run", "intro-kb"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("defect: ")
        assert "Traceback" not in err


def cycle_rows(n):
    return [["1" if j == (i + 1) % n else "0" for j in range(n)] for i in range(n)]


TWO_SWAPS = {
    "matrix": {
        "rows": [
            ["0", "1", "0", "0"],
            ["1", "0", "0", "0"],
            ["0", "0", "0", "1"],
            ["0", "0", "1", "0"],
        ]
    }
}


class TestCyclicityCommand:
    def test_permutation(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "op.json",
            {"matrix": {"rows": [["0", "1"], ["1", "0"]]}},
        )
        assert main(["cyclicity", "-i", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "Pass"
        assert data["orders"] == [[1, 1], [2, 1]]

    @pytest.mark.parametrize(
        "n, orders",
        [
            (17, [[1, 1], [17, 1]]),
            (24, [[d, 1] for d in (1, 2, 3, 4, 6, 8, 12, 24)]),
        ],
    )
    def test_long_cycle_beyond_degree_sixteen(
        self, tmp_path, capsys, n, orders
    ):
        path = write_json(tmp_path / "op.json", {"matrix": {"rows": cycle_rows(n)}})
        assert main(["cyclicity", "-i", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "Pass"
        assert data["orders"] == orders
        assert data["algebraic_orders"] == orders
        assert data["non_cyclotomic_boundary"] is False

    def test_forced_multiplicities_evaluate_no_cyclotomic(
        self, tmp_path, capsys, monkeypatch
    ):
        evaluated = []

        def counting(poly, matrix):
            evaluated.append(poly.degree)
            return poly_of_matrix(poly, matrix)

        monkeypatch.setattr("latfix.opcore.poly_of_matrix", counting)
        orders = [[d, 1] for d in (1, 2, 3, 4, 6, 8, 12, 24)]
        path = write_json(tmp_path / "op.json", {"matrix": {"rows": cycle_rows(24)}})
        assert main(["cyclicity", "-i", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["orders"] == data["algebraic_orders"] == orders
        assert evaluated == []
        # two disjoint 2-cycles: the orders 1 and 2 repeat, so both
        # cyclotomics are evaluated at the matrix
        path = write_json(tmp_path / "op.json", TWO_SWAPS)
        assert main(["cyclicity", "-i", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["orders"] == [[1, 2], [2, 2]]
        assert len(evaluated) >= 1

    def test_cyclotomic_kernel_defect(self, tmp_path, capsys, monkeypatch):
        # a full-rank cyclotomic at the matrix would leave the repeated
        # orders 1 and 2 with no eigenvector at all
        monkeypatch.setattr("latfix.opcore.rank", lambda matrix: matrix.nrows)
        path = write_json(tmp_path / "op.json", TWO_SWAPS)
        assert main(["cyclicity", "-i", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("defect: ")
        assert "Traceback" not in err

    def test_negative_entry_invalid(self, tmp_path):
        path = write_json(
            tmp_path / "op.json",
            {"matrix": {"rows": [["0", "-1"], ["1", "0"]]}},
        )
        assert main(["cyclicity", "-i", path]) == 2


class TestSemigroupCommand:
    def test_dissipative(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "gen.json", {"rows": [["-2", "1"], ["1", "-2"]]}
        )
        assert main(["semigroup", "-i", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "Pass"
        assert data["log_norm_sup"] == "-1"

    def test_rotation_inapplicable_still_ok(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "gen.json", {"rows": [["0", "1"], ["-1", "0"]]}
        )
        assert main(["semigroup", "-i", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "Inapplicable"
        assert data["nonzero_imaginary_pairs"] == 1


class TestProbeCommand:
    def test_writes_log(self, tmp_path, capsys):
        out = tmp_path / "log.jsonl"
        code = main(
            [
                "probe",
                "--trials",
                "4",
                "--dim-max",
                "3",
                "--seed",
                "9",
                "--out",
                str(out),
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"trials": 4, "dim_max": 3, "seed": 9, "violations": 0}
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0])["violations"] == 0

    def test_zero_trials_invalid(self, capsys):
        assert main(["probe", "--trials", "0", "--seed", "1"]) == 2
        assert "error:" in capsys.readouterr().err


def test_console_script_help():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_gallery_under_optimized_python():
    """Library asserts carry no behaviour: with them stripped (python -O)
    every gallery case still matches its fixture."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [
            sys.executable,
            "-O",
            "-c",
            "import sys; from latfix.cli import main;"
            " sys.exit(main(['gallery', 'all']))",
        ],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    matches = [line for line in proc.stderr.splitlines() if line.endswith("] match")]
    assert len(matches) == len(gallery.GALLERY_IDS) == 7
