"""Exactness of the traced per-layer counts.

The counts are the regression signal that survives timing noise, so two
traced runs on the same seed must report identical counts and ratios,
and the wrappers must change no answer: the traced passes reproduce the
untraced digest.  The trace must also confirm the layer split the
workloads were chosen for.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cyclicity", "fixspace", "cones", "gallery")
SEED = 3
TIMED = ("self_ms_per_op", "trace.overhead_ratio")


def traced_run(workload: str) -> tuple[dict, dict]:
    """Metrics and digests of a traced run of two passes (one untraced,
    one traced)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    lines = done.stdout.splitlines()
    digests = dict(
        re.fullmatch(r"digest \S+ seed \d+ (\w+): (\w+)", line).groups()
        for line in lines
        if line.startswith("digest ")
    )
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"], digests


@pytest.fixture(scope="module")
def runs():
    return {w: (traced_run(w), traced_run(w)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(runs, workload):
    (first, _), (second, _) = runs[workload]
    assert first.keys() == second.keys()
    counts = [name for name in first if not name.endswith(TIMED)]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_answer(runs, workload):
    for _, digests in runs[workload]:
        assert digests["traced"] == digests["untraced"]


def test_layer_split(runs):
    def calls(workload, name):
        return runs[workload][0][0][f"{name}.calls_per_op"]["value"]

    assert calls("cyclicity", "conegeom.minimize") == 0
    assert calls("cyclicity", "conegeom.extreme_rays_of_inequality_cone") == 0
    assert calls("fixspace", "exactnum.poly_of_matrix") == 0
    assert calls("cones", "exactnum.poly_of_matrix") == 0
    assert calls("cones", "conegeom.minimize") == 0
    # and each workload exercises the layer it was chosen for
    assert calls("cyclicity", "exactnum.poly_of_matrix") > 0
    assert calls("fixspace", "conegeom.minimize") > 0
    assert calls("cones", "conegeom.extreme_rays_of_inequality_cone") > 0
    assert calls("gallery", "seqspace.orbit_sup") > 0
