"""The benchmark's seed-0 outputs are the ones it recorded.

perfbench/run.py hashes the canonical JSON of every operation of a pass
and, on the default seed, compares the digest with perfbench/digests.json,
but only prints a line when they differ.  This test runs one untraced
pass of each workload on seed 0 and requires the recorded digest, so
a change to any workload's output fails the test suite.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RECORDED = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.fixture(scope="module")
def bench_run():
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", sorted(RECORDED))
def test_seed_zero_digest_is_recorded(bench_run, workload):
    result = bench_run.run_passes(workload, 0, 0, None, probe_setup=False)
    assert result["failed"] == 0
    assert result["digests"] == {"untraced": RECORDED[workload]}
