"""latfix benchmark: closed-loop workloads through the public library calls.

One caller, no threads: the next input is sent when the previous answer
has returned.  Each operation does the work of one `latfix` CLI command
(see workloads.py) and its output is checked.  Inputs are a pool made
from --seed; the run makes whole passes over the pool for --seconds.

    python3 perfbench/run.py --workload cyclicity --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones,
with the tracing overhead, and writes the spans to
perfbench/out/spans-<workload>-<seed>.jsonl.  `all` runs every workload
in a fresh interpreter of its own.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.

Timings are calibrated (see README.md): each timed operation is
bracketed by a fixed exact-arithmetic kernel (calibration.py), each
fresh-interpreter import is followed by it, and a time is reported as its
ratio to the kernel's time beside it, times REF_MS.  Host speed on shared
machines drifts by up to 1.9x over seconds to minutes; the ratio cancels
the drift.  The wall-clock figures are printed alongside.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibration import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cyclicity", "fixspace", "cones", "gallery")
DEFAULT_SEED = 0
SETUP_GAP_S = 2.0
MIN_TAIL_SAMPLES = 10  # operations beyond p90 for it to be valid
# Best time of calibrate() on the 2-core Xeon (2.0 GHz, Python 3.11) this
# benchmark was built on; a fixed constant, so that calibrated times read
# as milliseconds on that machine at its fastest.
REF_MS = 1.25

# Time from a fresh interpreter's first statement until `latfix.cli`,
# which imports every latfix module, is loaded and an operation can start;
# then the calibration kernel's time in the same interpreter.
SETUP_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import latfix.cli\n"
    "elapsed = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from calibration import calibrate\n"
    "print(elapsed, (calibrate() + calibrate()) / 2)\n"
)


def calibrated(fn):
    """(result of fn(), wall seconds, wall seconds / mean kernel time
    just before and just after)."""
    before = calibrate()
    start = perf_counter()
    result = fn()
    elapsed = perf_counter() - start
    return result, elapsed, elapsed / ((before + calibrate()) / 2)


def setup_probe() -> tuple[float, float]:
    """Import time of one fresh interpreter, and the same divided by the
    calibration kernel's time in that interpreter right after."""
    done = subprocess.run(
        [sys.executable, "-E", "-s", "-c", SETUP_PROBE, str(SRC), str(HERE)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    elapsed, kernel = map(float, done.stdout.split())
    return elapsed, elapsed / kernel


def run_passes(workload: str, seed: int, seconds: float, tracer, probe_setup: bool) -> dict:
    """Closed loop over the pool, pass after pass.  Passes are always
    whole, so every input weighs the same in the statistics; another pass
    starts only if one as long as the last still ends within `seconds`.
    The first pass is untraced, and its outputs are the reference every
    later operation must reproduce.  With a tracer, odd passes are
    traced.  With probe_setup, a fresh interpreter's import time is
    sampled between passes, at most every SETUP_GAP_S.
    """
    import workloads

    pool = workloads.make_pool(workload, seed)
    run, check = workloads.OPERATIONS[workload]
    reference: list[str | None] = []
    digests = {}
    # the calibrated ratio of every operation, by traced, and per input the
    # best untraced wall time
    ratios = {False: [], True: []}
    best = [float("inf")] * len(pool)
    setup = {"ratios": [], "wall": []}
    last_probe = float("-inf")
    attempted = failed = 0
    start = perf_counter()
    passes = 0
    pass_s = 0.0

    while passes < (2 if tracer else 1) or perf_counter() - start + pass_s <= seconds:
        pass_start = perf_counter()
        if probe_setup and perf_counter() - last_probe >= SETUP_GAP_S:
            wall, ratio = setup_probe()
            setup["wall"].append(wall)
            setup["ratios"].append(ratio)
            last_probe = perf_counter()
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        digest = hashlib.sha256()
        for index, data in enumerate(pool):
            attempted += 1
            if traced:
                tracer.begin(attempted)
            try:
                (text, facts), elapsed, ratio = calibrated(lambda: run(data))
                problems = None
            except Exception:  # a failed operation is counted; the run goes on
                text, problems = None, [traceback.format_exc()]
            finally:
                if traced:
                    tracer.end()
            if problems is None:
                ratios[traced].append(ratio)
                if not traced:
                    best[index] = min(best[index], elapsed)
                problems = check(data, facts)
            if passes == 0:
                reference.append(text)
            elif text != reference[index]:
                problems.append("output differs from the first pass")
            digest.update((text or "<failed>").encode())
            if problems:
                failed += 1
                print(f"FAIL {workload} input {index}: {'; '.join(problems)}", file=sys.stderr)
        digests.setdefault("traced" if traced else "untraced", digest.hexdigest())
        if traced:
            tracer.uninstall()
        passes += 1
        pass_s = perf_counter() - pass_start
    return {
        "attempted": attempted,
        "failed": failed,
        "ratios": ratios,
        "best": best,
        "setup": setup,
        "digests": digests,
        "pool": len(pool),
        "passes": passes,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "latfix" / "__init__.py").is_file():
        raise SystemExit(f"error: no latfix package under {SRC}")
    sys.path.insert(0, str(SRC))
    import latfix

    if Path(latfix.__file__).resolve().parent != SRC / "latfix":
        raise SystemExit(f"error: latfix imported from {latfix.__file__}, not {SRC}")
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    else:
        setup_probe()  # writes the bytecode cache, as an installed package has it
    result = run_passes(workload, seed, seconds, tracer, probe_setup=not trace)

    correct = result["failed"] == 0
    recorded = json.loads((HERE / "digests.json").read_text())
    for kind, digest in result["digests"].items():
        print(f"digest {workload} seed {seed} {kind}: {digest}")
        if seed == DEFAULT_SEED and digest != recorded[workload]:
            print(f"digest differs from the recorded {recorded[workload]}", file=sys.stderr)
            correct = False
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{workload}: {attempted} operations in {result['passes']} passes of"
        f" {result['pool']} inputs, failed_frac {failed / attempted:.4f}"
    )
    # the calibrated latency (ms) of every operation, by traced
    lat = {traced: [r * REF_MS for r in ratios] for traced, ratios in result["ratios"].items()}
    if trace:
        overhead = statistics.fmean(lat[True]) / statistics.fmean(lat[False])
        print(f"tracing overhead: traced {overhead:.3f} x untraced (mean calibrated latency)")
        metrics = tracer.metrics(overhead)
        spans_path = HERE / "out" / f"spans-{workload}-{seed}.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write_spans(spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        ops = len(lat[False])
        p90 = _p90(lat[False])
        beyond = sum(t > p90 for t in lat[False])
        if beyond < MIN_TAIL_SAMPLES:
            print(
                f"warning: {beyond} operations beyond latency_p90_ms; it needs {MIN_TAIL_SAMPLES}",
                file=sys.stderr,
            )
        setup = result["setup"]
        values = {
            "latency_p50_ms": (statistics.median(lat[False]), "ms"),
            "latency_p90_ms": (p90, "ms"),
            "ops_per_s": (1000 * ops / sum(lat[False]), "1/s"),
            "setup_s": (statistics.median(setup["ratios"]) * REF_MS / 1000, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        wall = [t * 1000 for t in result["best"] if t != float("inf")]
        print(
            f"latency samples: {ops} untraced operations over {result['pool']} inputs,"
            f" {beyond} beyond p90; setup samples: {len(setup['ratios'])}"
        )
        print(
            f"wall clock, uncalibrated: best-of-runs p50 {statistics.median(wall):.4g} ms,"
            f" p90 {_p90(wall):.4g} ms; setup median {statistics.median(setup['wall']):.4g} s"
        )
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a fresh interpreter, so that setup_s and
    peak_rss_mb belong to it; metrics are prefixed with the workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True,
            text=True,
            timeout=600,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {workload} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = measure_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
