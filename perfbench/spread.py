"""Run-to-run spread of the end-to-end metrics.

Runs `run.py` once per (workload, seed), each in a fresh interpreter,
and prints for every metric the median of the runs and the distance
between their first and third quartiles as a share of the median, the
check a benchmark change has to pass.

    python3 perfbench/spread.py --workloads cyclicity fixspace --seeds 1 2 3 4 5
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", help="write the per-run values and spreads as JSON")
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    report = {}
    for workload in args.workloads:
        runs: dict[str, list[float]] = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True,
                text=True,
                timeout=600,
                check=True,
            )
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
            for name, metric in result["metrics"].items():
                runs.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n} {m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        report[workload] = {}
        for name, values in runs.items():
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            report[workload][name] = {"values": values, "median": median, "spread": spread}
            print(f"  {workload:10s} {name:15s} median {median:10.4g}  spread {spread:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
