#!/usr/bin/env python3
"""Run the benchmark on seeds 1-10 of every workload and summarise each metric.

    python3 bench/baseline.py --out bench/baseline.json

Each (workload, seed) is one `bench/run.py --trace 0` process. For every
end-to-end metric the summary gives the ten values, their median, and the
spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median. One traced
run per workload, on the first seed, adds the per-layer breakdown.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, trace: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", trace]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False, cwd=HERE.parent)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    summary = {"platform": {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "run_seconds": BENCHMARK["run_seconds"],
    }}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = [run(workload, seed, "0") for seed in SEEDS]
        e2e = {}
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            e2e[name] = {
                "unit": metric["unit"],
                "median": statistics.median(values),
                "spread": (q3 - q1) / statistics.median(values),
                "bound": metric["bound"],
                "values": values,
            }
            print(f"{workload:16} {name:15} median {statistics.median(values):.6g} {metric['unit']:4}"
                  f" spread {e2e[name]['spread']:.3f} (bound {metric['bound']})", flush=True)
        traced = run(workload, SEEDS[0], "1")
        summary[workload] = {
            "seeds": SEEDS,
            "all_correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "end_to_end": e2e,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{workload:16} correct {summary[workload]['all_correct']},"
              f" {summary[workload]['failed']} of {summary[workload]['attempted']} ops failed", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
