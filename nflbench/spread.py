"""Run one workload on several seeds and report each metric's spread.

    python3 nflbench/spread.py --workload cold-sweep --seeds 1-10 --seconds 15

For every end-to-end metric in ``BENCHMARK.json`` this prints the
median over the runs and the quartile spread (interquartile distance
over the median, with the quartiles :func:`statistics.quantiles`
gives), next to the metric's bound.  The bounds in ``BENCHMARK.json``
were set from these spreads on every workload; re-derive them this way
after a change to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from nflbench.stats import quartile_spread  # noqa: E402


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description="Measure a workload's spread across seeds.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    values = {metric["name"]: [] for metric in spec["end_to_end"]}
    status = 0
    for seed in parse_seeds(args.seeds):
        command = [sys.executable, str(ROOT / "nflbench" / "run.py"), "--workload",
                   args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        status |= done.returncode
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: exit {done.returncode}, {result['attempted']} jobs, "
              + " ".join(f"{name}={values[name][-1]:.4g}" for name in values), flush=True)
    for metric in spec["end_to_end"]:
        runs = values[metric["name"]]
        print(f"{metric['name']:<16} median {statistics.median(runs):<12.5g}"
              f" spread {quartile_spread(runs):.3f}  bound {metric['bound']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
