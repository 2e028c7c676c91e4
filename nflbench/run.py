"""nflbench — the repository's benchmark.

One client process drives the program through its public entry points
(``build_program``, ``GadgetPlanner.run``, ``run_pipeline``, the
emulator, ``ResultCache``) in a closed loop: a job starts when the
previous one has returned.  Each of the four workloads in
:mod:`nflbench.workloads` stresses different layers, and every job's
output is checked against ``nflbench/references.json``.

Run from the root of a checkout:

    python3 nflbench/run.py --workload cold-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures untraced and reports the end-to-end metrics:

* ``setup_s`` — median of three set-ups (image builds; for warm-replan
  also filling the cache);
* ``jobs_per_s`` — jobs completed per second spent in jobs (the output
  checks between jobs are not timed);
* ``job_p50_s``, ``job_p90_s`` — percentiles over the distinct jobs of
  each job's median latency over the passes a run made;
* ``cpu_s_per_job`` — CPU seconds of the process and its children;
* ``peak_rss_mb`` — peak RSS of the process plus its largest child,
  from ``getrusage``, over set-up and jobs alike.

Times are scaled to reference host speed (:mod:`nflbench.speed`); the
times as measured are printed on a note line.

``--trace 1`` runs jobs untraced for half of ``--seconds``, runs the
same jobs again under a :class:`repro.obs.Tracer`, and reports the
per-layer metrics of :mod:`nflbench.layers`, including the tracing
overhead.  The last line of standard output is one JSON object; the
exit status is 0 only when every job's output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK_ROOT = ROOT / ".nflbench_work"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one nflbench workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"nflbench: no program source at {SOURCE / 'repro'}", file=sys.stderr)
        return 2
    if tracemalloc.is_tracing():
        print("nflbench: tracemalloc is on; it would distort every timing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    from nflbench.loop import measure_end_to_end, measure_layers
    from nflbench.reference import load_references
    from nflbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"nflbench: unknown workload; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    refs = load_references()
    jobs = workload.draw(random.Random(args.seed), refs)
    workdir = WORK_ROOT / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = measure_layers(workload, jobs, refs, workdir, args.seconds)
        else:
            result = measure_end_to_end(workload, jobs, refs, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    for line in result.lines():
        print(line)
    print(json.dumps(result.summary()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
