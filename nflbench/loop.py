"""The closed loop: set-up, timed jobs, output checks and the report.

One client process runs one job at a time; the next starts when the
previous one has returned.  Only the call into the program is timed —
reducing and checking its output happens between jobs.  Every timing
is scaled to reference host speed (:mod:`nflbench.speed`) by probes
taken between jobs, after every :data:`PROBE_INTERVAL_S` of job time.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import Tracer, metrics, reset_metrics, span, tracing

from .layers import JOB_SPAN, LAYER_UNITS, layer_metrics
from .speed import Speedometer
from .stats import percentile
from .workloads import Prepared, Workload, worker_count

SETUP_SPAN = "bench.setup"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Host speed is probed once the jobs since the last probe have taken
#: this long (it changes within seconds).
PROBE_INTERVAL_S = 1.0
#: Failure messages printed per run; the rest are only counted.
SHOWN_FAILURES = 10


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child
    (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_maxrss + kids.ru_maxrss) / 1024


@dataclass
class Phase:
    """What one closed loop of jobs measured: per job, wall and CPU
    seconds as measured and the factor that scales them to reference
    host speed."""

    names: List[str] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    cpu: List[float] = field(default_factory=list)
    scales: List[float] = field(default_factory=list)
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    payloads: int = 0
    memo_hits: int = 0
    memo_queries: int = 0

    @property
    def jobs(self) -> int:
        return len(self.latencies)

    @property
    def scaled_latencies(self) -> List[float]:
        return [wall * factor for wall, factor in zip(self.latencies, self.scales)]

    @property
    def scaled_cpu(self) -> List[float]:
        return [cpu * factor for cpu, factor in zip(self.cpu, self.scales)]

    def per_job_latencies(self) -> List[float]:
        """Each distinct job's median scaled latency over the passes, so
        that percentiles weigh every job alike whether a run made one
        pass or several."""
        by_job: Dict[str, List[float]] = {}
        for job, latency in zip(self.names, self.scaled_latencies):
            by_job.setdefault(job, []).append(latency)
        return [statistics.median(latencies) for latencies in by_job.values()]

    def rescale(self, meter: Speedometer) -> None:
        """Scale the jobs run since the last probe."""
        pending = self.latencies[len(self.scales) :]
        self.scales.extend([meter.factor(sum(pending))] * len(pending))


def run_jobs(
    workload: Workload,
    state: Optional[Prepared],
    jobs: Sequence[str],
    refs: dict,
    *,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
) -> Phase:
    """Run ``jobs`` in order, cycling: whole passes until ``seconds``
    have passed (at least one pass), or exactly ``count`` jobs.  Whole
    passes keep the mix of jobs the same in every run.  A job that
    raises or whose output differs from its reference counts as failed."""
    phase = Phase()
    deadline = None if seconds is None else time.perf_counter() + seconds
    index = 0
    meter = Speedometer(workload.workers())
    while count is None or index < count:
        new_pass = index % len(jobs) == 0
        if deadline is not None and index and new_pass and time.perf_counter() >= deadline:
            break
        job = jobs[index % len(jobs)]
        index += 1
        cpu_before = cpu_seconds()
        start = time.perf_counter()
        try:
            with span(JOB_SPAN):
                raw = workload.run(state, job)
        except Exception:
            problems = [f"{job}: raised\n{traceback.format_exc()}"]
        else:
            problems = []
        phase.latencies.append(time.perf_counter() - start)
        phase.cpu.append(cpu_seconds() - cpu_before)
        phase.names.append(job)
        if sum(phase.latencies[len(phase.scales) :]) >= PROBE_INTERVAL_S:
            phase.rescale(meter)
        if not problems:
            out = workload.outcome(state, job, raw)
            problems = workload.check(job, out, refs)
            phase.payloads += out.get("payloads", 0)
            phase.memo_hits += out.get("memo_hits", 0)
            phase.memo_queries += out.get("memo_queries", 0)
        if problems:
            phase.failed += 1
            phase.failures.extend(problems)
    if len(phase.scales) < phase.jobs:
        phase.rescale(meter)
    return phase


@dataclass
class Result:
    """A run's outcome: what the last line of output reports."""

    workload: str
    attempted: int
    failed: int
    failures: List[str]
    metrics: Dict[str, Tuple[float, str]]
    notes: List[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def lines(self) -> List[str]:
        out = [
            f"workload {self.workload}: {self.attempted} jobs, {self.failed} failed "
            f"(failed_frac {self.failed / self.attempted:.4f})"
        ]
        out += [f"  FAIL {problem}" for problem in self.failures[:SHOWN_FAILURES]]
        out += [f"  {name:<30} {value:>14.6g} {unit}" for name, (value, unit) in self.metrics.items()]
        out += [f"  {note}" for note in self.notes]
        return out

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()
            },
        }


def measure_end_to_end(
    workload: Workload,
    jobs: Sequence[str],
    refs: dict,
    workdir: Path,
    seconds: float,
) -> Result:
    """Untraced: :data:`SETUP_REPEATS` set-ups, then jobs for ``seconds``."""
    setups, raw_setups = [], []
    meter = Speedometer()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(jobs, workdir, refs)
        raw_setups.append(time.perf_counter() - start)
        setups.append(raw_setups[-1] * meter.factor(raw_setups[-1]))
    phase = run_jobs(workload, state, jobs, refs, seconds=seconds)
    per_job = phase.per_job_latencies()
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (phase.jobs / sum(phase.scaled_latencies), "1/s"),
        "job_p50_s": (percentile(per_job, 50), "s"),
        "job_p90_s": (percentile(per_job, 90), "s"),
        "cpu_s_per_job": (sum(phase.scaled_cpu) / phase.jobs, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        f"times are at reference host speed; setup_s is the median of {SETUP_REPEATS} set-ups;"
        f" job percentiles are over {len(per_job)} distinct jobs, each the median of"
        f" {phase.jobs // len(per_job)} passes; peak_rss_mb covers set-up too",
        f"as measured: setup_s {statistics.median(raw_setups):.6g}"
        f" jobs_per_s {phase.jobs / sum(phase.latencies):.6g}"
        f" (median scale factor {statistics.median(phase.scales):.3f})",
        f"payloads_validated {phase.payloads} (each job's count matched its reference"
        f" unless listed as failed)",
    ]
    return Result(workload.name, phase.jobs, phase.failed, phase.failures, values, notes)


def measure_layers(
    workload: Workload, jobs: Sequence[str], refs: dict, workdir: Path, seconds: float
) -> Result:
    """Jobs untraced for half of ``seconds`` (whole passes), then the
    same jobs again under a tracer; per-layer metrics come from the
    traced half."""
    tracer = Tracer()
    with tracing(tracer), span(SETUP_SPAN):
        state = workload.setup(jobs, workdir, refs)
    plain = run_jobs(workload, state, jobs, refs, seconds=seconds / 2)
    reset_metrics()
    with tracing(tracer):
        traced = run_jobs(workload, state, jobs, refs, count=plain.jobs)
    overhead = sum(traced.scaled_latencies) / sum(plain.scaled_latencies) - 1
    values = layer_metrics(
        tracer.roots,
        metrics().to_dict()["counters"],
        workers=worker_count(),
        memo=(traced.memo_hits, traced.memo_queries),
        trace_overhead=overhead,
    )
    return Result(
        workload.name,
        plain.jobs + traced.jobs,
        plain.failed + traced.failed,
        plain.failures + traced.failures,
        {name: (value, LAYER_UNITS[name]) for name, value in values.items()},
        [f"{traced.jobs} jobs traced after the same {plain.jobs} ran untraced"],
    )
