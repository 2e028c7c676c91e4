"""Self-tests for the benchmark's own code (not the program's).

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q nflbench/tests
"""

import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from nflbench import loop, speed
from nflbench.layers import (
    LAYER_UNITS,
    aggregate,
    layer_metrics,
    parallel_efficiency,
    self_time,
)
from nflbench.loop import Phase, run_jobs
from nflbench.reference import CENSUS_IMAGES, load_references
from nflbench.speed import REFERENCE_PROBE_S
from nflbench.stats import percentile, quartile_spread
from nflbench.workloads import WORKLOADS, ParallelCensus
from repro.obs import Span

ROOT = Path(__file__).resolve().parents[2]


# -- percentile selection ------------------------------------------------------


def test_percentile_selects_ranks_and_interpolates():
    assert percentile([5.0], 90) == 5.0
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile(list(range(1, 11)), 90) == pytest.approx(9.1)
    assert percentile([4, 1], 0) == 1
    assert percentile([4, 1], 100) == 4


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_job_percentiles_weigh_each_distinct_job_once():
    phase = Phase(
        names=["a", "b", "a", "b", "a"],
        latencies=[1.0, 5.0, 3.0, 7.0, 2.0],
        scales=[1.0, 1.0, 1.0, 1.0, 0.5],
    )
    assert phase.per_job_latencies() == [1.0, 6.0]


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 12.5, 13.0, 30.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / median)


# -- self time and aggregation --------------------------------------------------


def _span(name, wall, children=(), **counters):
    return Span.from_dict(
        {
            "name": name,
            "wall": wall,
            "counters": counters,
            "children": [child.to_dict() for child in children],
        }
    )


def _job():
    extract = _span(
        "extract",
        3.0,
        [_span("extract.plan", 1.0), _span("extract.symex", 1.5)],
        records=7,
    )
    plan = _span(
        "plan",
        9.0,
        [_span("plan.extract", 3.0, [extract]), _span("plan.goals", 2.5)],
        payloads=2,
    )
    return _span("bench.job", 10.0, [plan])


def test_self_time_subtracts_the_children():
    job = _job()
    assert self_time(job.find("plan")) == pytest.approx(9.0 - 3.0 - 2.5)
    assert self_time(job.find("extract")) == pytest.approx(0.5)
    assert self_time(job.find("plan.goals")) == 2.5


def test_self_time_clamps_when_parallel_children_overlap():
    sharded = _span(
        "extract.symex",
        1.0,
        [_span("extract.symex.run", 0.9), _span("extract.symex.run", 0.8)],
        shards=2,
    )
    assert self_time(sharded) == 0.0
    assert parallel_efficiency([sharded], workers=2) == pytest.approx(1.7 / 2.0)
    assert parallel_efficiency([_job()], workers=2) == 0.0


def test_aggregate_sums_by_name():
    totals = aggregate([_job(), _job()])
    assert totals["plan"].calls == 2
    assert totals["plan"].wall == pytest.approx(18.0)
    assert totals["plan"].self_wall == pytest.approx(7.0)
    assert totals["extract"].count("records") == 14


def test_layer_metrics_cover_every_metric_per_job():
    build = _span("bench.build", 0.4)
    values = layer_metrics(
        [build, _job(), _job()],
        {"solver.sat_calls": 4},
        workers=2,
        memo=(1, 4),
        trace_overhead=0.05,
    )
    assert list(values) == list(LAYER_UNITS)
    assert values["obfuscation.build_s"] == pytest.approx(0.4)
    assert values["planner.library_s"] == pytest.approx(3.5)
    assert values["staticanalysis.decode_s"] == pytest.approx(0.5)
    assert values["solver.sat_calls_n"] == 2
    assert values["solver.memo_hit_ratio"] == 0.25
    assert values["planner.payloads_n"] == 2
    assert values["bench.trace_overhead_ratio"] == 0.05


# -- draws ----------------------------------------------------------------------


def test_draws_are_seeded_and_referenced():
    refs = load_references()
    for workload in WORKLOADS.values():
        jobs = workload.draw(random.Random(11), refs)
        assert jobs == workload.draw(random.Random(11), refs), workload.name
        assert all(job in refs[workload.table] for job in jobs), workload.name


# -- the correctness gate -------------------------------------------------------


class _Replay(ParallelCensus):
    """Returns a stored outcome instead of calling the program."""

    def __init__(self, outcome):
        self._outcome = outcome

    def run(self, state, job):
        return None

    def outcome(self, state, job, raw):
        return dict(self._outcome)


def test_a_mismatched_digest_counts_as_a_failure():
    refs = load_references()
    job = CENSUS_IMAGES[0]
    expected = refs["images"][job]
    good = {"extracted": expected["extracted"], "winnowed": expected["winnowed"]}
    assert run_jobs(_Replay(good), None, [job], refs, count=3).failed == 0
    corrupted = dict(good, winnowed="0" * 32)
    phase = run_jobs(_Replay(corrupted), None, [job], refs, count=3)
    assert phase.failed == 3
    assert "winnowed" in phase.failures[0]


def test_timings_scale_to_reference_host_speed(monkeypatch):
    refs = load_references()
    job = CENSUS_IMAGES[0]
    expected = refs["images"][job]
    good = {"extracted": expected["extracted"], "winnowed": expected["winnowed"]}
    # The host runs the probe at half the reference speed, then at full speed.
    probes = iter([2 * REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S, REFERENCE_PROBE_S])
    monkeypatch.setattr(speed, "probe_for", lambda seconds, workers: next(probes))
    monkeypatch.setattr(loop, "PROBE_INTERVAL_S", 0.0)
    phase = run_jobs(_Replay(good), None, [job], refs, count=2)
    assert phase.scales == [0.5, pytest.approx(1 / 1.5)]
    assert phase.scaled_latencies == [
        wall * factor for wall, factor in zip(phase.latencies, phase.scales)
    ]


def test_probing_lasts_long_enough_and_averages(monkeypatch):
    probes = iter([0.02, 0.04, 0.06])
    monkeypatch.setattr(speed, "probe", lambda workers: next(probes))
    assert speed.probe_for(0.05) == pytest.approx(0.03)
    assert speed.probe_for(0.0) == 0.06


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "nflbench", tmp_path / "nflbench")
    result = subprocess.run(
        [sys.executable, "nflbench/run.py", "--workload", "cold-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
