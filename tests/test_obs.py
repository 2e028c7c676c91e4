"""repro.obs — spans, tracer trees, JSONL schema, metrics registry.

The contract under test: spans always measure (tracer or not), traces
export deterministically (byte-stable modulo the timestamp fields), and
the metrics registry snapshots what it counted.
"""

import json

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    SlowLog,
    Span,
    TraceSchemaError,
    Tracer,
    active_tracer,
    format_trace_summary,
    metrics,
    reset_metrics,
    span,
    strip_timestamps,
    tracing,
    validate_trace_lines,
)


# -- spans ------------------------------------------------------------------


def test_span_measures_without_tracer():
    assert active_tracer() is None
    with span("stage") as sp:
        sp.add("items", 3)
        sp.add("items", 2)
    assert sp.wall > 0.0
    assert sp.cpu >= 0.0
    assert sp.counters == {"items": 5}


def test_span_nesting_under_tracer():
    tracer = Tracer()
    with tracing(tracer):
        with span("outer"):
            with span("inner") as inner:
                inner.add("n", 1)
            with span("inner"):
                pass
    assert active_tracer() is None, "tracing() must restore on exit"
    assert [r.name for r in tracer.roots] == ["outer"]
    outer = tracer.roots[0]
    assert [c.name for c in outer.children] == ["inner", "inner"]
    assert outer.children[0].counters == {"n": 1}


def test_span_dict_round_trip():
    with span("parent") as sp:
        sp.add("k", 7)
    child = Span("child")
    child.wall, child.cpu = 0.25, 0.125
    sp.children.append(child)
    restored = Span.from_dict(sp.to_dict())
    assert restored.name == "parent"
    assert restored.counters == {"k": 7}
    assert [c.name for c in restored.children] == ["child"]
    assert restored.children[0].wall == 0.25
    assert restored.find("child") is restored.children[0]


def test_abandoned_generator_span_does_not_misparent():
    def searchy():
        sp = span("gen")
        sp.__enter__()
        try:
            yield 1
            yield 2
        finally:
            sp.__exit__(None, None, None)

    tracer = Tracer()
    with tracing(tracer):
        with span("outer"):
            gen = searchy()
            next(gen)
            with span("sibling"):
                gen.close()  # exits "gen" while "sibling" is open
            with span("after"):
                pass
    outer = tracer.roots[0]
    # "sibling" opened between yields, so it nests under the still-open
    # generator span; what matters is that the out-of-order exit does
    # not corrupt the stack — "after" parents to "outer", not to the
    # dead "gen".
    assert [c.name for c in outer.children] == ["gen", "after"]
    assert [c.name for c in outer.children[0].children] == ["sibling"]


# -- JSONL export and schema -------------------------------------------------


def _sample_tracer():
    tracer = Tracer()
    with tracing(tracer):
        with span("pipeline"):
            with span("extract") as ex:
                ex.add("records", 4)
            with span("winnow"):
                pass
    return tracer


def test_jsonl_export_schema_and_ids():
    tracer = _sample_tracer()
    lines = tracer.to_lines(metrics={"counters": {"x": 1}})
    meta = json.loads(lines[0])
    assert meta == {"format": "nfl-trace", "type": "meta", "version": 1}
    spans = validate_trace_lines(lines)
    assert [s["name"] for s in spans] == ["pipeline", "extract", "winnow"]
    assert [s["id"] for s in spans] == [0, 1, 2], "ids are preorder"
    assert [s["parent"] for s in spans] == [None, 0, 0]
    assert spans[1]["counters"] == {"records": 4}


def test_write_jsonl_and_validate_file(tmp_path):
    from repro.obs import validate_trace_file

    path = tmp_path / "t.jsonl"
    count = _sample_tracer().write_jsonl(path, metrics={"counters": {}})
    assert count == 3
    spans = validate_trace_file(path)
    assert len(spans) == 3


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda ls: ls[1:], "bad meta line"),
        (lambda ls: [ls[0], "not json"], "not JSON"),
        (lambda ls: [ls[0]], "no spans"),
        (
            lambda ls: [ls[0], json.dumps({"type": "span", "id": 0, "parent": 5, "name": "x",
                                           "wall": 0, "cpu": 0, "counters": {}})],
            "parent",
        ),
        (
            lambda ls: [ls[0], json.dumps({"type": "span", "id": 0, "parent": None, "name": "x",
                                           "wall": "fast", "cpu": 0, "counters": {}})],
            "must be numeric",
        ),
        (
            lambda ls: [ls[0], json.dumps({"type": "span", "id": 0, "parent": None, "name": "x",
                                           "wall": 0, "cpu": 0, "counters": {"n": "many"}})],
            "counters",
        ),
    ],
)
def test_validate_rejects_malformed_traces(mutate, fragment):
    lines = _sample_tracer().to_lines()
    with pytest.raises(TraceSchemaError, match=fragment):
        validate_trace_lines(mutate(lines))


def test_strip_timestamps_is_stable_across_runs():
    first = strip_timestamps(_sample_tracer().to_lines())
    second = strip_timestamps(_sample_tracer().to_lines())
    assert first == second
    assert all("wall" not in json.loads(line) for line in first)


def test_format_trace_summary_renders_tree():
    text = format_trace_summary(_sample_tracer().to_lines())
    lines = text.splitlines()
    assert lines[0].startswith("pipeline")
    assert lines[1].startswith("  extract")
    assert "records=4" in lines[1]
    assert "wall=" in lines[0] and "cpu=" in lines[0]


# -- metrics ----------------------------------------------------------------


def test_registry_counters_gauges_histograms():
    reg = MetricsRegistry()
    reg.counter("calls").inc()
    reg.counter("calls").inc(4)
    reg.gauge("depth").set(9)
    for v in (1, 2, 3, 100):
        reg.histogram("sizes").observe(v)
    snap = reg.to_dict()
    assert snap["counters"]["calls"] == 5
    assert snap["gauges"]["depth"] == 9
    hist = snap["histograms"]["sizes"]
    assert hist["count"] == 4 and hist["min"] == 1 and hist["max"] == 100
    assert reg.histogram("sizes").mean == pytest.approx(106 / 4)


def test_histogram_buckets_are_power_of_two():
    hist = Histogram()
    hist.observe(0)
    hist.observe(1)
    hist.observe(7)  # bit_length 3
    hist.observe(8)  # bit_length 4
    buckets = hist.to_dict()["buckets"]
    assert buckets == {"0": 1, "1": 1, "3": 1, "4": 1}


def test_slow_log_keeps_the_slowest():
    reg = MetricsRegistry()
    assert "slow_logs" not in reg.to_dict()
    for k in range(15):
        reg.slow_log("queries").observe(k / 100, digest=f"d{k}")
    log = reg.slow_log("queries")
    assert log.limit == SlowLog().limit == 10
    assert [e["digest"] for e in log.entries] == [f"d{k}" for k in range(14, 4, -1)]
    reg.slow_log("queries").observe(1.0, digest="slowest")
    snapshot = reg.to_dict()["slow_logs"]["queries"]
    assert snapshot[0] == {"wall": 1.0, "digest": "slowest"}
    assert len(snapshot) == 10 and snapshot[-1]["digest"] == "d6"


def test_trace_summary_prints_slow_logs():
    reg = MetricsRegistry()
    reg.slow_log("solver.slow_queries").observe(0.25, digest="abc", clauses=7)
    lines = _sample_tracer().to_lines(metrics=reg.to_dict())
    summary = format_trace_summary(lines)
    assert "solver.slow_queries (slowest 1):" in summary
    assert "wall=0.2500s clauses=7 digest=abc" in summary
    assert "counters:" not in summary
    # Slow logs are timings: the stable projection leaves them out.
    assert strip_timestamps(lines) == strip_timestamps(
        _sample_tracer().to_lines(metrics=MetricsRegistry().to_dict())
    )


def test_trace_summary_prints_registry_counters():
    reg = MetricsRegistry()
    reg.counter("solver.answers.memo").inc(3)
    reg.counter("solver.answers.blast").inc()
    summary = format_trace_summary(_sample_tracer().to_lines(metrics=reg.to_dict()))
    tail = summary.splitlines()[-3:]
    assert tail == ["counters:", "  solver.answers.blast=1", "  solver.answers.memo=3"]


def test_global_registry_reset():
    reset_metrics()
    metrics().counter("x").inc()
    assert metrics().to_dict()["counters"]["x"] == 1
    reset_metrics()
    assert metrics().to_dict() == {"counters": {}, "gauges": {}, "histograms": {}}
