"""Histograms, resource timelines, and the service telemetry surface.

The contracts the model ledger's ``serve`` entry stands on:

* percentiles are deterministic — same observations, same p50/p95/p99,
  regardless of insertion order, including under an armed chaos seed;
* the interpreter samples the resource timeline exactly once per
  semi-naive iteration boundary;
* ``QueryService.metrics_snapshot()`` has a pinned (golden) schema;
* disabled observability is a true null path: zero modeled overhead,
  identical fixpoints, empty snapshots.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.harness import prepare_edb, run_workload
from repro.core.config import RecStepConfig
from repro.core.recstep import RecStep
from repro.obs.export import timeline_counter_events, to_chrome_trace
from repro.obs.histogram import (
    MAX_EXPONENT,
    MIN_EXPONENT,
    NULL_HISTOGRAMS,
    UNDERFLOW,
    HistogramSet,
    LogHistogram,
    bucket_bounds,
    bucket_exponent,
)
from repro.obs.timeline import NULL_TIMELINE, ResourceTimeline
from repro.programs import get_program
from repro.server import QueryRequest, QueryService, ServerConfig


# ---------------------------------------------------------------------------
# LogHistogram: buckets, merges, percentiles
# ---------------------------------------------------------------------------


def test_bucket_exponent_exact_at_boundaries():
    assert bucket_exponent(1.0) == 0
    assert bucket_exponent(2.0) == 1
    assert bucket_exponent(1.999999) == 0
    assert bucket_exponent(0.5) == -1
    assert bucket_exponent(0.0) == UNDERFLOW
    assert bucket_exponent(-3.0) == UNDERFLOW
    assert bucket_exponent(2.0**MIN_EXPONENT / 4) == UNDERFLOW
    assert bucket_exponent(2.0 ** (MAX_EXPONENT + 5)) == MAX_EXPONENT


def test_bucket_bounds_cover_value():
    for value in (1e-6, 0.037, 1.0, 17.5, 4096.0):
        lower, upper = bucket_bounds(bucket_exponent(value))
        assert lower <= value < upper


def test_percentiles_deterministic_under_shuffle():
    values = [float(v) for v in range(1, 501)]
    ordered = LogHistogram()
    for v in values:
        ordered.observe(v)
    shuffled = LogHistogram()
    rng = random.Random(99)
    mixed = list(values)
    rng.shuffle(mixed)
    for v in mixed:
        shuffled.observe(v)
    assert ordered.to_dict() == shuffled.to_dict()


def test_percentile_extremes_and_clamping():
    h = LogHistogram()
    for v in (3.0, 5.0, 7.0):
        h.observe(v)
    assert h.percentile(0.0) == 3.0
    assert h.percentile(1.0) == 7.0
    assert 3.0 <= h.percentile(0.5) <= 7.0
    empty = LogHistogram()
    assert empty.percentile(0.5) == 0.0
    assert empty.to_dict()["count"] == 0


def test_histogram_set_snapshot_sorted_and_mergeable():
    a = HistogramSet()
    a.observe("x", 1.0)
    a.observe("y", 2.0)
    snap = a.snapshot()
    assert list(snap) == ["x", "y"]
    assert NULL_HISTOGRAMS.snapshot() == {}
    NULL_HISTOGRAMS.observe("x", 1.0)  # discarded
    assert NULL_HISTOGRAMS.snapshot() == {}


# ---------------------------------------------------------------------------
# ResourceTimeline
# ---------------------------------------------------------------------------


def test_timeline_series_and_peak():
    t = ResourceTimeline()
    t.sample(0.0, bytes=10, depth=1)
    t.sample(1.5, bytes=30)
    t.sample(2.0, bytes=20, depth=3)
    assert len(t) == 3
    assert t.series("bytes") == [(0.0, 10), (1.5, 30), (2.0, 20)]
    assert t.series("depth") == [(0.0, 1), (2.0, 3)]
    assert t.peak("bytes") == 30
    assert t.peak("missing") == 0.0
    records = t.to_records()
    assert records[0] == {"time": 0.0, "bytes": 10, "depth": 1}
    NULL_TIMELINE.sample(0.0, bytes=1)
    assert len(NULL_TIMELINE) == 0


def test_timeline_counter_events_tracks():
    records = [
        {"time": 1.0, "resident_bytes": 100, "transient_bytes": 20, "queue_depth": 3},
        {"time": 2.0, "degradation_level": 1},
    ]
    events = timeline_counter_events(records)
    assert all(e["ph"] == "C" for e in events)
    memory = [e for e in events if e["name"] == "memory"]
    assert memory[0]["args"] == {"resident_bytes": 100, "transient_bytes": 20}
    assert memory[0]["ts"] == 1.0e6
    names = {e["name"] for e in events}
    assert {"memory", "queue_depth", "degradation_level"} <= names


# ---------------------------------------------------------------------------
# Engine wiring: iteration-boundary sampling, zero-overhead null path
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def profiled_run():
    return run_workload("RecStep", "AA", "andersen-2", profile=True)


def test_timeline_samples_once_per_iteration(profiled_run):
    report = profiled_run.profile
    # One sample per semi-naive iteration boundary, each stamped with
    # its (stratum, iteration) coordinates and the memory vector.
    assert len(report.timeline) == profiled_run.iterations
    iteration_marks = [(r["stratum"], r["iteration"]) for r in report.timeline]
    assert len(set(iteration_marks)) == len(iteration_marks)
    for record in report.timeline:
        assert {"time", "resident_bytes", "transient_bytes", "degradation_level"} <= set(
            record
        )
    hist = report.histograms["iteration.seconds"]
    assert hist["count"] == profiled_run.iterations


def test_statement_latency_histograms_populated(profiled_run):
    report = profiled_run.profile
    latency_names = [n for n in report.histograms if n.startswith("statement.latency.")]
    assert latency_names
    for name in latency_names:
        h = report.histograms[name]
        assert h["count"] > 0
        assert h["p50"] <= h["p95"] <= h["p99"] <= h["max"]


def test_pbme_path_reports_telemetry():
    result = run_workload("RecStep", "TC", "G500", profile=True)
    report = result.profile
    assert report.histograms["pbme.seconds"]["count"] >= 1
    assert report.timeline, "PBME stratum must leave a timeline sample"


def test_chrome_trace_includes_counter_tracks(profiled_run):
    trace = to_chrome_trace(profiled_run.profile)
    counter_events = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
    assert counter_events
    assert trace["otherData"]["histograms"] == profiled_run.profile.histograms


def test_profiling_off_is_null_path_with_identical_fixpoint(profiled_run):
    plain = run_workload("RecStep", "AA", "andersen-2", profile=False)
    engine = RecStep(RecStepConfig())
    # Same modeled outcome with observability off...
    assert plain.sim_seconds == profiled_run.sim_seconds
    assert plain.sizes() == profiled_run.sizes()
    assert plain.peak_memory_bytes == profiled_run.peak_memory_bytes
    assert plain.peak_transient_bytes == profiled_run.peak_transient_bytes
    # ...and a genuinely inert instrumentation surface.
    assert plain.profile is None
    program = get_program("AA")
    edb = prepare_edb(program, "andersen-2", seed=0)
    engine.evaluate(program, edb, dataset="andersen-2")
    db = engine.last_database
    assert not db.profiler.enabled
    assert db.profiler.histograms is NULL_HISTOGRAMS
    assert db.profiler.timeline is NULL_TIMELINE
    db.sample_timeline()
    db.note_iteration(0, 0, 10, 0.1)
    assert len(db.profiler.timeline) == 0
    assert db.profiler.histograms.snapshot() == {}


def test_chaos_seed_percentiles_deterministic(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS_SEED", "1234")
    runs = []
    for _ in range(2):
        result = run_workload("RecStep", "AA", "andersen-2", profile=True)
        snap = result.profile.histograms
        runs.append(
            {
                name: (snap[name]["count"], snap[name]["p50"], snap[name]["p95"], snap[name]["p99"])
                for name in snap
            }
        )
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Service telemetry: golden snapshot schema, determinism
# ---------------------------------------------------------------------------

#: The pinned metrics_snapshot() shape. Growing it is fine (add the key
#: here and bump METRICS_SCHEMA_VERSION); silently changing it is not.
GOLDEN_SNAPSHOT_KEYS = {
    "schema_version",
    "now",
    "histograms",
    "queue_timeline",
    "counters",
    "session_counts",
    "admission",
    "wal",
}

GOLDEN_QUEUE_TIMELINE_KEYS = {
    "samples",
    "max_queue_depth",
    "max_active",
    "max_reserved_bytes",
    "max_spilled_bytes",
    "series",
}

GOLDEN_HISTOGRAM_KEYS = {
    "count",
    "sum",
    "mean",
    "min",
    "max",
    "p50",
    "p95",
    "p99",
    "buckets",
}


def _small_service_run() -> QueryService:
    service = QueryService(ServerConfig(max_concurrent=2, queue_limit=8))
    program = get_program("TC")
    for i in range(3):
        edb = prepare_edb(program, "G500", seed=i)
        response = service.submit(
            QueryRequest(program=program, edb_data=edb, dataset="G500")
        )
        assert response["accepted"]
    service.flush()
    return service


def test_metrics_snapshot_golden_schema():
    service = _small_service_run()
    snapshot = service.metrics_snapshot()
    assert set(snapshot) == GOLDEN_SNAPSHOT_KEYS
    assert snapshot["schema_version"] == QueryService.METRICS_SCHEMA_VERSION
    assert set(snapshot["queue_timeline"]) == GOLDEN_QUEUE_TIMELINE_KEYS
    for name, record in snapshot["histograms"].items():
        assert set(record) == GOLDEN_HISTOGRAM_KEYS, name
    # Per-class + the "all" rollup for each of the three families.
    assert {"latency.all", "queue_wait.all", "rows_served.all"} <= set(
        snapshot["histograms"]
    )
    assert snapshot["histograms"]["latency.all"]["count"] == 3
    # The shutdown report embeds the same export.
    assert service.report()["metrics"]["histograms"] == snapshot["histograms"]


def test_metrics_snapshot_deterministic():
    a = _small_service_run().metrics_snapshot()
    b = _small_service_run().metrics_snapshot()
    assert a == b

