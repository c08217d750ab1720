"""Tests for the observability layer: tracer, counters, report, export."""

import json

import numpy as np
import pytest

from repro import PbmeMode, RecStep, RecStepConfig
from repro.common.timing import SimClock
from repro.engine.database import Database
from repro.obs import (
    CATEGORY_ITERATION,
    CATEGORY_OPERATOR,
    CATEGORY_PROGRAM,
    CATEGORY_STATEMENT,
    CATEGORY_STRATUM,
    NULL_PROFILER,
    Profiler,
    ProfileReport,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.counters import CounterRegistry, NullCounterRegistry
from repro.obs.tracer import CATEGORY_ORDER, NULL_SPAN, NullTracer, SpanTracer
from repro.programs import get_program

TC_EDGES = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)


class TestSpanTracer:
    def test_spans_nest_and_record_sim_time(self):
        clock = SimClock()
        tracer = SpanTracer(clock)
        with tracer.span("outer", CATEGORY_STRATUM) as outer:
            clock.advance(1.0)
            with tracer.span("inner", CATEGORY_OPERATOR) as inner:
                clock.advance(2.0)
            clock.advance(0.5)
        assert outer.start == 0.0 and outer.end == 3.5
        assert inner.start == 1.0 and inner.end == 3.0
        assert inner in outer.children
        assert outer.duration == 3.5
        assert inner.duration == 2.0
        assert outer.self_time == pytest.approx(1.5)

    def test_sibling_spans_ordered_on_clock(self):
        clock = SimClock()
        tracer = SpanTracer(clock)
        with tracer.span("parent", CATEGORY_ITERATION):
            for name in ("a", "b", "c"):
                with tracer.span(name):
                    clock.advance(1.0)
        (parent,) = tracer.roots
        starts = [child.start for child in parent.children]
        assert [c.name for c in parent.children] == ["a", "b", "c"]
        assert starts == sorted(starts)
        # Siblings tile the parent: each starts where the previous ended.
        for left, right in zip(parent.children, parent.children[1:]):
            assert right.start == left.end

    def test_walk_is_preorder_and_find_filters(self):
        tracer = SpanTracer(SimClock())
        with tracer.span("p", CATEGORY_PROGRAM):
            with tracer.span("s", CATEGORY_STRATUM):
                with tracer.span("op"):
                    pass
            with tracer.span("s2", CATEGORY_STRATUM):
                pass
        (root,) = tracer.roots
        assert [s.name for s in root.walk()] == ["p", "s", "op", "s2"]
        assert [s.name for s in root.find(CATEGORY_STRATUM)] == ["s", "s2"]

    def test_exception_unwinding_closes_dangling_spans(self):
        clock = SimClock()
        tracer = SpanTracer(clock)
        with pytest.raises(RuntimeError):
            with tracer.span("outer", CATEGORY_STATEMENT):
                # Simulate a component that opened a child span and raised
                # before closing it: the inner context never exits.
                inner_ctx = tracer.span("leaked")
                inner_ctx.__enter__()
                clock.advance(1.0)
                raise RuntimeError("boom")
        (outer,) = tracer.roots
        assert outer.end is not None
        assert all(child.end is not None for child in outer.walk())
        assert tracer.current is None

    def test_attrs_via_set_and_annotate(self):
        profiler = Profiler(SimClock())
        with profiler.span("op") as span:
            span.set(rows_out=7)
            profiler.annotate(build_side="left")
        assert span.attrs["rows_out"] == 7
        assert span.attrs["build_side"] == "left"


class TestDisabledMode:
    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("anything", CATEGORY_PROGRAM) as span:
            span.set(rows_out=123)
        assert span is NULL_SPAN
        assert span.attrs == {}
        assert tracer.roots == []
        assert not tracer.enabled

    def test_null_profiler_is_inert(self):
        NULL_PROFILER.annotate(rows_out=1)
        NULL_PROFILER.add_phase_time("probe", 1.0)
        NULL_PROFILER.counters.inc("dedup_calls", 5)
        assert NULL_PROFILER.counters.snapshot() == {}
        assert not NULL_PROFILER.enabled

    def test_database_defaults_to_disabled_profiling(self):
        db = Database(enforce_budgets=False)
        assert not db.profiler.enabled
        db.load_table("e", ["a", "b"], TC_EDGES)
        db.execute("SELECT e.a AS a FROM e")
        assert db.profiler.tracer.roots == []

    def test_unprofiled_run_has_no_report(self):
        program = get_program("TC")
        result = RecStep(RecStepConfig()).evaluate(
            program, {"arc": TC_EDGES}, dataset="tiny"
        )
        assert result.status == "ok"
        assert result.profile is None


class TestCounters:
    def test_inc_get_snapshot_clear(self):
        counters = CounterRegistry()
        counters.inc("dedup_calls")
        counters.inc("dedup_calls", 2)
        assert counters.get("dedup_calls") == 3
        assert counters.snapshot() == {"dedup_calls": 3}
        counters.clear()
        assert counters.snapshot() == {}

    def test_null_registry_discards(self):
        counters = NullCounterRegistry()
        counters.inc("dedup_calls", 10)
        assert counters.get("dedup_calls") == 0
        assert counters.snapshot() == {}


@pytest.fixture(scope="module")
def profiled_result():
    """One profiled TC evaluation shared by the report/export tests.

    PBME is forced off so the run takes the relational path, which
    exercises every span category down to individual operators.
    """
    program = get_program("TC")
    config = RecStepConfig(profile=True, pbme=PbmeMode.OFF)
    return RecStep(config).evaluate(program, {"arc": TC_EDGES}, dataset="tiny")


class TestProfiledRun:
    def test_report_attached_and_attributed(self, profiled_result):
        report = profiled_result.profile
        assert isinstance(report, ProfileReport)
        assert report.total_time == pytest.approx(profiled_result.sim_seconds)
        # The program span wraps the whole evaluation, so attribution is
        # complete (the >=95% acceptance bar, with headroom).
        assert report.attributed_fraction() >= 0.95

    def test_five_level_hierarchy(self, profiled_result):
        (root,) = profiled_result.profile.roots
        assert root.category == CATEGORY_PROGRAM
        present = {span.category for span in root.walk()}
        assert present == {
            CATEGORY_PROGRAM,
            CATEGORY_STRATUM,
            CATEGORY_ITERATION,
            CATEGORY_STATEMENT,
            CATEGORY_OPERATOR,
        }

    def test_children_nest_within_parents(self, profiled_result):
        for span in profiled_result.profile.roots[0].walk():
            for child in span.children:
                assert child.start >= span.start
                assert child.end <= span.end
                # Categories never outrank the parent's nesting level.
                assert CATEGORY_ORDER[child.category] >= CATEGORY_ORDER[span.category]

    def test_counters_track_real_work(self, profiled_result):
        counters = profiled_result.profile.counters
        assert counters["statements_executed"] > 0
        assert counters["dedup_calls"] > 0

    def test_rollups_and_rendering(self, profiled_result):
        report = profiled_result.profile
        hotspots = report.render_hotspots(top_n=5)
        assert "% attributed to spans" in hotspots
        assert "counters:" in hotspots
        rules = report.per_rule()
        assert "tc" in rules  # statement time attributed to the tc predicate
        assert report.rollups()  # non-empty, sorted by self time
        self_times = [r.self_time for r in report.rollups()]
        assert self_times == sorted(self_times, reverse=True)


class TestChromeTraceExport:
    def test_schema_and_nesting(self, profiled_result, tmp_path):
        path = write_chrome_trace(profiled_result.profile, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert set(payload) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = payload["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata record
        spans = [e for e in events if e["ph"] == "X"]
        assert spans, "no complete events exported"
        for event in spans:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert event["ts"] >= 0 and event["dur"] >= 0
        # Microsecond timestamps reproduce the simulated timeline.
        total = payload["otherData"]["total_sim_seconds"]
        program_events = [e for e in spans if e["cat"] == CATEGORY_PROGRAM]
        assert len(program_events) == 1
        assert program_events[0]["dur"] == pytest.approx(total * 1e6)
        assert payload["otherData"]["counters"] == profiled_result.profile.counters

    def test_round_trips_through_json(self, profiled_result):
        # Every attr the exporter keeps must be JSON-serialisable.
        text = json.dumps(to_chrome_trace(profiled_result.profile))
        assert json.loads(text)["traceEvents"]
