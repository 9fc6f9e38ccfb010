"""Tests for the span/counter/gauge tracer."""

from repro.obs import (
    NOOP,
    CountingTracer,
    RecordingTracer,
    Stopwatch,
    Tracer,
    monotonic,
)
from repro.obs.tracer import _NULL_SPAN


class TestClock:
    def test_monotonic_advances(self):
        a = monotonic()
        b = monotonic()
        assert b >= a

    def test_stopwatch_measures_and_freezes(self):
        with Stopwatch() as clock:
            mid = clock.elapsed_seconds
            assert mid >= 0.0
        final = clock.elapsed_seconds
        assert final >= mid
        # After exit the reading is frozen.
        assert clock.elapsed_seconds == final


class TestNoopTracer:
    def test_noop_is_disabled(self):
        assert NOOP.enabled is False
        assert isinstance(NOOP, Tracer)

    def test_span_returns_shared_null_handle(self):
        with NOOP.span("anything", key=1) as span:
            span.set(more=2)
        assert NOOP.span("x") is _NULL_SPAN
        assert NOOP.span("y") is NOOP.span("z")

    def test_count_and_gauge_are_silent(self):
        NOOP.count("c")
        NOOP.count("c", 5.0)
        NOOP.gauge("g", 3.0)
        assert not hasattr(NOOP, "events")


class TestRecordingTracer:
    def test_enabled(self):
        assert RecordingTracer().enabled is True

    def test_span_records_name_duration_and_attrs(self):
        tracer = RecordingTracer()
        with tracer.span("outer", color="red") as span:
            span.set(status="done")
        (event,) = tracer.events
        assert event.name == "outer"
        assert event.duration_s >= 0.0
        assert event.attrs == {"color": "red", "status": "done"}
        assert event.parent_id is None

    def test_nesting_sets_parent_ids(self):
        tracer = RecordingTracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        # Spans close inner-first.
        inner_event, outer_event = tracer.events
        assert inner_event.name == "inner"
        assert inner_event.parent_id == outer.span_id
        assert outer_event.parent_id is None
        assert inner.span_id != outer.span_id

    def test_siblings_share_parent(self):
        tracer = RecordingTracer()
        with tracer.span("outer") as outer:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, _ = tracer.events
        assert a.parent_id == b.parent_id == outer.span_id

    def test_counters_accumulate(self):
        tracer = RecordingTracer()
        tracer.count("hits")
        tracer.count("hits", 2.5)
        assert tracer.counters == {"hits": 3.5}

    def test_gauges_last_value_wins(self):
        tracer = RecordingTracer()
        tracer.gauge("level", 1.0)
        tracer.gauge("level", 9.0)
        assert tracer.gauges == {"level": 9.0}

    def test_counts_carry_innermost_open_span(self):
        tracer = RecordingTracer()
        tracer.count("outside")
        with tracer.span("work") as span:
            tracer.count("inside")
            tracer.gauge("depth", 1.0)
        outside, inside, depth, _ = tracer.events
        assert outside.span_id is None
        assert inside.span_id == span.span_id
        assert depth.span_id == span.span_id

    def test_event_dicts_tag_kinds(self):
        tracer = RecordingTracer()
        tracer.count("c")
        tracer.gauge("g", 1.0)
        with tracer.span("s"):
            pass
        kinds = [event["kind"] for event in tracer.event_dicts()]
        assert kinds == ["count", "gauge", "span"]

    def test_span_exits_on_exception(self):
        tracer = RecordingTracer()
        try:
            with tracer.span("fails"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        (event,) = tracer.events
        assert event.name == "fails"
        assert tracer._stack == []


class TestCountingTracer:
    @staticmethod
    def feed(tracer):
        with tracer.span("outer", job=1) as span:
            tracer.count("crossbar.writes")
            tracer.count("crossbar.cells_written", 12)
            with tracer.span("inner"):
                tracer.count("crossbar.cells_written", 0.5)
                tracer.gauge("solver.iterations", 3)
                tracer.observe("service.latency_s", 0.02)
            span.set(status="optimal")
        tracer.gauge("solver.iterations", 7)
        tracer.count("analog.solves", 1e-17)
        for value in (0.5, 3.0, 1e-6):
            tracer.observe("service.latency_s", value)

    def test_aggregates_equal_recording_tracer(self):
        counting = CountingTracer()
        recording = RecordingTracer()
        self.feed(counting)
        self.feed(recording)
        assert counting.counters == recording.counters
        assert counting.gauges == recording.gauges
        assert counting.histograms.keys() == recording.histograms.keys()
        for name, hist in counting.histograms.items():
            assert hist.to_dict() == recording.histograms[name].to_dict()

    def test_spans_are_null_and_no_events_kept(self):
        counting = CountingTracer()
        assert counting.enabled
        assert counting.span("x", a=1) is _NULL_SPAN
        self.feed(counting)
        assert not hasattr(counting, "events")
        assert not isinstance(counting, RecordingTracer)

