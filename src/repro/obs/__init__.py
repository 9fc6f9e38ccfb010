"""Observability: spans, analog-op metrics, and trace export.

The measurement substrate for the solver stack (DESIGN.md §9, §14):

- :mod:`repro.obs.clock` — the shared monotonic clock and
  :class:`Stopwatch` behind every ``elapsed_seconds``.
- :mod:`repro.obs.tracer` — the hierarchical :class:`Tracer` API
  (spans / counters / gauges / histogram observations), its
  zero-overhead :data:`NOOP` default, the aggregates-only
  :class:`CountingTracer` and the in-memory :class:`RecordingTracer`.
- :mod:`repro.obs.metrics` — streaming fixed-log-bucket histograms
  with quantile estimation, sliding windows, and the labeled
  :class:`MetricsRegistry` behind live serving telemetry.
- :mod:`repro.obs.slo` — error budgets and multi-window burn-rate
  gauges for the serving SLOs.
- :mod:`repro.obs.recorder` — the bounded flight-recorder ring buffer
  dumped to JSONL when something noteworthy trips it.
- :mod:`repro.obs.sinks` — JSONL event-stream export and the
  Prometheus-style textfile snapshot (histogram bucket/sum/count and
  labeled registry series included).

Summary tables and reconciliation against
:class:`~repro.core.result.CrossbarCounters` live in
:mod:`repro.analysis.spans` (the analysis layer depends on obs, never
the reverse).
"""

from repro.obs.clock import Stopwatch, monotonic
from repro.obs.metrics import (
    DEFAULT_SCHEME,
    BucketScheme,
    MetricsRegistry,
    StreamingHistogram,
    WindowedHistogram,
    exact_quantile,
)
from repro.obs.recorder import FlightRecorder, read_flight_jsonl
from repro.obs.sinks import (
    label_name,
    metric_name,
    read_trace_jsonl,
    render_histogram,
    render_metrics,
    render_registry,
    write_metrics_textfile,
    write_trace_jsonl,
)
from repro.obs.slo import ErrorBudget, SLOPolicy, SLOTracker
from repro.obs.tracer import (
    NOOP,
    CountEvent,
    CountingTracer,
    GaugeEvent,
    HistEvent,
    RecordingTracer,
    SpanEvent,
    Tracer,
)

__all__ = [
    "monotonic",
    "Stopwatch",
    "Tracer",
    "CountingTracer",
    "RecordingTracer",
    "NOOP",
    "SpanEvent",
    "CountEvent",
    "GaugeEvent",
    "HistEvent",
    "BucketScheme",
    "DEFAULT_SCHEME",
    "StreamingHistogram",
    "WindowedHistogram",
    "MetricsRegistry",
    "exact_quantile",
    "SLOPolicy",
    "ErrorBudget",
    "SLOTracker",
    "FlightRecorder",
    "read_flight_jsonl",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "write_metrics_textfile",
    "render_metrics",
    "render_registry",
    "render_histogram",
    "metric_name",
    "label_name",
]
