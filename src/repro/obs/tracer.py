"""Hierarchical tracing: spans, counters, and gauges.

The instrumentation substrate for the solvers and the crossbar
simulator.  Three event kinds:

- **spans** — named, nested wall-clock intervals (``iteration`` >
  ``analog_solve`` > ``op.solve``) opened with :meth:`Tracer.span` as
  context managers;
- **counters** — monotonically accumulating totals
  (``analog.multiplies``, ``crossbar.cells_written``) bumped with
  :meth:`Tracer.count`;
- **gauges** — last-value-wins observations (``solver.iterations``)
  set with :meth:`Tracer.gauge`;
- **histogram observations** — distribution samples
  (``service.latency_s``) folded with :meth:`Tracer.observe` into a
  per-name :class:`~repro.obs.metrics.StreamingHistogram` (fixed log
  buckets, so worker streams merge exactly; see
  :mod:`repro.obs.metrics`).

The default tracer is the module-level :data:`NOOP` singleton: every
hook is an O(1) constant-returning method, so instrumented code paths
cost one attribute lookup and call per hook when tracing is off.  Hot
loops that would build argument dicts can guard on
:attr:`Tracer.enabled` to skip even that.

A :class:`CountingTracer` keeps only the aggregates — counter, gauge
and histogram maps — and hands out the null span: what a caller needs
when it reads totals but never replays the stream (the serving layer's
per-attempt tracers when the service tracer does not record).

A :class:`RecordingTracer` keeps the full event stream (spans close in
end-time order; counter/gauge events carry the innermost open span id,
so a replay can attribute them to a subtree) plus aggregated counter
and gauge maps.  Export goes through :mod:`repro.obs.sinks`; summary
tables and reconciliation against
:class:`~repro.core.result.CrossbarCounters` live in
:mod:`repro.analysis.spans`.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.obs.clock import monotonic
from repro.obs.metrics import StreamingHistogram


@dataclasses.dataclass(frozen=True)
class SpanEvent:
    """One closed span: a named interval in the trace hierarchy."""

    name: str
    span_id: int
    parent_id: int | None
    start_s: float
    duration_s: float
    attrs: dict

    def to_dict(self) -> dict:
        return {
            "kind": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
        }


@dataclasses.dataclass(frozen=True)
class CountEvent:
    """One counter increment, attributed to the innermost open span."""

    name: str
    value: float
    t_s: float
    span_id: int | None

    def to_dict(self) -> dict:
        return {
            "kind": "count",
            "name": self.name,
            "value": self.value,
            "t_s": self.t_s,
            "span_id": self.span_id,
        }


@dataclasses.dataclass(frozen=True)
class GaugeEvent:
    """One gauge observation, attributed to the innermost open span."""

    name: str
    value: float
    t_s: float
    span_id: int | None

    def to_dict(self) -> dict:
        return {
            "kind": "gauge",
            "name": self.name,
            "value": self.value,
            "t_s": self.t_s,
            "span_id": self.span_id,
        }


@dataclasses.dataclass(frozen=True)
class HistEvent:
    """One histogram observation, attributed to the innermost open span."""

    name: str
    value: float
    t_s: float
    span_id: int | None

    def to_dict(self) -> dict:
        return {
            "kind": "hist",
            "name": self.name,
            "value": self.value,
            "t_s": self.t_s,
            "span_id": self.span_id,
        }


class _NullSpan:
    """Reusable do-nothing span handle (singleton)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        """Ignore attribute updates."""


_NULL_SPAN = _NullSpan()


class Tracer:
    """The no-op tracer: every hook does (almost) nothing.

    Also the base interface :class:`CountingTracer` and
    :class:`RecordingTracer` implement.  Use the shared :data:`NOOP`
    singleton rather than constructing one.
    """

    enabled: bool = False

    def span(self, name: str, **attrs) -> _NullSpan:
        """Open a span; use as a context manager."""
        return _NULL_SPAN

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the counter ``name``."""

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value``."""

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into the histogram ``name``."""


#: Shared zero-overhead tracer; the default everywhere.
NOOP = Tracer()


class CountingTracer(Tracer):
    """Tracer that keeps the aggregates and drops the event stream.

    :attr:`counters`, :attr:`gauges` and :attr:`histograms` fold
    exactly as :class:`RecordingTracer`'s do for the same calls, but no
    event is stored and :meth:`span` returns the shared null span, so a
    hook costs one dict update.  Use it where only totals are read.

    Attributes
    ----------
    counters:
        ``name -> accumulated total`` over all :meth:`count` calls.
    gauges:
        ``name -> last value`` over all :meth:`gauge` calls.
    histograms:
        ``name -> StreamingHistogram`` over all :meth:`observe` calls
        (default bucket scheme, so histograms merge across tracers).
    """

    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, StreamingHistogram] = {}

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = StreamingHistogram()
        hist.observe(value)


class _RecordingSpan:
    """Open-span handle; records a :class:`SpanEvent` on exit."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "attrs",
                 "start_s")

    def __init__(
        self,
        tracer: "RecordingTracer",
        name: str,
        parent_id: int | None,
        attrs: dict,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = next(tracer._ids)
        self.parent_id = parent_id
        self.attrs = attrs
        self.start_s = 0.0

    def set(self, **attrs) -> None:
        """Attach or update span attributes before it closes."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_RecordingSpan":
        self._tracer._stack.append(self.span_id)
        self.start_s = monotonic()
        return self

    def __exit__(self, *exc) -> bool:
        end = monotonic()
        stack = self._tracer._stack
        # Tolerate mis-nested exits rather than corrupting the stack.
        if stack and stack[-1] == self.span_id:
            stack.pop()
        elif self.span_id in stack:  # pragma: no cover - defensive
            stack.remove(self.span_id)
        self._tracer.events.append(
            SpanEvent(
                name=self.name,
                span_id=self.span_id,
                parent_id=self.parent_id,
                start_s=self.start_s,
                duration_s=end - self.start_s,
                attrs=self.attrs,
            )
        )
        return False


class RecordingTracer(CountingTracer):
    """Tracer that keeps the full event stream plus aggregates.

    The aggregates (:attr:`counters`, :attr:`gauges`,
    :attr:`histograms`) are :class:`CountingTracer`'s; every call also
    appends its event.

    Attributes
    ----------
    events:
        Chronological event list (spans appended when they *close*).
    """

    def __init__(self) -> None:
        super().__init__()
        self.events: list = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def span(self, name: str, **attrs) -> _RecordingSpan:
        parent = self._stack[-1] if self._stack else None
        return _RecordingSpan(self, name, parent, attrs)

    def count(self, name: str, value: float = 1.0) -> None:
        super().count(name, value)
        self.events.append(
            CountEvent(
                name=name,
                value=value,
                t_s=monotonic(),
                span_id=self._stack[-1] if self._stack else None,
            )
        )

    def gauge(self, name: str, value: float) -> None:
        super().gauge(name, value)
        self.events.append(
            GaugeEvent(
                name=name,
                value=value,
                t_s=monotonic(),
                span_id=self._stack[-1] if self._stack else None,
            )
        )

    def observe(self, name: str, value: float) -> None:
        super().observe(name, value)
        self.events.append(
            HistEvent(
                name=name,
                value=value,
                t_s=monotonic(),
                span_id=self._stack[-1] if self._stack else None,
            )
        )

    def event_dicts(self) -> list[dict]:
        """The event stream as plain dicts (the JSONL payload)."""
        return [event.to_dict() for event in self.events]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RecordingTracer(events={len(self.events)}, "
            f"counters={len(self.counters)}, gauges={len(self.gauges)})"
        )
