"""The telemetry context: one tracer + one metrics registry, activated
per run.

A :class:`Telemetry` bundles a :class:`~repro.telemetry.spans.Tracer`
and a :class:`~repro.telemetry.metrics.MetricsRegistry`.  Library code
never receives one explicitly — it calls the module-level helpers
(:func:`span`, :func:`event`, :func:`counter`, :func:`histogram`, …),
which resolve the *current* context through a :class:`contextvars`
variable set by :func:`use`::

    tele = Telemetry()
    with use(tele):
        result = solve_cubis(game, uncertainty)
    print(len(tele.spans), "spans")

When nothing is active, the helpers fall back to :data:`DISABLED`: its
``span()`` returns the shared no-op handle (so tracing instrumentation
costs a contextvar lookup and nothing else) while its *metrics* registry
is live — counters keep counting, which lets ``solve_cubis`` derive its
per-solve ``milp_solves``/``lp_solves``/``cache_hits`` result fields
from counter deltas whether or not anyone is tracing.

Worker processes do not inherit the parent's context variable; they
build their own :class:`Telemetry`, run under it, and return
:meth:`Telemetry.export` — a picklable snapshot the parent grafts back
with :meth:`Telemetry.absorb` (spans re-parented under the parent's open
span, metrics merged bucket-wise).  Absorbing exports in a fixed (trial)
order makes the merged result deterministic regardless of scheduling.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.spans import NULL_SPAN, SpanRecord, Tracer

__all__ = [
    "Telemetry",
    "TelemetryExport",
    "DISABLED",
    "current",
    "use",
    "span",
    "event",
    "counter",
    "gauge",
    "histogram",
    "metrics",
]


@dataclass
class TelemetryExport:
    """Picklable snapshot of one context's spans and metrics (what a
    sweep worker ships back to the parent process)."""

    spans: tuple[SpanRecord, ...]
    metrics: MetricsRegistry


class Telemetry:
    """One observability context: a tracer plus a metrics registry.

    ``enabled=False`` turns the *tracing* side into a no-op (spans and
    events are dropped at the call site); the metrics registry stays
    live either way — recording a counter is cheap and several result
    fields are derived from counter deltas.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    # -- tracing ----------------------------------------------------- #

    def span(self, name: str, **attributes):
        """A context-managed span (no-op handle when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(name, **attributes)

    def event(self, name: str, **attributes) -> None:
        """Record an instantaneous span (dropped when disabled)."""
        if self.enabled:
            self.tracer.event(name, **attributes)

    @property
    def spans(self) -> tuple[SpanRecord, ...]:
        """All completed spans, timestamp-ordered."""
        return self.tracer.spans

    # -- metrics ------------------------------------------------------ #

    def counter(self, name: str, **labels) -> Counter:
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self.metrics.gauge(name, **labels)

    def histogram(self, name: str, buckets=None, **labels) -> Histogram:
        return self.metrics.histogram(name, buckets, **labels)

    # -- cross-process merge ------------------------------------------ #

    def export(self) -> TelemetryExport:
        """Snapshot for shipping to another process (or absorbing)."""
        return TelemetryExport(spans=self.spans, metrics=self.metrics)

    def absorb(self, export: TelemetryExport) -> None:
        """Graft an export into this context: spans are adopted under
        the currently open span (when tracing), metrics merged always."""
        if self.enabled:
            self.tracer.adopt(export.spans)
        self.metrics.merge(export.metrics)


#: The fallback context: tracing disabled, metrics live.  Shared
#: process-wide; counter values on it are only meaningful as deltas.
DISABLED = Telemetry(enabled=False)

_current: contextvars.ContextVar[Telemetry] = contextvars.ContextVar(
    "repro_telemetry", default=DISABLED
)


def current() -> Telemetry:
    """The active telemetry context (:data:`DISABLED` if none)."""
    return _current.get()


@contextmanager
def use(telemetry: Telemetry):
    """Activate ``telemetry`` for the dynamic extent of the block."""
    token = _current.set(telemetry)
    try:
        yield telemetry
    finally:
        _current.reset(token)


def span(name: str, **attributes):
    """A span on the current context (no-op when disabled)."""
    return _current.get().span(name, **attributes)


def event(name: str, **attributes) -> None:
    """An instantaneous span on the current context."""
    _current.get().event(name, **attributes)


def counter(name: str, **labels) -> Counter:
    """A counter on the current context's registry (always live)."""
    return _current.get().metrics.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    """A gauge on the current context's registry."""
    return _current.get().metrics.gauge(name, **labels)


def histogram(name: str, buckets=None, **labels) -> Histogram:
    """A histogram on the current context's registry."""
    return _current.get().metrics.histogram(name, buckets, **labels)


def metrics() -> MetricsRegistry:
    """The current context's metrics registry."""
    return _current.get().metrics
