"""Tracing spans: nested, timestamp-ordered records of where time goes.

A :class:`Tracer` hands out context-managed span handles::

    with tracer.span("milp.solve", target_count=50) as sp:
        ...
        sp.set(status="optimal")

Each completed span becomes an immutable :class:`SpanRecord` carrying its
name, start offset (seconds since the tracer's epoch), duration, nesting
depth, parent link, and an attribute dict.  Span ids are assigned in
*start* order, so sorting by id recovers the timestamp order even though
records are appended on completion (children complete before parents).

Records are plain picklable dataclasses: worker processes trace into
their own :class:`Tracer` and ship the records back to the parent, which
grafts them into its tree with :meth:`Tracer.adopt` (re-identifying and
re-parenting deterministically — see ``repro.analysis.sweep.run_grid``).

The module also defines :data:`NULL_SPAN`, the shared no-op handle the
disabled-telemetry fast path returns: entering, exiting, and ``set`` all
cost a single attribute lookup, which is what keeps instrumented hot
paths essentially free when nothing is recording.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any

__all__ = ["SpanRecord", "Tracer", "NULL_SPAN", "span_signature"]


@dataclass(frozen=True)
class SpanRecord:
    """One completed (or instantaneous) span.

    Attributes
    ----------
    span_id:
        1-based id, assigned in start order within the owning tracer.
    parent_id:
        Id of the enclosing span, ``None`` for roots.
    name:
        Dotted span name (see docs/OBSERVABILITY.md for the taxonomy).
    start:
        Seconds since the owning tracer's epoch.  Adopted spans keep
        their origin tracer's clock (offsets are process-local).
    duration:
        Wall-clock seconds; ``0.0`` for instantaneous events.
    depth:
        Nesting depth (0 for roots).
    status:
        ``"ok"``, or ``"error"`` when the traced block raised.
    attributes:
        The keyword attributes given at creation plus any added via
        ``set`` before the span closed.
    error:
        ``"ExcType: message"`` when ``status == "error"``.
    cpu_time:
        Process CPU seconds consumed while the span was open
        (``time.process_time_ns`` delta; all threads of the process).
        ``wall >> cpu`` marks a span that *waited* — on a lock, a queue,
        or a subprocess — rather than computed; `repro trace report`
        surfaces exactly that split.  ``0.0`` for instantaneous events.
    mem_peak:
        Peak ``tracemalloc`` traced memory over the span, in bytes,
        relative to the allocation level at entry.  ``None`` unless
        ``tracemalloc`` was tracing while the span ran (the process-wide
        peak makes this approximate under nesting: a child's spike is
        also counted against every open ancestor).
    """

    span_id: int
    parent_id: int | None
    name: str
    start: float
    duration: float
    depth: int
    status: str = "ok"
    attributes: dict = field(default_factory=dict)
    error: str = ""
    cpu_time: float = 0.0
    mem_peak: int | None = None

    def to_dict(self) -> dict:
        """JSON-ready dict (used by the JSONL sink)."""
        out = {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "depth": self.depth,
            "status": self.status,
            "attributes": dict(self.attributes),
            "cpu_time": self.cpu_time,
        }
        if self.error:
            out["error"] = self.error
        if self.mem_peak is not None:
            out["mem_peak"] = self.mem_peak
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        """Rebuild a record from :meth:`to_dict` output (the JSONL sink's
        line format).  Records written before the resource fields existed
        load with ``cpu_time=0.0`` / ``mem_peak=None``."""
        mem_peak = data.get("mem_peak")
        return cls(
            span_id=int(data["span_id"]),
            parent_id=None if data["parent_id"] is None else int(data["parent_id"]),
            name=str(data["name"]),
            start=float(data["start"]),
            duration=float(data["duration"]),
            depth=int(data["depth"]),
            status=str(data.get("status", "ok")),
            attributes=dict(data.get("attributes", {})),
            error=str(data.get("error", "")),
            cpu_time=float(data.get("cpu_time", 0.0)),
            mem_peak=None if mem_peak is None else int(mem_peak),
        )


def span_signature(spans) -> tuple:
    """The *structural* signature of a span collection: everything about
    the tree except ids and wall-clock timings.

    Two runs of the same deterministic computation produce equal
    signatures even though their span ids (absolute values) and
    durations differ — which is exactly the "same span tree" contract a
    pooled sweep must honour against a serial one.  Each entry
    is ``(position-of-parent, name, depth, status, sorted non-float
    attributes, error)``; parents are referenced by their *position* in
    the start-ordered sequence, so the signature is invariant under id
    remapping (``Tracer.adopt``).  Float attributes are excluded because
    a few carry wall-clock readings (``wall_seconds`` on resilience
    events); everything structural is integer/string/bool and kept.
    """
    ordered = sorted(spans, key=lambda r: r.span_id)
    position = {r.span_id: i for i, r in enumerate(ordered)}
    return tuple(
        (
            position.get(r.parent_id),
            r.name,
            r.depth,
            r.status,
            tuple(sorted(
                (k, v) for k, v in r.attributes.items()
                if not isinstance(v, float)
            )),
            r.error,
        )
        for r in ordered
    )


class _NullSpan:
    """Shared no-op span handle (the disabled-telemetry fast path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes) -> "_NullSpan":
        return self


#: The process-wide no-op handle.  ``telemetry.span(...)`` returns this
#: when no telemetry is active, so instrumentation costs almost nothing.
NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Live span: context manager that records a :class:`SpanRecord` on
    exit.  Created by :meth:`Tracer.span`; not instantiated directly."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span_id", "_parent_id",
                 "_depth", "_t0", "_cpu0", "_mem0")

    def __init__(self, tracer: "Tracer", name: str, attributes: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span_id = 0
        self._parent_id: int | None = None
        self._depth = 0
        self._t0 = 0.0
        self._cpu0 = 0
        self._mem0: int | None = None

    def set(self, **attributes) -> "_SpanHandle":
        """Attach attributes discovered mid-span (e.g. a verdict)."""
        self._attributes.update(attributes)
        return self

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        self._span_id = tracer._next_id
        tracer._next_id += 1
        stack = tracer._stack
        if stack:
            top = stack[-1]
            self._parent_id = top._span_id
            self._depth = top._depth + 1
        stack.append(self)
        if tracemalloc.is_tracing():
            self._mem0 = tracemalloc.get_traced_memory()[0]
        self._cpu0 = time.process_time_ns()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        cpu_time = (time.process_time_ns() - self._cpu0) / 1e9
        mem_peak: int | None = None
        if self._mem0 is not None and tracemalloc.is_tracing():
            mem_peak = max(0, tracemalloc.get_traced_memory()[1] - self._mem0)
        tracer = self._tracer
        # Pop *this* handle even if an inner span leaked (an inner block
        # that never exited); spans are strictly stack-disciplined.
        while tracer._stack and tracer._stack[-1] is not self:
            tracer._stack.pop()
        if tracer._stack:
            tracer._stack.pop()
        tracer._records.append(SpanRecord(
            span_id=self._span_id,
            parent_id=self._parent_id,
            name=self._name,
            start=self._t0 - tracer.epoch,
            duration=duration,
            depth=self._depth,
            status="error" if exc_type is not None else "ok",
            attributes=self._attributes,
            error=f"{exc_type.__name__}: {exc}" if exc_type is not None else "",
            cpu_time=cpu_time,
            mem_peak=mem_peak,
        ))
        return False


class Tracer:
    """In-memory span recorder with stack-based nesting."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self._records: list[SpanRecord] = []
        self._stack: list[_SpanHandle] = []
        self._next_id = 1

    def span(self, name: str, **attributes) -> _SpanHandle:
        """A new span handle; use as a context manager."""
        return _SpanHandle(self, name, attributes)

    def event(self, name: str, **attributes) -> SpanRecord:
        """Record an instantaneous (zero-duration) span immediately."""
        span_id = self._next_id
        self._next_id += 1
        parent_id: int | None = None
        depth = 0
        if self._stack:
            top = self._stack[-1]
            parent_id = top._span_id
            depth = top._depth + 1
        record = SpanRecord(
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            start=time.perf_counter() - self.epoch,
            duration=0.0,
            depth=depth,
            attributes=attributes,
        )
        self._records.append(record)
        return record

    @property
    def spans(self) -> tuple[SpanRecord, ...]:
        """All completed spans in start (timestamp) order."""
        return tuple(sorted(self._records, key=lambda r: r.span_id))

    @property
    def active_span_id(self) -> int | None:
        """Id of the innermost open span, ``None`` outside any span."""
        return self._stack[-1]._span_id if self._stack else None

    def __len__(self) -> int:
        return len(self._records)

    def adopt(self, records: tuple[SpanRecord, ...]) -> None:
        """Graft spans recorded elsewhere (a worker process) into this
        tracer's tree.

        Ids are remapped past this tracer's counter in the adopted
        records' own order, root records are re-parented under the
        currently open span, and depths are shifted accordingly — so
        adopting trial exports in trial order yields one deterministic
        tree regardless of how many workers produced them.  ``start``
        offsets keep the origin tracer's clock (see :class:`SpanRecord`).
        """
        if not records:
            return
        id_map: dict[int, int] = {}
        for record in records:
            id_map[record.span_id] = self._next_id
            self._next_id += 1
        parent_id = self.active_span_id
        base_depth = 0
        if self._stack:
            base_depth = self._stack[-1]._depth + 1
        for record in records:
            adopted_parent = (
                id_map[record.parent_id]
                if record.parent_id in id_map
                else parent_id
            )
            self._records.append(SpanRecord(
                span_id=id_map[record.span_id],
                parent_id=adopted_parent,
                name=record.name,
                start=record.start,
                duration=record.duration,
                depth=record.depth + base_depth,
                status=record.status,
                attributes=dict(record.attributes),
                error=record.error,
                cpu_time=record.cpu_time,
                mem_peak=record.mem_peak,
            ))
