"""Span/trace API: lightweight structured tracing for the whole stack.

A :class:`Tracer` hands out :class:`Span` context managers::

    with tracer.span("sam.solve", step=t) as span:
        ...
        span.set(n_vars=model.num_variables)

Spans nest (the tracer keeps a stack, so each span knows its parent),
carry wall-clock timestamps plus a monotonic duration, and are emitted to
the tracer's *sinks* as plain dict events when the span closes.

The module-level *current tracer* (:func:`get_tracer`) defaults to a
tracer with no sinks.  A disabled span still measures its duration — the
simulation engine uses that to populate Table 4's ``ModuleRuntimes`` —
but skips ids, attribute storage, the nesting stack, and event emission,
so instrumented code paths cost two ``perf_counter`` calls and nothing
else when telemetry is off.

Emitting an event hands it to the sinks; a buffering sink
(:class:`~repro.telemetry.sinks.TraceWriter`) writes it when the tracer
is flushed.  The simulation engine calls :meth:`Tracer.flush` once per
step, after the step's transmissions, and :meth:`Tracer.close` flushes
too, so events reach the trace file once per engine step and at close —
outside every ``ra`` and ``sam`` sample.  A process killed mid-run loses
at most its current step.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Span:
    """One timed, attributed unit of work.  Use as a context manager."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "wall_start",
                 "duration", "_tracer", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id = 0
        self.wall_start = 0.0
        self.duration = 0.0
        self._start = 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes discovered mid-span (no-op when disabled)."""
        if self._tracer.enabled:
            self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer.enabled:
            self.span_id = tracer._next_id()
            stack = tracer._stack
            self.parent_id = stack[-1].span_id if stack else 0
            stack.append(self)
            self.wall_start = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._start
        tracer = self._tracer
        if tracer.enabled:
            if tracer._stack and tracer._stack[-1] is self:
                tracer._stack.pop()
            if exc_type is not None:
                self.attrs["error"] = exc_type.__name__
            tracer._emit_span(self)

    def to_event(self) -> dict:
        """The JSONL event for this span."""
        return {"type": "span", "name": self.name, "span_id": self.span_id,
                "parent_id": self.parent_id, "ts": self.wall_start,
                "duration": self.duration, "attrs": dict(self.attrs)}


class Tracer:
    """Creates spans and fans their events out to sinks.

    Parameters
    ----------
    sinks:
        Objects with ``emit(event: dict)`` (and optionally ``flush()``
        and ``close()``),
        e.g. :class:`~repro.telemetry.sinks.TraceWriter` or
        :class:`~repro.telemetry.sinks.InMemoryCollector`.  With no
        sinks the tracer is *disabled*: spans only measure duration.
    registry:
        Optional :class:`~repro.telemetry.registry.MetricsRegistry`.
        When set (and the tracer is enabled) every closed span feeds a
        ``span.<name>`` histogram, and :meth:`emit_metrics` writes a
        snapshot event so traces end with an aggregate view.
    """

    def __init__(self, sinks=(), registry=None) -> None:
        self.sinks = list(sinks)
        self.registry = registry
        self._stack: list[Span] = []
        self._id = 0

    @property
    def enabled(self) -> bool:
        return bool(self.sinks)

    def span(self, name: str, **attrs) -> Span:
        """A new span; record attributes only when a sink is attached."""
        return Span(self, name, attrs if self.enabled else {})

    def emit(self, event: dict) -> None:
        """Send a raw event to every sink (no-op when disabled)."""
        for sink in self.sinks:
            sink.emit(event)

    def emit_metrics(self) -> None:
        """Emit a snapshot of the attached registry as a metrics event.

        The event carries the registry's snapshot plus its full
        mergeable ``states`` dump, so sharded sweep traces can be
        folded into one fleet-wide registry afterwards.
        """
        if self.registry is not None and self.enabled:
            self.emit({"type": "metrics", "ts": time.time(),
                       "metrics": self.registry.snapshot(),
                       "states": self.registry.dump()})

    def flush(self) -> None:
        """Flush every sink that buffers (has ``flush()``)."""
        for sink in self.sinks:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    def close(self) -> None:
        """Close every sink that supports it."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    # -- internal ----------------------------------------------------------
    def _next_id(self) -> int:
        self._id += 1
        return self._id

    def _emit_span(self, span: Span) -> None:
        if self.registry is not None:
            self.registry.histogram(f"span.{span.name}").observe(
                span.duration)
        self.emit(span.to_event())


#: The disabled default: spans time themselves but emit nothing.
_NULL_TRACER = Tracer()
_current: Tracer = _NULL_TRACER


def get_tracer() -> Tracer:
    """The process-wide current tracer (disabled unless configured)."""
    return _current


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` (or the disabled default for ``None``)."""
    global _current
    previous = _current
    _current = tracer if tracer is not None else _NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer: Tracer):
    """Scope ``tracer`` as current for a with-block (tests, CLI runs)."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
