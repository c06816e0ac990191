"""Event sinks: JSONL trace files and an in-memory collector.

Events are plain dicts (see ``Span.to_event`` for the span schema).  The
writer is line-oriented JSON so traces stream, append, and grep well;
:func:`iter_trace` streams a file back event by event and
:func:`read_trace` loads it whole.  Tests and benchmarks use
:class:`InMemoryCollector` to assert on emitted events without touching
the filesystem.

:class:`TraceWriter` writes behind the engine's step, not at each
emission: ``emit`` only queues the event, and the queue is encoded and
written when the simulation engine flushes the tracer (once per step,
after the step's transmissions), when :data:`FLUSH_EVENTS` events are
queued, and at ``close``.  An admission therefore never waits for its
own trace encoding, so Table 4's RA samples in a traced run no longer
include it.  A process killed mid-run loses at most the events of its
current step; a line torn by the kill is still skipped by
:func:`iter_trace`.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

#: Queued events that make :meth:`TraceWriter.emit` flush without waiting
#: for the step's end, so a step with a flood of arrivals cannot hold its
#: whole trace in memory.
FLUSH_EVENTS = 4096


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialise {type(obj).__name__} in a trace "
                    f"event: {obj!r}")


class InMemoryCollector:
    """Keeps every emitted event in a list (for tests/benchmarks)."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def spans(self, name: str | None = None) -> list[dict]:
        """Span events, optionally filtered by span name."""
        return [e for e in self.events if e.get("type") == "span"
                and (name is None or e.get("name") == name)]

    def clear(self) -> None:
        self.events.clear()


class TagSink:
    """Wraps a sink, stamping fixed key/values onto every event.

    The sweep subsystem routes each worker's tracer through a
    ``TagSink(TraceWriter(shard), {"cell": i, "worker": pid})`` so that
    after :func:`merge_traces` every span and ledger event still says
    which grid cell (and which worker process) produced it — the key the
    invariant auditor partitions a merged trace by.
    """

    def __init__(self, sink, tags: dict) -> None:
        self.sink = sink
        self.tags = dict(tags)

    def emit(self, event: dict) -> None:
        self.sink.emit({**event, **self.tags})

    def flush(self) -> None:
        flush = getattr(self.sink, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> None:
        close = getattr(self.sink, "close", None)
        if close is not None:
            close()


class TraceWriter:
    """Appends one JSON object per event to a ``.jsonl`` file.

    Events are queued by :meth:`emit` and written by :meth:`flush` (see
    the module docstring for when that happens).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file = self.path.open("w")
        self._pending: list[dict] = []
        self._encode = json.JSONEncoder(separators=(",", ":"),
                                        default=_json_default).encode

    def emit(self, event: dict) -> None:
        """Queue ``event`` for the next flush.

        The writer takes ownership of ``event``: it is encoded later, so
        the caller must not mutate it (or anything it holds) after this
        call.
        """
        if self._file is None:
            raise ValueError(f"trace writer for {self.path} is closed")
        pending = self._pending
        pending.append(event)
        if len(pending) >= FLUSH_EVENTS:
            self.flush()

    def flush(self) -> None:
        """Encode every queued event and write them to the file in one
        call.

        An event that cannot be encoded is dropped and, after every
        other queued event is written, raised as the error naming it.
        """
        pending, self._pending = self._pending, []
        if not pending:
            return
        encode, lines, failure = self._encode, [], None
        for event in pending:
            try:
                lines.append(encode(event))
            except TypeError as exc:
                if failure is None:
                    label = event.get("event", event.get("name"))
                    failure = TypeError(
                        f"cannot serialise {event.get('type')} event "
                        f"{label!r}: {exc}")
        if lines:
            self._file.write("\n".join(lines) + "\n")
            self._file.flush()
        if failure is not None:
            raise failure

    def close(self) -> None:
        """Flush what is queued, then close the file."""
        if self._file is not None:
            try:
                self.flush()
            finally:
                self._file.close()
                self._file = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _intact_lines(path: str | Path, strict: bool):
    """Yield ``(line, event)`` for every intact line of a JSONL trace.

    A line is intact when it parses to a JSON object.  Truncated or
    corrupt lines — a run killed mid-write leaves a torn final line — and
    lines holding any other JSON value are skipped with a
    :class:`UserWarning` naming the line, or raise ``ValueError`` when
    ``strict``.  Blank lines are skipped silently.
    """
    with Path(path).open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
                if not isinstance(event, dict):
                    raise ValueError(f"expected a JSON object, got "
                                     f"{type(event).__name__}")
            except ValueError as exc:
                if strict:
                    raise
                warnings.warn(f"skipping corrupt trace line {lineno} in "
                              f"{path}: {exc}", stacklevel=3)
                continue
            yield line, event


def iter_trace(path: str | Path, strict: bool = False):
    """Yield a JSONL trace's event dicts one line at a time.

    Truncated or corrupt lines — a run killed mid-write leaves a torn
    final line, and chaos CI uploads traces of exactly such runs — and
    lines that are not JSON objects are skipped with a
    :class:`UserWarning` naming the line, so a damaged trace still yields
    every intact event.  Pass ``strict=True`` to raise ``ValueError`` on
    the first such line instead.  Only one event is held at a time, so
    a consumer that folds events as they come (the invariant auditor)
    needs memory for its fold, not for the trace.
    """
    for _line, event in _intact_lines(path, strict):
        yield event


def read_trace(path: str | Path, strict: bool = False) -> list[dict]:
    """Parse a JSONL trace into a list of event dicts (see
    :func:`iter_trace` for the corrupt-line handling)."""
    return list(iter_trace(path, strict))


def merge_traces(paths, out: str | Path) -> int:
    """Concatenate JSONL trace shards into one trace file.

    ``paths`` are merged in the given order (the sweep passes shards in
    grid-cell order, so the merged trace is deterministic regardless of
    which worker finished first).  Shards are read tolerantly — a worker
    killed mid-write leaves a torn final line, which is skipped with a
    warning rather than poisoning the merge.  Every intact line is
    copied verbatim (each shard's ``cell``/``worker`` tags were stamped
    at emission time by :class:`TagSink`).  Returns the number of events
    written.
    """
    out = Path(out)
    count = 0
    with out.open("w") as handle:
        for path in paths:
            for line, _event in _intact_lines(path, strict=False):
                handle.write(line + "\n")
                count += 1
    return count
