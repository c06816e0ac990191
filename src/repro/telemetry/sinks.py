"""Event sinks: JSONL trace files and an in-memory collector.

Events are plain dicts (see ``Span.to_event`` for the span schema).  The
writer is line-oriented JSON so traces stream, append, and grep well;
:func:`iter_trace` streams a file back event by event and
:func:`read_trace` loads it whole.  Tests and benchmarks use
:class:`InMemoryCollector` to assert on emitted events without touching
the filesystem.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np


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

    def close(self) -> None:
        close = getattr(self.sink, "close", None)
        if close is not None:
            close()


class TraceWriter:
    """Appends one JSON object per event to a ``.jsonl`` file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file = self.path.open("w")

    def emit(self, event: dict) -> None:
        if self._file is None:
            raise ValueError(f"trace writer for {self.path} is closed")
        self._file.write(json.dumps(event, separators=(",", ":"),
                                    default=_json_default) + "\n")

    def close(self) -> None:
        if self._file is not None:
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
