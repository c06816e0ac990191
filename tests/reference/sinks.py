"""The eager JSONL writer :class:`repro.telemetry.sinks.TraceWriter` replaced.

It encoded and wrote each event inside the ``emit`` call that handed it
over; ``src/`` now queues events and writes them once per engine step.
Put beside a :class:`~repro.telemetry.sinks.TraceWriter` on one tracer,
it records every event as it was at emission, so the two files match
byte for byte only if no call site mutates an event after emitting it
(``tests/telemetry/test_trace_differential.py``).

Its ``emit`` and ``close`` verbatim, but for importing the numpy coercion
from ``src/``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry.sinks import _json_default


class EagerTraceWriter:
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
