"""Request-lifecycle ledger: event-sourced economic history per request.

Pretium's correctness claims are economic, not just computational: every
admitted request must receive its guaranteed bytes by its deadline, the
price quoted at admission must reconcile with the revenue attributed at
settlement, and per-(link, timestep) allocations must conserve capacity.
The module spans of :mod:`repro.telemetry.trace` see *modules*; this
ledger sees *requests*.

Instrumented call sites emit ``{"type": "ledger", "event": <EVENT>}``
dicts through the current tracer's sinks (:func:`record` is a no-op when
telemetry is off), so ledger events interleave with spans in the same
JSONL trace.  The lifecycle is::

    RUN_STARTED
      ARRIVED -> QUOTED -> ADMITTED | REJECTED
        ALLOCATED{bytes, route, price}  (one per executed transmission)
        DEGRADED                        (fault fallbacks, optional)
      SETTLED{delivered, payment}
    RUN_ENDED

plus the run-level economic events ``PRICE_UPDATED`` (price computer
installed new prices) and ``GUARANTEES_DROPPED`` (SAM fell back to
best-effort after infeasibility).

:class:`Ledger` replays a list of events (or a trace file) back into
per-request :class:`RequestHistory` records, keeping every event dict:
it is the lossless per-request view behind the ``telemetry timeline``
CLI.  The invariant auditor (:mod:`repro.telemetry.audit`) no longer
replays through it; it folds the events in one streaming pass into
compact books of only the fields its checks read.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from .sinks import read_trace
from .trace import get_tracer

#: Every ledger event name, in rough lifecycle order.
EVENTS = ("RUN_STARTED", "ARRIVED", "QUOTED", "ADMITTED", "REJECTED",
          "ALLOCATED", "DEGRADED", "GUARANTEES_DROPPED", "PRICE_UPDATED",
          "SETTLED", "RUN_ENDED")

#: Terminal request statuses derived by :attr:`RequestHistory.status`.
TERMINAL_STATUSES = ("COMPLETED", "EXPIRED", "DEGRADED", "REJECTED")

_EPS = 1e-9


def record(event: str, **fields) -> None:
    """Emit one ledger event through the current tracer (no-op when
    telemetry is disabled, so instrumented hot paths stay free)."""
    tracer = get_tracer()
    if tracer.enabled:
        tracer.emit({"type": "ledger", "event": event, "ts": time.time(),
                     **fields})


def finite_or_none(value: float) -> float | None:
    """``value`` as a JSON-safe float, or ``None`` for inf/NaN.

    Empty menus quote an infinite best-effort price; strict JSON has no
    ``Infinity`` literal, so ledger events store ``None`` instead.
    """
    value = float(value)
    return value if math.isfinite(value) else None


def ledger_events(events: list[dict]) -> list[dict]:
    """The ledger subset of a mixed trace event stream, in order."""
    return [e for e in events if e.get("type") == "ledger"]


@dataclass
class RequestHistory:
    """One request's reconstructed lifecycle.

    Raw event dicts are kept (not re-parsed into objects) so the history
    is lossless; the properties answer the questions the auditor and the
    timeline renderer actually ask.
    """

    rid: int
    arrived: dict | None = None
    quotes: list[dict] = field(default_factory=list)
    admission: dict | None = None
    rejection: dict | None = None
    allocations: list[dict] = field(default_factory=list)
    degradations: list[dict] = field(default_factory=list)
    settlement: dict | None = None

    # -- admission economics ------------------------------------------------
    @property
    def chosen(self) -> float | None:
        """Volume purchased, from the admission (or settlement) record."""
        for event in (self.admission, self.settlement):
            if event is not None and "chosen" in event:
                return float(event["chosen"])
        return None

    @property
    def guaranteed(self) -> float | None:
        """Guaranteed volume ``g_i``, from admission (or settlement)."""
        for event in (self.admission, self.settlement):
            if event is not None and "guaranteed" in event:
                return float(event["guaranteed"])
        return None

    @property
    def deadline(self) -> int | None:
        return None if self.arrived is None else int(self.arrived["deadline"])

    @property
    def quote(self) -> dict | None:
        """The quote the admission acted on (the last one recorded)."""
        return self.quotes[-1] if self.quotes else None

    # -- delivery -----------------------------------------------------------
    @property
    def delivered_total(self) -> float:
        """Bytes allocated to this request over the whole run."""
        return sum(float(a["bytes"]) for a in self.allocations)

    def delivered_by(self, step: int) -> float:
        """Bytes allocated at timesteps ``<= step``."""
        return sum(float(a["bytes"]) for a in self.allocations
                   if int(a["step"]) <= step)

    @property
    def payment(self) -> float | None:
        return None if self.settlement is None \
            else float(self.settlement["payment"])

    # -- terminal status ----------------------------------------------------
    @property
    def status(self) -> str:
        """Terminal lifecycle status (or the furthest stage reached).

        ``COMPLETED`` — the purchased volume was delivered; ``DEGRADED``
        — it was not, and a fault fallback touched this request;
        ``EXPIRED`` — it was not, with no recorded excuse; ``REJECTED``
        — the customer declined the menu.  Partial ledgers (a run that
        crashed mid-flight) surface as ``ARRIVED``/``QUOTED``.
        """
        if self.admission is None:
            if self.rejection is not None:
                return "REJECTED"
            if self.quotes:
                return "QUOTED"
            return "ARRIVED" if self.arrived is not None else "UNKNOWN"
        chosen = self.chosen or 0.0
        delivered = self.delivered_total if self.settlement is None \
            else float(self.settlement["delivered"])
        if delivered >= chosen - max(_EPS, 1e-6 * chosen):
            return "COMPLETED"
        return "DEGRADED" if self.degradations else "EXPIRED"

    def events(self) -> list[dict]:
        """Every event of this history, in lifecycle order."""
        out = [] if self.arrived is None else [self.arrived]
        out += self.quotes
        out += [e for e in (self.admission, self.rejection) if e is not None]
        merged = sorted(self.allocations + self.degradations,
                        key=lambda e: (int(e.get("step", 0))))
        out += merged
        if self.settlement is not None:
            out.append(self.settlement)
        return out


class Ledger:
    """A replayed event stream, indexed per request.

    Parameters
    ----------
    events:
        Mixed trace events (spans, metrics, ledger, ...); only ledger
        events are consumed.  Use :meth:`from_trace` for a JSONL file.
    """

    def __init__(self, events: list[dict]) -> None:
        self.events = ledger_events(events)
        self.run_started: dict | None = None
        self.run_ended: dict | None = None
        #: DEGRADED events without a rid (module-level fallbacks) plus
        #: GUARANTEES_DROPPED — run-wide excuses for missed guarantees.
        self.run_degradations: list[dict] = []
        self.price_updates: list[dict] = []
        self._requests: dict[int, RequestHistory] = {}
        for event in self.events:
            self._ingest(event)

    @classmethod
    def from_trace(cls, path: str | Path) -> "Ledger":
        return cls(read_trace(path))

    def _ingest(self, event: dict) -> None:
        name = event.get("event")
        if name == "RUN_STARTED":
            self.run_started = event
        elif name == "RUN_ENDED":
            self.run_ended = event
        elif name == "PRICE_UPDATED":
            self.price_updates.append(event)
        elif name == "GUARANTEES_DROPPED":
            self.run_degradations.append(event)
        elif name == "DEGRADED" and event.get("rid") is None:
            self.run_degradations.append(event)
        elif "rid" in event and event["rid"] is not None:
            history = self._history(int(event["rid"]))
            if name == "ARRIVED":
                history.arrived = event
            elif name == "QUOTED":
                history.quotes.append(event)
            elif name == "ADMITTED":
                history.admission = event
            elif name == "REJECTED":
                history.rejection = event
            elif name == "ALLOCATED":
                history.allocations.append(event)
            elif name == "DEGRADED":
                history.degradations.append(event)
            elif name == "SETTLED":
                history.settlement = event

    def _history(self, rid: int) -> RequestHistory:
        history = self._requests.get(rid)
        if history is None:
            history = self._requests[rid] = RequestHistory(rid)
        return history

    # -- access -------------------------------------------------------------
    def request(self, rid: int) -> RequestHistory:
        """The history for ``rid`` (KeyError when the ledger never saw
        the request)."""
        return self._requests[rid]

    def requests(self) -> list[RequestHistory]:
        """Every request history, ordered by rid."""
        return [self._requests[rid] for rid in sorted(self._requests)]

    def __contains__(self, rid: int) -> bool:
        return rid in self._requests

    def __len__(self) -> int:
        return len(self._requests)

    # -- aggregates ---------------------------------------------------------
    def link_loads(self) -> dict[tuple[int, int], float]:
        """Total allocated bytes per (link index, timestep).

        Each allocation contributes its bytes to *every* link on its
        route — the quantity byte-conservation audits against capacity.
        """
        loads: dict[tuple[int, int], float] = {}
        for history in self._requests.values():
            for allocation in history.allocations:
                step = int(allocation["step"])
                volume = float(allocation["bytes"])
                for link in allocation["route"]:
                    key = (int(link), step)
                    loads[key] = loads.get(key, 0.0) + volume
        return loads

    def total_delivered(self) -> float:
        return sum(h.delivered_total for h in self._requests.values())

    def total_payments(self) -> float:
        return sum(h.payment or 0.0 for h in self._requests.values())
