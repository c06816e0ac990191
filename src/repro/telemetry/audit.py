"""Invariant auditor: fold a ledger and check that the books balance.

The fault suites used to assert "the run completes"; this module turns
that into "the run completes *and* every economic invariant holds":

- **byte conservation** — per (link, timestep), allocated bytes never
  exceed the usable capacity recorded at run start;
- **guarantee compliance** — every admitted request received its
  guaranteed volume by its deadline (violations are *waived* when a
  DEGRADED/GUARANTEES_DROPPED event explains them — a fault fallback is
  an expected excuse, a silent miss is not);
- **menu sanity** — recorded quotes are convex: positive quantities and
  non-decreasing marginal prices, with ``x̄`` matching the breakpoints;
- **allocation consistency** — no bytes delivered without an admission,
  beyond the purchased volume, or outside the request's window;
- **settlement** — the payment recorded at settlement equals the price
  recomputed from the quoted menu for the delivered volume;
- **reconciliation** — per-request totals add up to the run totals and,
  when a :func:`repro.sim.recorder.summarize` record is supplied, to the
  revenue/volume/value that record reports.

Each violation is a structured :class:`Finding` naming the offending
request/timestep/link, so a failed chaos run answers "which requests
lost bytes and who paid for what" directly from its trace.

The audit is one streaming pass and does not replay through
:class:`~repro.telemetry.ledger.Ledger`: spans and metrics are dropped
on sight, and each ledger event is folded into a compact per-request
book holding only the fields the checks read (menu findings are checked
as each quote arrives), so auditing a trace file through
:func:`~repro.telemetry.sinks.iter_trace` needs memory for its requests,
not for its events.  ``Ledger`` stays the lossless per-request view
behind ``telemetry timeline``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

#: Relative/absolute float slack, matching the engine's capacity slack.
REL_TOL = 1e-6
ABS_TOL = 1e-6

#: The fields of each ledger record that the checks read; a book keeps
#: only these (see :class:`_RequestBook`).
_ARRIVED_KEYS = ("start", "deadline", "value", "demand", "cls",
                 "preemptible")
_QUOTE_KEYS = ("breakpoints", "max_guaranteed", "best_effort_price")
_ADMISSION_KEYS = ("step", "chosen", "guaranteed", "flat_price")
_SETTLEMENT_KEYS = ("chosen", "guaranteed", "flat_price", "payment",
                    "delivered")
_RUN_ENDED_KEYS = ("payments_total", "delivered_total")


@dataclass(frozen=True)
class Finding:
    """One invariant violation found while replaying a ledger.

    ``waived`` marks violations explained by recorded degradation events
    (an expected consequence of a fault fallback); ``telemetry audit``
    exits non-zero only for unwaived findings.
    """

    check: str                # byte_conservation | guarantee | menu | ...
    detail: str
    rid: int | None = None
    step: int | None = None
    link: int | None = None
    waived: bool = False
    #: Sweep grid-cell id for findings from a merged multi-run trace
    #: (``None`` for single-run traces).
    cell: int | None = None
    #: Traffic class of the offending request (from its ARRIVED record;
    #: ``None`` for pre-class traces or run-level findings).
    cls: str | None = None


def _keep(event: dict, keys: tuple) -> dict:
    return {key: event[key] for key in keys if key in event}


class _RequestBook:
    """What the checks need of one request's ledger events.

    The last ARRIVED / QUOTED / ADMITTED / SETTLED record, each cut to
    the fields the checks read; every quote's menu findings, computed
    as it arrives; allocations as ``(step, bytes, route)`` tuples in
    trace order; and whether the request was ever DEGRADED.
    """

    __slots__ = ("rid", "arrived", "menu", "quote", "admission",
                 "settlement", "allocations", "degraded")

    def __init__(self, rid: int) -> None:
        self.rid = rid
        self.arrived: dict | None = None
        self.menu: list[Finding] = []
        self.quote: dict | None = None
        self.admission: dict | None = None
        self.settlement: dict | None = None
        self.allocations: list[tuple[int, float, tuple[int, ...]]] = []
        self.degraded = False

    @property
    def chosen(self) -> float | None:
        """Volume purchased, from the admission (or settlement) record."""
        for record in (self.admission, self.settlement):
            if record is not None and "chosen" in record:
                return float(record["chosen"])
        return None

    @property
    def guaranteed(self) -> float | None:
        """Guaranteed volume ``g_i``, from admission (or settlement)."""
        for record in (self.admission, self.settlement):
            if record is not None and "guaranteed" in record:
                return float(record["guaranteed"])
        return None

    @property
    def deadline(self) -> int | None:
        return None if self.arrived is None else int(self.arrived["deadline"])

    @property
    def delivered_total(self) -> float:
        return sum(volume for _step, volume, _route in self.allocations)

    def delivered_by(self, step: int) -> float:
        return sum(volume for at, volume, _route in self.allocations
                   if at <= step)

    @property
    def payment(self) -> float | None:
        return None if self.settlement is None \
            else float(self.settlement["payment"])


class _RunBooks:
    """One run's ledger folded event by event into per-request books.

    Mirrors :class:`~repro.telemetry.ledger.Ledger`'s reading of the
    events (the last RUN_STARTED / RUN_ENDED wins; rid-less DEGRADED and
    GUARANTEES_DROPPED are run-wide excuses) but keeps only what the
    checks read, so its size grows with requests, not events.
    """

    def __init__(self) -> None:
        self.capacity = None
        self.run_ended: dict | None = None
        #: ``step`` of every run-wide degradation, as recorded.
        self.degradation_steps: list = []
        self._books: dict[int, _RequestBook] = {}

    def ingest(self, event: dict) -> None:
        name = event.get("event")
        if name == "RUN_STARTED":
            self.capacity = event.get("capacity")
        elif name == "RUN_ENDED":
            self.run_ended = _keep(event, _RUN_ENDED_KEYS)
        elif name == "PRICE_UPDATED":
            pass            # run-level, and no check reads it
        elif name == "GUARANTEES_DROPPED" or (
                name == "DEGRADED" and event.get("rid") is None):
            self.degradation_steps.append(event.get("step", 0))
        elif event.get("rid") is not None:
            book = self._book(int(event["rid"]))
            if name == "ARRIVED":
                book.arrived = _keep(event, _ARRIVED_KEYS)
            elif name == "QUOTED":
                book.menu += _quote_findings(event, book.rid)
                book.quote = _keep(event, _QUOTE_KEYS)
            elif name == "ADMITTED":
                book.admission = _keep(event, _ADMISSION_KEYS)
            elif name == "ALLOCATED":
                book.allocations.append((
                    int(event["step"]), float(event["bytes"]),
                    tuple(int(link) for link in event["route"])))
            elif name == "DEGRADED":
                book.degraded = True
            elif name == "SETTLED":
                book.settlement = _keep(event, _SETTLEMENT_KEYS)

    def _book(self, rid: int) -> _RequestBook:
        book = self._books.get(rid)
        if book is None:
            book = self._books[rid] = _RequestBook(rid)
        return book

    def requests(self) -> list[_RequestBook]:
        """Every request's book, ordered by rid."""
        return [self._books[rid] for rid in sorted(self._books)]

    def link_loads(self) -> dict[tuple[int, int], float]:
        """Total allocated bytes per (link index, timestep), summed in
        the order the requests were first seen."""
        loads: dict[tuple[int, int], float] = {}
        for book in self._books.values():
            for step, volume, route in book.allocations:
                for link in route:
                    key = (link, step)
                    loads[key] = loads.get(key, 0.0) + volume
        return loads

    def total_delivered(self) -> float:
        return sum(book.delivered_total for book in self._books.values())

    def total_payments(self) -> float:
        return sum(book.payment or 0.0 for book in self._books.values())


def audit_events(events: Iterable[dict], summary: dict | None = None
                 ) -> list[Finding]:
    """Fold ``events`` in one pass and return every invariant violation.

    ``events`` may be any iterable — a list, or :func:`iter_trace` over
    a file.  Spans and metrics are dropped on sight and each ledger
    event is folded into its request's book, so memory grows with the
    number of requests, not events.

    ``summary`` is an optional :func:`~repro.sim.recorder.summarize`
    record for the same run; when given, ledger totals are reconciled
    against its ``payments``/``delivered``/``total_value`` entries.

    A *merged* sweep trace interleaves several independent runs, each
    tagged with its grid-cell id (see
    :class:`~repro.telemetry.sinks.TagSink`).  Such traces are
    partitioned by the ``cell`` tag and each run is audited on its own —
    request ids and capacity grids are only unique within a run — with
    every finding carrying its cell id.  ``summary`` reconciliation only
    applies to single-run traces (one summary cannot describe many
    runs), so it is skipped, per cell, for merged traces.
    """
    runs: dict[object, _RunBooks] = {}
    for event in events:
        key = event.get("cell")
        run = runs.get(key)
        if run is None:
            run = runs[key] = _RunBooks()
        if event.get("type") == "ledger":
            run.ingest(event)
    if len(runs) <= 1:
        return _audit_run(next(iter(runs.values()), _RunBooks()), summary)
    findings: list[Finding] = []
    for key in sorted(runs, key=lambda c: (c is None, c)):
        findings += [replace(f, cell=key if isinstance(key, int) else None)
                     for f in _audit_run(runs[key], summary=None)]
    return findings


def _audit_run(run: _RunBooks, summary: dict | None) -> list[Finding]:
    """Audit one run's books."""
    findings: list[Finding] = []
    findings += _check_byte_conservation(run)
    for book in run.requests():
        findings += _check_request(book, run)
    findings += _check_class_conservation(run, summary)
    findings += _check_reconciliation(run, summary)
    return findings


def unwaived(findings: list[Finding]) -> list[Finding]:
    """The findings that are actual failures (not degradation-waived)."""
    return [f for f in findings if not f.waived]


# -- per-(link, timestep) conservation --------------------------------------
def _check_byte_conservation(run: _RunBooks) -> list[Finding]:
    capacity = run.capacity
    loads = run.link_loads()
    if capacity is None:
        if not loads:
            return []
        return [Finding("ledger", "allocations present but no RUN_STARTED "
                        "capacity grid; byte conservation is unverifiable")]
    findings = []
    n_steps = len(capacity)
    for (link, step), volume in sorted(loads.items(), key=lambda kv: kv[0]):
        if step >= n_steps or link >= len(capacity[step]):
            findings.append(Finding(
                "byte_conservation", f"allocation at (link {link}, step "
                f"{step}) outside the recorded capacity grid",
                link=link, step=step))
            continue
        cap = float(capacity[step][link])
        if volume > cap * (1.0 + REL_TOL) + ABS_TOL:
            findings.append(Finding(
                "byte_conservation",
                f"link {link} at step {step} carries {volume:.6f} bytes "
                f"but has usable capacity {cap:.6f}",
                link=link, step=step))
    return findings


# -- per-request lifecycle ---------------------------------------------------
def _check_request(book: _RequestBook, run: _RunBooks) -> list[Finding]:
    findings = []
    findings += _check_menus(book)
    findings += _check_allocations(book)
    findings += _check_guarantee(book, run)
    findings += _check_settlement(book)
    return findings


def _quote_findings(quote: dict, rid: int) -> list[Finding]:
    """Menu findings of one QUOTED event, checked as it is ingested."""
    findings = []
    breakpoints = quote.get("breakpoints", [])
    previous_volume = 0.0
    previous_price = 0.0
    for cumulative, price in breakpoints:
        if cumulative <= previous_volume + 1e-12:
            findings.append(Finding(
                "menu", f"quote at step {quote['step']} has a "
                f"non-increasing cumulative volume at {cumulative:g}",
                rid=rid, step=quote.get("step")))
        if price < previous_price - 1e-9:
            findings.append(Finding(
                "menu", f"quote at step {quote['step']} has a "
                f"decreasing marginal price ({previous_price:g} -> "
                f"{price:g}): the menu is not convex",
                rid=rid, step=quote.get("step")))
        if price < 0:
            findings.append(Finding(
                "menu", f"negative marginal price {price:g} quoted",
                rid=rid, step=quote.get("step")))
        previous_volume, previous_price = cumulative, price
    quoted_bound = quote.get("max_guaranteed")
    if quoted_bound is not None and breakpoints:
        last = float(breakpoints[-1][0])
        if not math.isclose(last, float(quoted_bound),
                            rel_tol=REL_TOL, abs_tol=ABS_TOL):
            findings.append(Finding(
                "menu", f"quoted x̄ {quoted_bound:g} does not match "
                f"the breakpoints' total volume {last:g}",
                rid=rid, step=quote.get("step")))
    return findings


def _check_menus(book: _RequestBook) -> list[Finding]:
    findings = list(book.menu)
    admission = book.admission
    quote = book.quote
    if admission is not None and quote is not None \
            and admission.get("flat_price") is None:
        bound = float(quote.get("max_guaranteed") or 0.0)
        guaranteed = book.guaranteed or 0.0
        if guaranteed > bound * (1.0 + REL_TOL) + ABS_TOL:
            findings.append(Finding(
                "menu", f"admitted guarantee {guaranteed:.6f} exceeds the "
                f"quoted bound x̄ = {bound:.6f}",
                rid=book.rid, step=admission.get("step")))
    return findings


def _check_allocations(book: _RequestBook) -> list[Finding]:
    findings = []
    if book.allocations and book.admission is None \
            and book.settlement is None:
        first_step = book.allocations[0][0]
        findings.append(Finding(
            "allocation", f"{book.delivered_total:.6f} bytes allocated "
            "to a request with no recorded admission",
            rid=book.rid, step=first_step))
    chosen = book.chosen
    if chosen is not None:
        delivered = book.delivered_total
        if delivered > chosen * (1.0 + REL_TOL) + ABS_TOL:
            findings.append(Finding(
                "allocation", f"delivered {delivered:.6f} bytes but only "
                f"{chosen:.6f} were purchased", rid=book.rid))
    if book.arrived is not None:
        start = int(book.arrived["start"])
        deadline = int(book.arrived["deadline"])
        for step, _volume, _route in book.allocations:
            if not start <= step <= deadline:
                findings.append(Finding(
                    "allocation", f"bytes moved at step {step}, outside "
                    f"the request window [{start}, {deadline}]",
                    rid=book.rid, step=step))
    return findings


def _check_guarantee(book: _RequestBook, run: _RunBooks) -> list[Finding]:
    guaranteed = book.guaranteed
    if book.admission is None and book.settlement is None:
        return []
    if guaranteed is None or guaranteed <= ABS_TOL:
        return []
    deadline = book.deadline
    delivered = book.delivered_total if deadline is None \
        else book.delivered_by(deadline)
    slack = max(ABS_TOL, REL_TOL * guaranteed)
    if delivered >= guaranteed - slack:
        return []
    return [Finding(
        "guarantee", f"guaranteed {guaranteed:.6f} bytes by step "
        f"{deadline} but only {delivered:.6f} arrived",
        rid=book.rid, step=deadline,
        waived=_guarantee_waived(book, run) or _preemptible(book),
        cls=_request_cls(book))]


def _request_cls(book: _RequestBook) -> str | None:
    """The request's traffic class per its ARRIVED record, if tagged."""
    arrived = book.arrived
    if arrived is None or "cls" not in arrived:
        return None
    return str(arrived["cls"])


def _preemptible(book: _RequestBook) -> bool:
    """Whether the request belongs to a preemptible traffic class.

    Preemptible classes' guarantees are *soft* by contract — the
    schedule adjuster may displace them for higher-weighted traffic
    (see :class:`repro.traffic.classes.TrafficClass`) — so a missed
    guarantee is reported but waived, exactly like degradation-excused
    misses.
    """
    arrived = book.arrived
    return bool(arrived is not None and arrived.get("preemptible"))


def _guarantee_waived(book: _RequestBook, run: _RunBooks) -> bool:
    """Is a missed guarantee explained by recorded degradation?

    A request's own DEGRADED events always excuse it; a run-level
    fallback (SAM plan replay, dropped guarantee rows, stale prices)
    excuses every request whose window it could have touched.
    """
    if book.degraded:
        return True
    deadline = book.deadline
    return any(deadline is None or int(step) <= deadline
               for step in run.degradation_steps)


def _check_settlement(book: _RequestBook) -> list[Finding]:
    settlement = book.settlement
    if settlement is None:
        return []
    findings = []
    payment = float(settlement["payment"])
    delivered = float(settlement["delivered"])
    if payment < -ABS_TOL:
        findings.append(Finding(
            "settlement", f"negative payment {payment:g}", rid=book.rid))
    allocated = book.delivered_total
    if not math.isclose(delivered, allocated,
                        rel_tol=REL_TOL, abs_tol=ABS_TOL):
        findings.append(Finding(
            "settlement", f"settled for {delivered:.6f} bytes but the "
            f"ledger allocated {allocated:.6f}", rid=book.rid))
    expected = _expected_payment(book, delivered)
    if expected is not None and not math.isclose(
            payment, expected, rel_tol=1e-6, abs_tol=1e-6):
        findings.append(Finding(
            "settlement", f"paid {payment:.6f} but the quoted menu prices "
            f"{delivered:.6f} delivered bytes at {expected:.6f}",
            rid=book.rid))
    return findings


def _expected_payment(book: _RequestBook, delivered: float) -> float | None:
    """Recompute the settlement price from the recorded quote.

    Mirrors ``Contract.payment_for``: the guaranteed prefix is billed
    along the menu breakpoints (cheapest first), best-effort volume at
    the best-effort marginal price, scavenger volume at the flat named
    price.  Returns ``None`` when the ledger lacks the quote.
    """
    record = book.admission if book.admission is not None \
        else book.settlement
    if record is None:
        return None
    chosen = book.chosen
    if chosen is None:
        return None
    billable = min(delivered, chosen)
    if billable <= ABS_TOL:
        return 0.0
    flat_price = record.get("flat_price")
    if flat_price is not None:
        return billable * float(flat_price)
    quote = book.quote
    if quote is None:
        return None
    guaranteed = book.guaranteed or 0.0
    in_guarantee = min(billable, guaranteed)
    total = _menu_price(quote.get("breakpoints", []), in_guarantee)
    extra = billable - in_guarantee
    if extra > ABS_TOL:
        best_effort = quote.get("best_effort_price")
        if best_effort is None:
            return math.inf
        total += extra * float(best_effort)
    return total


def _menu_price(breakpoints: list, x: float) -> float:
    """Total price of ``x`` units along (cumulative volume, price) pairs."""
    total = 0.0
    previous = 0.0
    for cumulative, price in breakpoints:
        take = min(float(cumulative), x) - previous
        if take > 0:
            total += take * float(price)
            previous += take
        if x <= float(cumulative):
            break
    return total


# -- per-class conservation ---------------------------------------------------
def _check_class_conservation(run: _RunBooks, summary: dict | None
                              ) -> list[Finding]:
    """Class-level byte conservation over the run.

    For every traffic class tagged in the ledger's ARRIVED records:

    - bytes allocated to the class's requests never exceed the volume
      those requests purchased (the class-aggregate of the per-request
      allocation invariant — a mis-tagged or double-counted allocation
      shows up here even when each request individually balances);
    - with a :func:`~repro.sim.recorder.summarize` record carrying a
      ``per_class`` roll-up, each class's summary ``delivered`` must
      replay from the ledger.

    Pre-class traces (no ``cls`` on ARRIVED) are skipped entirely, so
    old traces audit exactly as before.
    """
    allocated: dict[str, float] = {}
    purchased: dict[str, float] = {}
    tagged = False
    for book in run.requests():
        cls = _request_cls(book)
        if cls is None:
            continue
        tagged = True
        allocated[cls] = allocated.get(cls, 0.0) + book.delivered_total
        if book.chosen is not None:
            purchased[cls] = purchased.get(cls, 0.0) + float(book.chosen)
    if not tagged:
        return []
    findings = []
    for cls in sorted(allocated):
        bytes_in = allocated[cls]
        bound = purchased.get(cls, 0.0)
        if bytes_in > bound * (1.0 + REL_TOL) + ABS_TOL:
            findings.append(Finding(
                "class_conservation",
                f"class {cls!r} received {bytes_in:.6f} bytes but its "
                f"requests purchased only {bound:.6f}", cls=cls))
    per_class = (summary or {}).get("per_class") or {}
    for cls in sorted(per_class):
        findings += [replace(f, cls=cls) for f in _compare(
            "class_conservation", f"summary per_class[{cls}] delivered",
            float(per_class[cls]["delivered"]), allocated.get(cls, 0.0))]
    return findings


# -- run-level reconciliation ------------------------------------------------
def _check_reconciliation(run: _RunBooks, summary: dict | None
                          ) -> list[Finding]:
    findings = []
    settled_payments = run.total_payments()
    allocated = run.total_delivered()
    ended = run.run_ended
    if ended is not None:
        findings += _compare("reconciliation", "RUN_ENDED payments_total",
                             float(ended["payments_total"]),
                             settled_payments)
        findings += _compare("reconciliation", "RUN_ENDED delivered_total",
                             float(ended["delivered_total"]), allocated)
    if summary is not None:
        findings += _compare("reconciliation", "summary payments",
                             float(summary["payments"]), settled_payments)
        findings += _compare("reconciliation", "summary delivered",
                             float(summary["delivered"]), allocated)
        value = _ledger_value(run)
        if value is not None and "total_value" in summary:
            findings += _compare("reconciliation", "summary total_value",
                                 float(summary["total_value"]), value)
    return findings


def _ledger_value(run: _RunBooks) -> float | None:
    """Total delivered value per the ledger's ARRIVED records, or
    ``None`` when any served request lacks one (partial ledger)."""
    total = 0.0
    for book in run.requests():
        delivered = book.delivered_total
        if delivered <= ABS_TOL:
            continue
        if book.arrived is None:
            return None
        total += float(book.arrived["value"]) * min(
            delivered, float(book.arrived["demand"]))
    return total


def _compare(check: str, what: str, reported: float,
             replayed: float) -> list[Finding]:
    tolerance = ABS_TOL + REL_TOL * max(abs(reported), abs(replayed), 1.0)
    if abs(reported - replayed) <= tolerance:
        return []
    return [Finding(check, f"{what} is {reported:.6f} but the ledger "
                    f"replays to {replayed:.6f}")]
