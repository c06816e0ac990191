"""The Ledger-based invariant auditor :mod:`repro.telemetry.audit` replaced.

It loads the whole trace, replays it through
:class:`~repro.telemetry.ledger.Ledger` and checks each
:class:`~repro.telemetry.ledger.RequestHistory`; ``src/`` now folds the
events in one streaming pass into compact per-request books.  The
streaming suite (``tests/telemetry/test_audit_stream.py``) demands the
same findings, in the same order, from both.

Verbatim, but for importing :class:`~repro.telemetry.audit.Finding` and
the tolerances from ``src/``, and for :func:`link_loads`,
:func:`total_delivered` and :func:`total_payments`, which were
:class:`~repro.telemetry.ledger.Ledger` methods that only this auditor
and tests called.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from repro.telemetry.audit import ABS_TOL, REL_TOL, Finding
from repro.telemetry.ledger import Ledger, RequestHistory
from repro.telemetry.sinks import read_trace


def audit_trace(path: str | Path, summary: dict | None = None
                ) -> list[Finding]:
    """Audit a JSONL trace file (see :func:`audit_events`)."""
    return audit_events(read_trace(path), summary=summary)


def audit_events(events: list[dict], summary: dict | None = None
                 ) -> list[Finding]:
    """Replay ``events`` and return every invariant violation.

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
    groups: dict[object, list[dict]] = {}
    for event in events:
        groups.setdefault(event.get("cell"), []).append(event)
    if len(groups) <= 1:
        return _audit_run(events, summary)
    findings: list[Finding] = []
    for key in sorted(groups, key=lambda c: (c is None, c)):
        findings += [replace(f, cell=key if isinstance(key, int) else None)
                     for f in _audit_run(groups[key], summary=None)]
    return findings


def _audit_run(events: list[dict], summary: dict | None) -> list[Finding]:
    """Audit one run's events (the single-RUN_STARTED case)."""
    ledger = Ledger(events)
    findings: list[Finding] = []
    findings += _check_byte_conservation(ledger)
    for history in ledger.requests():
        findings += _check_request(history, ledger)
    findings += _check_class_conservation(ledger, summary)
    findings += _check_reconciliation(ledger, summary)
    return findings


# -- ledger aggregates -------------------------------------------------------
def link_loads(ledger: Ledger) -> dict[tuple[int, int], float]:
    """Total allocated bytes per (link index, timestep).

    Each allocation contributes its bytes to *every* link on its route —
    the quantity byte-conservation audits against capacity.  These
    aggregates take requests in the order the ledger first saw them, the
    order the streaming auditor sums in, so float totals match to the bit.
    """
    loads: dict[tuple[int, int], float] = {}
    for history in ledger._requests.values():
        for allocation in history.allocations:
            step = int(allocation["step"])
            volume = float(allocation["bytes"])
            for link in allocation["route"]:
                key = (int(link), step)
                loads[key] = loads.get(key, 0.0) + volume
    return loads


def total_delivered(ledger: Ledger) -> float:
    return sum(h.delivered_total for h in ledger._requests.values())


def total_payments(ledger: Ledger) -> float:
    return sum(h.payment or 0.0 for h in ledger._requests.values())


def unwaived(findings: list[Finding]) -> list[Finding]:
    """The findings that are actual failures (not degradation-waived)."""
    return [f for f in findings if not f.waived]


# -- per-(link, timestep) conservation --------------------------------------
def _check_byte_conservation(ledger: Ledger) -> list[Finding]:
    capacity = None if ledger.run_started is None \
        else ledger.run_started.get("capacity")
    loads = link_loads(ledger)
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
def _check_request(history: RequestHistory, ledger: Ledger
                   ) -> list[Finding]:
    findings = []
    findings += _check_menus(history)
    findings += _check_allocations(history)
    findings += _check_guarantee(history, ledger)
    findings += _check_settlement(history)
    return findings


def _check_menus(history: RequestHistory) -> list[Finding]:
    findings = []
    for quote in history.quotes:
        breakpoints = quote.get("breakpoints", [])
        previous_volume = 0.0
        previous_price = 0.0
        for cumulative, price in breakpoints:
            if cumulative <= previous_volume + 1e-12:
                findings.append(Finding(
                    "menu", f"quote at step {quote['step']} has a "
                    f"non-increasing cumulative volume at {cumulative:g}",
                    rid=history.rid, step=quote.get("step")))
            if price < previous_price - 1e-9:
                findings.append(Finding(
                    "menu", f"quote at step {quote['step']} has a "
                    f"decreasing marginal price ({previous_price:g} -> "
                    f"{price:g}): the menu is not convex",
                    rid=history.rid, step=quote.get("step")))
            if price < 0:
                findings.append(Finding(
                    "menu", f"negative marginal price {price:g} quoted",
                    rid=history.rid, step=quote.get("step")))
            previous_volume, previous_price = cumulative, price
        quoted_bound = quote.get("max_guaranteed")
        if quoted_bound is not None and breakpoints:
            last = float(breakpoints[-1][0])
            if not math.isclose(last, float(quoted_bound),
                                rel_tol=REL_TOL, abs_tol=ABS_TOL):
                findings.append(Finding(
                    "menu", f"quoted x̄ {quoted_bound:g} does not match "
                    f"the breakpoints' total volume {last:g}",
                    rid=history.rid, step=quote.get("step")))
    admission = history.admission
    quote = history.quote
    if admission is not None and quote is not None \
            and admission.get("flat_price") is None:
        bound = float(quote.get("max_guaranteed") or 0.0)
        guaranteed = history.guaranteed or 0.0
        if guaranteed > bound * (1.0 + REL_TOL) + ABS_TOL:
            findings.append(Finding(
                "menu", f"admitted guarantee {guaranteed:.6f} exceeds the "
                f"quoted bound x̄ = {bound:.6f}",
                rid=history.rid, step=admission.get("step")))
    return findings


def _check_allocations(history: RequestHistory) -> list[Finding]:
    findings = []
    if history.allocations and history.admission is None \
            and history.settlement is None:
        first = history.allocations[0]
        findings.append(Finding(
            "allocation", f"{history.delivered_total:.6f} bytes allocated "
            "to a request with no recorded admission",
            rid=history.rid, step=int(first["step"])))
    chosen = history.chosen
    if chosen is not None:
        delivered = history.delivered_total
        if delivered > chosen * (1.0 + REL_TOL) + ABS_TOL:
            findings.append(Finding(
                "allocation", f"delivered {delivered:.6f} bytes but only "
                f"{chosen:.6f} were purchased", rid=history.rid))
    if history.arrived is not None:
        start = int(history.arrived["start"])
        deadline = int(history.arrived["deadline"])
        for allocation in history.allocations:
            step = int(allocation["step"])
            if not start <= step <= deadline:
                findings.append(Finding(
                    "allocation", f"bytes moved at step {step}, outside "
                    f"the request window [{start}, {deadline}]",
                    rid=history.rid, step=step))
    return findings


def _check_guarantee(history: RequestHistory, ledger: Ledger
                     ) -> list[Finding]:
    guaranteed = history.guaranteed
    if history.admission is None and history.settlement is None:
        return []
    if guaranteed is None or guaranteed <= ABS_TOL:
        return []
    deadline = history.deadline
    delivered = history.delivered_total if deadline is None \
        else history.delivered_by(deadline)
    slack = max(ABS_TOL, REL_TOL * guaranteed)
    if delivered >= guaranteed - slack:
        return []
    return [Finding(
        "guarantee", f"guaranteed {guaranteed:.6f} bytes by step "
        f"{deadline} but only {delivered:.6f} arrived",
        rid=history.rid, step=deadline,
        waived=_guarantee_waived(history, ledger)
        or _history_preemptible(history),
        cls=_history_cls(history))]


def _history_cls(history: RequestHistory) -> str | None:
    """The request's traffic class per its ARRIVED record, if tagged."""
    arrived = history.arrived
    if arrived is None or "cls" not in arrived:
        return None
    return str(arrived["cls"])


def _history_preemptible(history: RequestHistory) -> bool:
    """Whether the request belongs to a preemptible traffic class.

    Preemptible classes' guarantees are *soft* by contract — the
    schedule adjuster may displace them for higher-weighted traffic
    (see :class:`repro.traffic.classes.TrafficClass`) — so a missed
    guarantee is reported but waived, exactly like degradation-excused
    misses.
    """
    arrived = history.arrived
    return bool(arrived is not None and arrived.get("preemptible"))


def _guarantee_waived(history: RequestHistory, ledger: Ledger) -> bool:
    """Is a missed guarantee explained by recorded degradation?

    A request's own DEGRADED events always excuse it; a run-level
    fallback (SAM plan replay, dropped guarantee rows, stale prices)
    excuses every request whose window it could have touched.
    """
    if history.degradations:
        return True
    deadline = history.deadline
    for event in ledger.run_degradations:
        if deadline is None or int(event.get("step", 0)) <= deadline:
            return True
    return False


def _check_settlement(history: RequestHistory) -> list[Finding]:
    settlement = history.settlement
    if settlement is None:
        return []
    findings = []
    payment = float(settlement["payment"])
    delivered = float(settlement["delivered"])
    if payment < -ABS_TOL:
        findings.append(Finding(
            "settlement", f"negative payment {payment:g}",
            rid=history.rid))
    allocated = history.delivered_total
    if not math.isclose(delivered, allocated,
                        rel_tol=REL_TOL, abs_tol=ABS_TOL):
        findings.append(Finding(
            "settlement", f"settled for {delivered:.6f} bytes but the "
            f"ledger allocated {allocated:.6f}", rid=history.rid))
    expected = _expected_payment(history, delivered)
    if expected is not None and not math.isclose(
            payment, expected, rel_tol=1e-6, abs_tol=1e-6):
        findings.append(Finding(
            "settlement", f"paid {payment:.6f} but the quoted menu prices "
            f"{delivered:.6f} delivered bytes at {expected:.6f}",
            rid=history.rid))
    return findings


def _expected_payment(history: RequestHistory,
                      delivered: float) -> float | None:
    """Recompute the settlement price from the recorded quote.

    Mirrors ``Contract.payment_for``: the guaranteed prefix is billed
    along the menu breakpoints (cheapest first), best-effort volume at
    the best-effort marginal price, scavenger volume at the flat named
    price.  Returns ``None`` when the ledger lacks the quote.
    """
    record = history.admission or history.settlement
    if record is None:
        return None
    chosen = history.chosen
    if chosen is None:
        return None
    billable = min(delivered, chosen)
    if billable <= ABS_TOL:
        return 0.0
    flat_price = record.get("flat_price")
    if flat_price is not None:
        return billable * float(flat_price)
    quote = history.quote
    if quote is None:
        return None
    guaranteed = history.guaranteed or 0.0
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
def _check_class_conservation(ledger: Ledger, summary: dict | None
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
    for history in ledger.requests():
        cls = _history_cls(history)
        if cls is None:
            continue
        tagged = True
        allocated[cls] = allocated.get(cls, 0.0) + history.delivered_total
        if history.chosen is not None:
            purchased[cls] = purchased.get(cls, 0.0) + float(history.chosen)
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
def _check_reconciliation(ledger: Ledger, summary: dict | None
                          ) -> list[Finding]:
    findings = []
    settled_payments = total_payments(ledger)
    allocated = total_delivered(ledger)
    ended = ledger.run_ended
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
        value = _ledger_value(ledger)
        if value is not None and "total_value" in summary:
            findings += _compare("reconciliation", "summary total_value",
                                 float(summary["total_value"]), value)
    return findings


def _ledger_value(ledger: Ledger) -> float | None:
    """Total delivered value per the ledger's ARRIVED records, or
    ``None`` when any served request lacks one (partial ledger)."""
    total = 0.0
    for history in ledger.requests():
        delivered = history.delivered_total
        if delivered <= ABS_TOL:
            continue
        if history.arrived is None:
            return None
        total += float(history.arrived["value"]) * min(
            delivered, float(history.arrived["demand"]))
    return total


def _compare(check: str, what: str, reported: float,
             replayed: float) -> list[Finding]:
    tolerance = ABS_TOL + REL_TOL * max(abs(reported), abs(replayed), 1.0)
    if abs(reported - replayed) <= tolerance:
        return []
    return [Finding(check, f"{what} is {reported:.6f} but the ledger "
                    f"replays to {replayed:.6f}")]
