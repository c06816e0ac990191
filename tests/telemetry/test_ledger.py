"""Tests for the request-lifecycle ledger: emission, replay, statuses."""

import json
import math

import pytest

from repro.telemetry import (InMemoryCollector, Ledger, Tracer,
                             ledger_events, use_tracer)
from repro.telemetry.ledger import finite_or_none, record


def ev(event, **fields):
    return {"type": "ledger", "event": event, "ts": 0.0, **fields}


def lifecycle_events():
    """A two-request run: one completed, one rejected."""
    return [
        ev("RUN_STARTED", scheme="Pretium", n_steps=4,
           capacity=[[10.0, 10.0]] * 4),
        ev("ARRIVED", rid=0, step=0, src="a", dst="b", demand=4.0,
           value=1.0, start=0, deadline=2, scavenger=False),
        ev("QUOTED", rid=0, step=0, degraded=False,
           breakpoints=[[4.0, 0.5]], max_guaranteed=4.0,
           best_effort_price=0.5),
        ev("ADMITTED", rid=0, step=0, chosen=4.0, guaranteed=4.0,
           marginal_price=0.5, flat_price=None),
        ev("ARRIVED", rid=1, step=1, src="a", dst="b", demand=2.0,
           value=0.1, start=1, deadline=3, scavenger=False),
        ev("QUOTED", rid=1, step=1, degraded=False,
           breakpoints=[[2.0, 0.9]], max_guaranteed=2.0,
           best_effort_price=0.9),
        ev("REJECTED", rid=1, step=1),
        ev("ALLOCATED", rid=0, step=1, bytes=3.0, route=[0], price=0.5),
        ev("ALLOCATED", rid=0, step=2, bytes=1.0, route=[0, 1], price=0.7),
        ev("PRICE_UPDATED", step=2, n_contracts=1, mean_price=0.5),
        ev("SETTLED", rid=0, delivered=4.0, payment=2.0, chosen=4.0,
           guaranteed=4.0, flat_price=None),
        ev("RUN_ENDED", payments_total=2.0, delivered_total=4.0),
    ]


def test_record_is_noop_without_tracer():
    collector = InMemoryCollector()
    record("ARRIVED", rid=0)  # process tracer disabled: swallowed
    with use_tracer(Tracer(sinks=[collector])):
        record("ARRIVED", rid=0, step=3)
    (event,) = collector.events
    assert event["type"] == "ledger"
    assert event["event"] == "ARRIVED"
    assert event["rid"] == 0 and event["step"] == 3
    assert "ts" in event
    json.dumps(event)


def test_finite_or_none():
    assert finite_or_none(1.5) == 1.5
    assert finite_or_none(math.inf) is None
    assert finite_or_none(-math.inf) is None
    assert finite_or_none(math.nan) is None


def test_ledger_events_filters_mixed_stream():
    events = [{"type": "span", "name": "ra"}, ev("ARRIVED", rid=0),
              {"type": "metrics", "metrics": {}}]
    assert [e["event"] for e in ledger_events(events)] == ["ARRIVED"]


def test_ledger_replay_indexes_requests():
    ledger = Ledger(lifecycle_events())
    assert len(ledger) == 2
    assert 0 in ledger and 1 in ledger and 7 not in ledger
    assert [h.rid for h in ledger.requests()] == [0, 1]

    done = ledger.request(0)
    assert done.status == "COMPLETED"
    assert done.chosen == 4.0
    assert done.guaranteed == 4.0
    assert done.deadline == 2
    assert done.delivered_total == pytest.approx(4.0)
    assert done.delivered_by(1) == pytest.approx(3.0)
    assert done.payment == pytest.approx(2.0)
    assert done.quote["max_guaranteed"] == 4.0

    lost = ledger.request(1)
    assert lost.status == "REJECTED"
    assert lost.admission is None
    assert lost.payment is None

    with pytest.raises(KeyError):
        ledger.request(99)


def test_ledger_run_level_events():
    ledger = Ledger(lifecycle_events())
    assert ledger.run_started["scheme"] == "Pretium"
    assert ledger.run_ended["payments_total"] == 2.0
    assert len(ledger.price_updates) == 1
    assert ledger.run_started["capacity"] == [[10.0, 10.0]] * 4
    assert ledger.total_delivered() == pytest.approx(4.0)
    assert ledger.total_payments() == pytest.approx(2.0)


def test_ledger_link_loads_charges_every_route_link():
    ledger = Ledger(lifecycle_events())
    loads = ledger.link_loads()
    # step 1: 3 bytes on link 0; step 2: 1 byte on links 0 and 1.
    assert loads[(0, 1)] == pytest.approx(3.0)
    assert loads[(0, 2)] == pytest.approx(1.0)
    assert loads[(1, 2)] == pytest.approx(1.0)


def test_ledger_run_degradations_split_from_request_ones():
    events = lifecycle_events()
    events.insert(8, ev("DEGRADED", rid=None, step=1, module="sam",
                        action="plan_replay", error="LPError"))
    events.insert(9, ev("GUARANTEES_DROPPED", step=1, n_active=3))
    events.insert(10, ev("DEGRADED", rid=0, step=2, module="ra",
                         action="quote_from_prices", error="LPError"))
    ledger = Ledger(events)
    assert len(ledger.run_degradations) == 2
    assert len(ledger.request(0).degradations) == 1


def test_statuses_expired_degraded_and_partial():
    base = [
        ev("ARRIVED", rid=0, step=0, src="a", dst="b", demand=4.0,
           value=1.0, start=0, deadline=2, scavenger=False),
        ev("ADMITTED", rid=0, step=0, chosen=4.0, guaranteed=4.0,
           marginal_price=0.5, flat_price=None),
        ev("ALLOCATED", rid=0, step=1, bytes=1.0, route=[0], price=0.5),
    ]
    assert Ledger(base).request(0).status == "EXPIRED"

    excused = base + [ev("DEGRADED", rid=0, step=1, module="sam",
                         action="plan_replay", error="LPError")]
    assert Ledger(excused).request(0).status == "DEGRADED"

    partial = [ev("ARRIVED", rid=5, step=0, src="a", dst="b", demand=1.0,
                  value=1.0, start=0, deadline=2, scavenger=False)]
    assert Ledger(partial).request(5).status == "ARRIVED"
    quoted = partial + [ev("QUOTED", rid=5, step=0, breakpoints=[],
                           max_guaranteed=0.0, best_effort_price=None)]
    assert Ledger(quoted).request(5).status == "QUOTED"


def test_history_events_merges_in_lifecycle_order():
    ledger = Ledger(lifecycle_events())
    names = [e["event"] for e in ledger.request(0).events()]
    assert names == ["ARRIVED", "QUOTED", "ADMITTED", "ALLOCATED",
                     "ALLOCATED", "SETTLED"]


def test_from_trace_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(e) + "\n"
                            for e in lifecycle_events()))
    ledger = Ledger.from_trace(path)
    assert len(ledger) == 2
    assert ledger.request(0).status == "COMPLETED"
