"""Tests for the invariant auditor, on synthetic ledgers and real runs."""

import json

import pytest

import repro
from repro.core import PretiumController
from repro.experiments import quick_scenario, run_scheme
from repro.sim import simulate, summarize
from repro.telemetry import (InMemoryCollector, Tracer, audit_events,
                             unwaived, use_tracer)
from tests.reference.audit import total_delivered, total_payments


def ev(event, **fields):
    return {"type": "ledger", "event": event, "ts": 0.0, **fields}


def clean_run_events():
    """A minimal internally-consistent single-request run."""
    return [
        ev("RUN_STARTED", scheme="Pretium", n_steps=4,
           capacity=[[10.0, 10.0]] * 4),
        ev("ARRIVED", rid=0, step=0, src="a", dst="b", demand=4.0,
           value=1.0, start=0, deadline=2, scavenger=False),
        ev("QUOTED", rid=0, step=0, degraded=False,
           breakpoints=[[2.0, 0.4], [4.0, 0.6]], max_guaranteed=4.0,
           best_effort_price=0.6),
        ev("ADMITTED", rid=0, step=0, chosen=4.0, guaranteed=4.0,
           marginal_price=0.6, flat_price=None),
        ev("ALLOCATED", rid=0, step=1, bytes=3.0, route=[0], price=0.5),
        ev("ALLOCATED", rid=0, step=2, bytes=1.0, route=[0, 1], price=0.7),
        # 2*0.4 + 2*0.6 along the menu.
        ev("SETTLED", rid=0, delivered=4.0, payment=2.0, chosen=4.0,
           guaranteed=4.0, flat_price=None),
        ev("RUN_ENDED", payments_total=2.0, delivered_total=4.0),
    ]


def checks(findings):
    return sorted({f.check for f in findings})


def test_clean_ledger_has_no_findings():
    assert audit_events(clean_run_events()) == []


def test_byte_conservation_violation():
    events = clean_run_events()
    events[4] = ev("ALLOCATED", rid=0, step=1, bytes=11.0, route=[0],
                   price=0.5)
    findings = audit_events(events)
    assert "byte_conservation" in checks(findings)
    (finding,) = [f for f in findings if f.check == "byte_conservation"]
    assert finding.link == 0 and finding.step == 1
    assert not finding.waived  # conservation is never excused


def test_allocation_outside_capacity_grid_is_flagged():
    events = clean_run_events()
    events.append(ev("ALLOCATED", rid=0, step=9, bytes=0.1, route=[0],
                     price=0.5))
    findings = audit_events(events)
    assert any(f.check == "byte_conservation" and f.step == 9
               for f in findings)


def test_missing_capacity_grid_makes_conservation_unverifiable():
    events = [e for e in clean_run_events()
              if e["event"] != "RUN_STARTED"]
    findings = audit_events(events)
    assert any(f.check == "ledger" for f in findings)


def test_menu_convexity_violations():
    events = clean_run_events()
    # Decreasing marginal price and non-increasing volume.
    events[2] = ev("QUOTED", rid=0, step=0, degraded=False,
                   breakpoints=[[2.0, 0.9], [2.0, 0.4]],
                   max_guaranteed=4.0, best_effort_price=0.6)
    findings = audit_events(events)
    details = [f.detail for f in findings if f.check == "menu"]
    assert any("not convex" in d for d in details)
    assert any("non-increasing cumulative volume" in d for d in details)
    assert any("does not match" in d for d in details)  # x-bar mismatch


def test_guarantee_exceeding_quoted_bound():
    events = clean_run_events()
    events[3] = ev("ADMITTED", rid=0, step=0, chosen=5.0, guaranteed=5.0,
                   marginal_price=0.6, flat_price=None)
    findings = audit_events(events)
    assert any(f.check == "menu" and "exceeds the quoted bound"
               in f.detail for f in findings)


def test_guarantee_miss_unwaived_then_waived():
    events = [e for e in clean_run_events() if e["event"] != "ALLOCATED"]
    # Settlement must agree with the (now empty) allocations.
    events[-2] = ev("SETTLED", rid=0, delivered=0.0, payment=0.0,
                    chosen=4.0, guaranteed=4.0, flat_price=None)
    events[-1] = ev("RUN_ENDED", payments_total=0.0, delivered_total=0.0)
    findings = audit_events(events)
    (miss,) = [f for f in findings if f.check == "guarantee"]
    assert not miss.waived
    assert unwaived(findings)

    # A recorded degradation before the deadline waives the miss ...
    excused = events + [ev("DEGRADED", rid=None, step=1, module="sam",
                           action="plan_replay", error="LPError")]
    (miss,) = [f for f in audit_events(excused) if f.check == "guarantee"]
    assert miss.waived
    assert unwaived(audit_events(excused)) == []

    # ... but a degradation after the deadline does not.
    too_late = events + [ev("DEGRADED", rid=None, step=3, module="sam",
                            action="plan_replay", error="LPError")]
    (miss,) = [f for f in audit_events(too_late) if f.check == "guarantee"]
    assert not miss.waived


def test_own_rid_degradation_always_waives():
    events = [e for e in clean_run_events() if e["event"] != "ALLOCATED"]
    events[-2] = ev("SETTLED", rid=0, delivered=0.0, payment=0.0,
                    chosen=4.0, guaranteed=4.0, flat_price=None)
    events[-1] = ev("RUN_ENDED", payments_total=0.0, delivered_total=0.0)
    events.append(ev("DEGRADED", rid=0, step=3, module="ra",
                     action="quote_from_prices", error="LPError"))
    (miss,) = [f for f in audit_events(events) if f.check == "guarantee"]
    assert miss.waived


def test_allocation_checks():
    events = clean_run_events()
    # Bytes to a request that was never admitted.
    events.append(ev("ALLOCATED", rid=9, step=1, bytes=1.0, route=[1],
                     price=0.5))
    # Over-delivery and out-of-window movement for request 0.
    events.insert(6, ev("ALLOCATED", rid=0, step=3, bytes=2.0, route=[1],
                        price=0.5))
    findings = audit_events(events)
    details = [f.detail for f in findings if f.check == "allocation"]
    assert any("no recorded admission" in d for d in details)
    assert any("were purchased" in d for d in details)
    assert any("outside the request window" in d for d in details)


def test_settlement_checks():
    events = clean_run_events()
    events[-2] = ev("SETTLED", rid=0, delivered=3.0, payment=-1.0,
                    chosen=4.0, guaranteed=4.0, flat_price=None)
    findings = audit_events(events)
    details = [f.detail for f in findings if f.check == "settlement"]
    assert any("negative payment" in d for d in details)
    assert any("the ledger allocated" in d for d in details)

    # Wrong price for the delivered volume (menu says 2.0).
    events[-2] = ev("SETTLED", rid=0, delivered=4.0, payment=3.5,
                    chosen=4.0, guaranteed=4.0, flat_price=None)
    findings = audit_events(events)
    assert any("the quoted menu prices" in f.detail
               for f in findings if f.check == "settlement")


def test_scavenger_settlement_uses_flat_price():
    events = [
        ev("RUN_STARTED", scheme="Pretium", n_steps=2,
           capacity=[[10.0]] * 2),
        ev("ARRIVED", rid=0, step=0, src="a", dst="b", demand=2.0,
           value=0.3, start=0, deadline=1, scavenger=True),
        ev("ADMITTED", rid=0, step=0, chosen=2.0, guaranteed=0.0,
           marginal_price=None, flat_price=0.3),
        ev("ALLOCATED", rid=0, step=1, bytes=2.0, route=[0], price=0.1),
        ev("SETTLED", rid=0, delivered=2.0, payment=0.6, chosen=2.0,
           guaranteed=0.0, flat_price=0.3),
        ev("RUN_ENDED", payments_total=0.6, delivered_total=2.0),
    ]
    assert audit_events(events) == []
    events[-2] = ev("SETTLED", rid=0, delivered=2.0, payment=0.5,
                    chosen=2.0, guaranteed=0.0, flat_price=0.3)
    events[-1] = ev("RUN_ENDED", payments_total=0.5, delivered_total=2.0)
    assert any(f.check == "settlement" for f in audit_events(events))


def test_run_ended_reconciliation():
    events = clean_run_events()
    events[-1] = ev("RUN_ENDED", payments_total=9.0, delivered_total=4.0)
    findings = audit_events(events)
    assert any(f.check == "reconciliation" and "RUN_ENDED payments_total"
               in f.detail for f in findings)


def test_summary_reconciliation():
    events = clean_run_events()
    good = {"payments": 2.0, "delivered": 4.0, "total_value": 4.0}
    assert audit_events(events, summary=good) == []
    bad = {"payments": 2.0, "delivered": 5.0, "total_value": 4.0}
    findings = audit_events(events, summary=bad)
    assert any("summary delivered" in f.detail for f in findings)


# -- end to end: a real run audits clean ------------------------------------
def test_real_pretium_run_audits_clean(tmp_path):
    scenario = quick_scenario(seed=3)
    collector = InMemoryCollector()
    with use_tracer(Tracer(sinks=[collector])):
        result = run_scheme("Pretium", scenario)
    summary = summarize(result, scenario.cost_model)
    findings = audit_events(collector.events, summary=summary)
    assert findings == []

    # Same through the file-based entry point.
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(e) + "\n"
                            for e in collector.events))
    assert repro.audit(path, summary=summary).findings == []


def test_real_run_ledger_matches_ground_truth():
    scenario = quick_scenario(seed=3)
    collector = InMemoryCollector()
    controller = PretiumController()
    with use_tracer(Tracer(sinks=[collector])):
        result = simulate(controller, scenario.workload)
    from repro.telemetry import Ledger
    ledger = Ledger(collector.events)
    assert total_payments(ledger) == pytest.approx(
        sum(result.payments.values()))
    assert total_delivered(ledger) == pytest.approx(
        sum(result.delivered.values()))
    for contract in controller.contracts:
        history = ledger.request(contract.rid)
        assert history.delivered_total == pytest.approx(
            result.delivered.get(contract.rid, 0.0))


# -- merged sweep traces ------------------------------------------------------

def tagged(events, cell):
    return [{**event, "cell": cell, "worker": 4000 + cell}
            for event in events]


def test_merged_trace_partitions_by_cell():
    # Two tagged single-run ledgers interleaved into one trace: each
    # cell must audit independently (rids and capacity grids repeat).
    merged = tagged(clean_run_events(), 0) + tagged(clean_run_events(), 1)
    assert audit_events(merged) == []


def test_merged_trace_attributes_findings_to_their_cell():
    bad = clean_run_events()
    for event in bad:
        if event["event"] == "RUN_ENDED":
            event["payments_total"] = 99.0  # break one cell's books
    merged = tagged(clean_run_events(), 0) + tagged(bad, 1)
    findings = audit_events(merged)
    assert findings
    assert {f.cell for f in findings} == {1}
    assert unwaived(findings)


def test_untagged_trace_keeps_single_run_semantics_and_no_cell():
    bad = clean_run_events()
    bad[-1]["payments_total"] = 99.0
    findings = audit_events(bad)
    assert findings
    assert all(f.cell is None for f in findings)


# -- per-class conservation --------------------------------------------------
def classed_run_events(cls="gold"):
    """clean_run_events with the request tagged as a traffic class."""
    events = clean_run_events()
    events[1] = ev("ARRIVED", rid=0, step=0, src="a", dst="b", demand=4.0,
                   value=1.0, start=0, deadline=2, scavenger=False,
                   cls=cls)
    return events


def test_class_tagged_clean_run_has_no_findings():
    summary = {"payments": 2.0, "delivered": 4.0,
               "per_class": {"gold": {"delivered": 4.0}}}
    assert audit_events(classed_run_events(), summary=summary) == []


def test_pre_class_trace_skips_class_checks():
    # No cls on ARRIVED: the class checks must not run at all, so old
    # traces audit exactly as before the class subsystem existed.
    findings = audit_events(clean_run_events())
    assert "class_conservation" not in checks(findings)


def test_class_overdelivery_is_flagged_with_its_class():
    events = classed_run_events()
    # 2 extra bytes into the class beyond what its requests purchased.
    events.insert(6, ev("ALLOCATED", rid=0, step=2, bytes=2.0, route=[0],
                        price=0.7))
    findings = audit_events(events)
    assert "class_conservation" in checks(findings)
    (finding,) = [f for f in findings
                  if f.check == "class_conservation"]
    assert finding.cls == "gold"
    assert "purchased only" in finding.detail


def test_per_class_summary_mismatch_is_flagged():
    summary = {"payments": 2.0, "delivered": 4.0,
               "per_class": {"gold": {"delivered": 9.0}}}
    findings = audit_events(classed_run_events(), summary=summary)
    mismatches = [f for f in findings if f.check == "class_conservation"]
    assert mismatches and all(f.cls == "gold" for f in mismatches)
    assert any("per_class[gold] delivered" in f.detail
               for f in mismatches)


def test_guarantee_finding_carries_the_class():
    events = [e for e in classed_run_events() if e["event"] != "ALLOCATED"]
    events[-2] = ev("SETTLED", rid=0, delivered=0.0, payment=0.0,
                    chosen=4.0, guaranteed=4.0, flat_price=None)
    events[-1] = ev("RUN_ENDED", payments_total=0.0, delivered_total=0.0)
    # The ledger now shows 0 delivered for gold.
    summary = {"payments": 0.0, "delivered": 0.0,
               "per_class": {"gold": {"delivered": 0.0}}}
    findings = audit_events(events, summary=summary)
    (miss,) = [f for f in findings if f.check == "guarantee"]
    assert miss.cls == "gold"


def test_real_multiclass_run_audits_clean():
    from repro.registry import SCENARIOS
    scenario = SCENARIOS.get("multiclass_medium")(seed=1)
    collector = InMemoryCollector()
    with use_tracer(Tracer(sinks=[collector])):
        result = run_scheme("Pretium", scenario)
    summary = summarize(result, scenario.cost_model)
    assert set(summary["per_class"]) == {"interactive", "elastic",
                                         "background"}
    findings = audit_events(collector.events, summary=summary)
    # The only acceptable findings are *waived* guarantee misses on the
    # preemptible class: SAM may displace background guarantees for
    # higher-weighted traffic, and the auditor knows that contract.
    assert unwaived(findings) == []
    for finding in findings:
        assert finding.check == "guarantee"
        assert finding.cls == "background"
