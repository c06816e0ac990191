"""The asyncio service layer: batching, backpressure, budgets, lifecycle.

Differential coverage (the async loop changes latency, never decisions)
runs against the real engine; the scheduling-sensitive behaviours
(backpressure, batching, FIFO order) run against a blocking stub engine
so they are deterministic rather than timing-dependent.
"""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.experiments.runner import make_scheme
from repro.experiments.scenarios import ScenarioSpec
from repro.options import ServiceOptions
from repro.service import (AdmissionEngine, AdmissionService, ServiceClosed,
                           ServiceOverloaded, ServiceStateError,
                           generate_load)
from repro.sim import CapacityViolation, simulate
from repro.telemetry import get_registry, use_registry

from .test_engine import OverfillingScheme, overfilled_workload


def ordered(workload):
    return sorted(workload.requests, key=lambda r: (r.arrival, r.rid))


def live_service(scenario, **service_kwargs):
    options = ServiceOptions(**service_kwargs)
    engine = AdmissionEngine(make_scheme("Pretium"), scenario.workload,
                             options=options)
    return AdmissionService(engine, options)


# -- differential through the async loop --------------------------------------

def test_async_replay_with_batching_is_bit_identical_to_batch():
    scenario = ScenarioSpec.of("tiny").build(seed=3)
    batch = simulate(make_scheme("Pretium"), scenario.workload)
    with live_service(scenario, batch_window=0.002, batch_max=16) as svc:
        futures = [svc.submit(r) for r in ordered(scenario.workload)]
        decisions = [f.result(timeout=30) for f in futures]
        live = svc.stop()
    assert {d.rid for d in decisions if d.admitted} == set(batch.chosen)
    assert live.chosen == batch.chosen
    assert live.delivered == batch.delivered
    assert live.payments == batch.payments
    assert np.array_equal(live.loads, batch.loads)


def test_interleaved_price_checks_change_no_decisions():
    scenario = ScenarioSpec.of("tiny").build(seed=3)
    batch = simulate(make_scheme("Pretium"), scenario.workload)
    with use_registry():
        with live_service(scenario) as svc:
            report = generate_load(svc, ordered(scenario.workload),
                                   price_checks=2)
            live = svc.stop()
        hits = get_registry().counter("service.menu_cache.hits").value
    assert report.errors == 0
    assert report.price_checks == 2 * len(scenario.workload.requests)
    assert hits > 0
    assert live.chosen == batch.chosen
    assert live.payments == batch.payments


# -- deadline budgets ----------------------------------------------------------

def test_spent_quote_budget_degrades_instead_of_blocking():
    scenario = ScenarioSpec.of("tiny").build(seed=0)
    with use_registry():
        with live_service(scenario, quote_deadline=1e-9) as svc:
            futures = [svc.submit(r) for r in ordered(scenario.workload)]
            decisions = [f.result(timeout=30) for f in futures]
            live = svc.stop()
        registry = get_registry()
        degraded = registry.counter("service.degraded").value
    streamed = [d for d, r in zip(decisions, ordered(scenario.workload))
                if not r.scavenger]
    assert streamed and all(d.degraded for d in streamed)
    assert degraded == len(streamed)
    # every degradation left its audit waiver in the scheme's event log
    events = live.extras["degradation"]
    assert len(events) == len(streamed)
    assert {e["action"] for e in events} == {"quote_from_prices"}
    assert {e["error"] for e in events} == {"QuoteBudgetExceeded"}


def test_degraded_service_trace_still_audits_clean(tmp_path):
    trace = tmp_path / "degraded.jsonl"
    scenario = ScenarioSpec.of("tiny").build(seed=0)
    with repro.serve("Pretium", scenario,
                     options=repro.RunOptions(telemetry=trace),
                     service_options=ServiceOptions(
                         quote_deadline=1e-9)) as svc:
        for request in ordered(scenario.workload):
            svc.submit(request)
        svc.close()
    report = repro.audit(trace)
    assert report.ok, [f.detail for f in report.unwaived]
    assert any(f.waived for f in report.findings) or not report.findings


def test_generous_budget_never_degrades():
    scenario = ScenarioSpec.of("tiny").build(seed=0)
    with live_service(scenario, quote_deadline=300.0) as svc:
        futures = [svc.submit(r) for r in ordered(scenario.workload)]
        decisions = [f.result(timeout=30) for f in futures]
        svc.stop()
    assert not any(d.degraded for d in decisions)


# -- lifecycle and error propagation ------------------------------------------

def test_lifecycle_misuse_raises_service_closed():
    scenario = ScenarioSpec.of("tiny").build(seed=0)
    svc = live_service(scenario)
    with pytest.raises(ServiceClosed):
        svc.submit(scenario.workload.requests[0])    # never started
    with pytest.raises(ServiceClosed):
        svc.stop()                                   # never started
    svc.start()
    with pytest.raises(ServiceClosed):
        svc.start()                                  # double start
    first = svc.stop()
    assert svc.stop() is first                       # idempotent
    with pytest.raises(ServiceClosed):
        svc.submit(scenario.workload.requests[0])    # after stop


def test_submission_errors_belong_to_their_future():
    scenario = ScenarioSpec.of("tiny").build(seed=0)
    workload = scenario.workload
    good = ordered(workload)[0]
    bad = type(good)(rid=10_000, src=good.src, dst=good.dst, demand=1.0,
                     arrival=good.arrival, start=good.arrival,
                     deadline=workload.n_steps + 1, value=1.0)
    with live_service(scenario) as svc:
        doomed = svc.submit(bad)
        fine = svc.submit(good)
        with pytest.raises(ValueError, match="past the service horizon"):
            doomed.result(timeout=30)
        assert fine.result(timeout=30).rid == good.rid   # loop survived
        svc.stop()


def test_failed_step_fails_its_submission_and_stops_the_service():
    scheme, workload = OverfillingScheme(), overfilled_workload()
    svc = AdmissionService(AdmissionEngine(scheme, workload)).start()
    futures = [svc.submit(request) for request in workload.requests]
    assert futures[0].result(timeout=30).rid == 0
    violation = futures[1].exception(timeout=30)
    assert isinstance(violation, CapacityViolation)
    refused = futures[2].exception(timeout=30)
    assert isinstance(refused, ServiceStateError)
    assert refused.__cause__ is violation
    with pytest.raises(ServiceStateError) as stopped:
        svc.stop()
    assert stopped.value.__cause__ is violation
    # nothing ran against the half-applied step
    assert scheme.steps == [0, 1] and scheme.arrivals == [0]
    assert scheme.loads[1, 0] == 0.5


# -- scheduling behaviours, against a deterministic stub ----------------------

class BlockingEngine:
    """Engine stub whose admit() blocks until released — makes queue
    depth, batching and overload states deterministic in tests."""

    def __init__(self, options):
        self.options = options
        self.scheme = SimpleNamespace()      # no admission interface
        self.release = threading.Event()
        #: Set on the first admit(): the loop thread is now blocked.
        self.entered = threading.Event()
        self.processed = []

    def start(self):
        return self

    def admit(self, request, step=None):
        self.entered.set()
        self.release.wait(timeout=30)
        self.processed.append(request)
        return SimpleNamespace(rid=request, step=0, admitted=True,
                               degraded=False)

    def quote_only(self, request, step=None):
        self.processed.append(("quote", request))
        return SimpleNamespace(rid=request, cached=False)

    def finish(self):
        return "finished"


def test_backpressure_fails_fast_when_asked_not_to_wait():
    options = ServiceOptions(max_pending=1)
    engine = BlockingEngine(options)
    svc = AdmissionService(engine, options).start()
    try:
        first = svc.submit("r1")             # takes the only slot
        with pytest.raises(ServiceOverloaded):
            svc.submit("r2", wait=False)
        with pytest.raises(ServiceOverloaded):
            svc.submit("r3", timeout=0.01)   # bounded wait, same outcome
        engine.release.set()
        assert first.result(timeout=30).admitted
        # slot freed: submissions flow again
        assert svc.submit("r4").result(timeout=30).rid == "r4"
    finally:
        engine.release.set()
        assert svc.stop() == "finished"
    assert svc.result == "finished"


def test_bursts_are_micro_batched_in_fifo_order():
    options = ServiceOptions(batch_max=8)
    engine = BlockingEngine(options)
    with use_registry():
        svc = AdmissionService(engine, options).start()
        first = svc.submit("r0")             # loop blocks processing this
        # Without this the burst can land before the loop has drained
        # r0, which then shares its batch with r1 (max == 4).
        assert engine.entered.wait(timeout=30)
        burst = [svc.submit(f"r{n}") for n in range(1, 6)]
        engine.release.set()
        for future in [first, *burst]:
            future.result(timeout=30)
        svc.stop()
        batches = get_registry().histogram("service.batch_size")
    assert engine.processed == [f"r{n}" for n in range(6)]   # FIFO
    assert batches.max >= 5      # the burst was drained as one batch


def test_batch_max_caps_one_batch():
    options = ServiceOptions(batch_max=2)
    engine = BlockingEngine(options)
    with use_registry():
        svc = AdmissionService(engine, options).start()
        futures = [svc.submit(f"r{n}") for n in range(7)]
        engine.release.set()
        for future in futures:
            future.result(timeout=30)
        svc.stop()
        batches = get_registry().histogram("service.batch_size")
    assert batches.max <= 2
    assert engine.processed == [f"r{n}" for n in range(7)]


def test_stop_answers_everything_enqueued_before_it():
    options = ServiceOptions()
    engine = BlockingEngine(options)
    svc = AdmissionService(engine, options).start()
    futures = [svc.submit(f"r{n}") for n in range(4)]
    engine.release.set()
    assert svc.stop() == "finished"
    assert [f.result(timeout=0).rid for f in futures] == \
        [f"r{n}" for n in range(4)]
