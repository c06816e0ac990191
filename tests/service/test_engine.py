"""Engine differential: streamed arrivals == batch ``simulate()``.

The acceptance bar for the service core: replaying a workload's arrival
stream through :class:`AdmissionEngine` yields bit-identical admit/
reject decisions, settlements, loads and summaries to the batch
simulator — including under injected fault schedules and with the warm
menu cache on or off.
"""

import numpy as np
import pytest

import repro
from repro.core import ByteRequest, Transmission
from repro.experiments.runner import make_scheme, run_scheme
from repro.experiments.scenarios import ScenarioSpec
from repro.network import line_network
from repro.options import RunOptions, ServiceOptions, run_context
from repro.service import AdmissionEngine, ServiceStateError
from repro.sim import CapacityViolation, simulate, summarize
from repro.telemetry import ledger_events, read_trace
from repro.traffic import Workload


def build_engine(workload, scheme=None, **service_kwargs):
    return AdmissionEngine(scheme or make_scheme("Pretium"), workload,
                           options=ServiceOptions(**service_kwargs))


def replay(scenario, scheme=None, price_checks=0, **service_kwargs):
    """Stream the scenario's requests through an engine, in order."""
    engine = build_engine(scenario.workload, scheme, **service_kwargs)
    engine.start()
    stream = sorted(scenario.workload.requests,
                    key=lambda r: (r.arrival, r.rid))
    for request in stream:
        for _ in range(price_checks):
            engine.quote_only(request)
        engine.admit(request)
    return engine


def comparable(summary):
    return {k: v for k, v in summary.items() if k != "runtimes"}


def assert_results_identical(batch, live, cost_model):
    assert live.chosen == batch.chosen
    assert live.delivered == batch.delivered
    assert live.payments == batch.payments
    assert live.delivery_log == batch.delivery_log
    assert np.array_equal(live.loads, batch.loads)
    assert np.array_equal(live.extras["prices"], batch.extras["prices"])
    assert comparable(summarize(live, cost_model)) == \
        comparable(summarize(batch, cost_model))


@pytest.mark.parametrize("seed, classes",
                         [(0, None), (3, None), (0, "qos3"), (3, "qos3")],
                         ids=["0", "3", "0-qos3", "3-qos3"])
def test_streamed_replay_is_bit_identical_to_batch(seed, classes):
    scenario = ScenarioSpec.of("tiny", classes=classes).build(seed=seed)
    batch = simulate(make_scheme("Pretium"), scenario.workload)
    engine = replay(scenario)
    assert_results_identical(batch, engine.finish(), scenario.cost_model)
    admitted = {d.rid for d in engine.decisions if d.admitted}
    assert admitted == set(batch.chosen)
    for decision in engine.decisions:
        if decision.admitted:
            assert decision.chosen == batch.chosen[decision.rid]


def comparable_ledger(path):
    """Ledger events minus wall-clock stamps and the request count a
    stream cannot know up front (RUN_STARTED's, 0 for a service)."""
    events = []
    for event in ledger_events(read_trace(path)):
        event = {k: v for k, v in event.items() if k != "ts"}
        if event["event"] == "RUN_STARTED":
            del event["n_requests"]
        events.append(event)
    return events


def test_service_ledger_equals_batch_ledger(tmp_path):
    scenario = ScenarioSpec.of("tiny", classes="qos3").build(seed=3)
    batch_trace, live_trace = tmp_path / "batch.jsonl", tmp_path / "live.jsonl"
    repro.run("Pretium", scenario,
              options=RunOptions(telemetry=batch_trace))
    with run_context(RunOptions(telemetry=live_trace)):
        replay(scenario).finish()
    batch, live = comparable_ledger(batch_trace), comparable_ledger(live_trace)
    assert live == batch
    arrived = [e for e in live if e["event"] == "ARRIVED"]
    assert len(arrived) == scenario.workload.n_requests
    assert all("cls" in e and "preemptible" in e for e in arrived)
    assert {e["cls"] for e in arrived} == \
        {"interactive", "elastic", "background"}
    assert repro.audit(live_trace).findings == \
        repro.audit(batch_trace).findings


def test_streamed_replay_identical_under_injected_faults():
    options = RunOptions(faults="sam:solver@2x1,ra:timeout@3x1",
                        fault_seed=7)
    scenario = ScenarioSpec.of("tiny").build(seed=3)
    batch = run_scheme("Pretium", scenario, options=options)
    assert batch.extras.get("degradation"), "fault schedule never fired"
    with run_context(options):
        engine = replay(scenario)
        live = engine.finish()
    assert_results_identical(batch, live, scenario.cost_model)
    assert live.extras["degradation"] == batch.extras["degradation"]
    assert any(d.degraded for d in engine.decisions) == \
        any(e["module"] == "ra" for e in batch.extras["degradation"])


def test_cold_cache_and_price_checks_change_nothing():
    scenario = ScenarioSpec.of("tiny").build(seed=3)
    warm = replay(scenario, price_checks=2)
    cold = replay(ScenarioSpec.of("tiny").build(seed=3), cache_size=0)
    assert warm.decisions == cold.decisions
    assert_results_identical(cold.finish(), warm.finish(),
                             scenario.cost_model)


def test_quote_only_reports_cache_hits():
    scenario = ScenarioSpec.of("tiny").build(seed=0)
    engine = build_engine(scenario.workload).start()
    request = next(r for r in scenario.workload.requests
                   if not r.scavenger)
    first = engine.quote_only(request)
    second = engine.quote_only(request)
    assert not first.cached and second.cached
    assert second.breakpoints == first.breakpoints
    assert first.max_guaranteed > 0


def test_advance_to_runs_empty_steps_like_batch():
    scenario = ScenarioSpec.of("tiny").build(seed=0)
    batch = simulate(make_scheme("Pretium"), scenario.workload)
    engine = build_engine(scenario.workload).start()
    # jump straight past several arrival-free and arrival-bearing steps,
    # skipping the requests entirely: loads must match a no-arrival run
    engine.advance_to(scenario.workload.n_steps - 1)
    live = engine.finish()
    assert live.chosen == {}
    assert not np.array_equal(live.loads, batch.loads) or \
        not batch.chosen  # sanity: skipping arrivals changed the run


def test_protocol_misuse_raises():
    scenario = ScenarioSpec.of("tiny").build(seed=0)
    workload = scenario.workload
    engine = build_engine(workload)
    with pytest.raises(ServiceStateError):
        engine.advance_to(0)            # not started
    engine.start()
    with pytest.raises(ServiceStateError):
        engine.start()                  # double start
    engine.advance_to(2)
    with pytest.raises(ServiceStateError):
        engine.advance_to(1)            # time moved backwards
    with pytest.raises(ServiceStateError):
        engine.advance_to(workload.n_steps)  # past the horizon
    request = workload.requests[0]
    bad = type(request)(rid=10_000, src=request.src, dst=request.dst,
                        demand=1.0, arrival=2, start=2,
                        deadline=workload.n_steps + 5, value=1.0)
    with pytest.raises(ValueError, match="past the service horizon"):
        engine.admit(bad)
    result = engine.finish()
    assert engine.finish() is result    # idempotent
    with pytest.raises(ServiceStateError):
        engine.admit(request)           # finished engines refuse work


# -- a failed step fails the engine -------------------------------------------

class OverfillingScheme:
    """Stub scheme whose ``step(1)`` moves a sliver over link 0 and then
    overfills it: the capacity check raises half-way through the step."""

    name = "Overfilling"
    contracts = ()

    def __init__(self):
        self.steps, self.arrivals, self.loads = [], [], None

    def begin(self, workload):
        pass

    def window_start(self, t):
        pass

    def arrival(self, request, t):
        self.arrivals.append(request.rid)

    def step(self, t, delivered, loads):
        self.steps.append(t)
        self.loads = loads
        if t != 1:
            return []
        return [Transmission(0, (0,), 1, 0.5), Transmission(0, (0,), 1, 50.0)]


def overfilled_workload():
    requests = [ByteRequest(rid, "n0", "n1", 1.0, arrival, arrival, 3, 1.0)
                for rid, arrival in ((0, 0), (1, 2), (2, 3))]
    return Workload(line_network(2, capacity=10.0), requests, n_steps=4,
                    steps_per_day=4)


def test_batch_run_raises_the_violation():
    with pytest.raises(CapacityViolation, match="link 0 at step 1"):
        simulate(OverfillingScheme(), overfilled_workload())


def test_failed_step_fails_the_engine_and_is_never_rerun():
    scheme, workload = OverfillingScheme(), overfilled_workload()
    engine = AdmissionEngine(scheme, workload).start()
    first, second, third = workload.requests
    engine.admit(first)
    with pytest.raises(CapacityViolation) as violation:
        engine.admit(second)            # leaving step 1 overfills link 0
    for later in (lambda: engine.admit(third), lambda: engine.advance_to(3),
                  engine.finish):
        with pytest.raises(ServiceStateError) as refused:
            later()
        assert refused.value.__cause__ is violation.value
    assert scheme.steps == [0, 1]       # step(1) ran exactly once
    assert scheme.arrivals == [0]
    assert scheme.loads[1, 0] == 0.5    # the partial volume, applied once
