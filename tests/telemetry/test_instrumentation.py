"""Engine/solver/controller instrumentation: spans match Table 4 data."""

import numpy as np
import pytest

from repro.core import ByteRequest, PretiumController
from repro.experiments import quick_scenario
from repro.sim import simulate
from repro.telemetry import (InMemoryCollector, MetricsRegistry, Tracer,
                             module_runtimes, set_registry, use_tracer)
from repro.traffic import Workload
from repro.network import line_network
from tests.reference.expr import ExprModel, quicksum


class IdleScheme:
    """Minimal online scheme: admits nothing, schedules nothing."""

    name = "Idle"

    def begin(self, workload):
        pass

    def window_start(self, t):
        pass

    def arrival(self, request, t):
        pass

    def step(self, t, delivered, loads):
        return []


def small_workload():
    topo = line_network(2, capacity=10.0)
    requests = [ByteRequest(0, "n0", "n1", 5.0, 0, 0, 2, 1.0),
                ByteRequest(1, "n0", "n1", 5.0, 1, 1, 3, 1.0)]
    return Workload(topo, requests, n_steps=4, steps_per_day=2)


def test_engine_emits_module_spans_matching_runtimes():
    collector = InMemoryCollector()
    with use_tracer(Tracer(sinks=[collector])):
        result = simulate(IdleScheme(), small_workload())

    summary = result.extras["runtimes"].summary()
    # ra: one span per arrival; sam: one per step; pc: one per window
    # boundary — and each span's duration is the ModuleRuntimes sample.
    assert len(collector.spans("ra")) == summary["RA"]["count"] == 2
    assert len(collector.spans("sam")) == summary["SAM"]["count"] == 4
    assert len(collector.spans("pc")) == 2  # boundaries at t=0 and t=2

    runtimes = result.extras["runtimes"]
    for name, samples in (("ra", runtimes.ra), ("sam", runtimes.sam),
                          ("pc", runtimes.pc)):
        span_total = sum(e["duration"] for e in collector.spans(name))
        assert span_total == pytest.approx(sum(samples)), name

    # and the trace-side aggregation reproduces the summary
    from_trace = module_runtimes(collector.events)
    for module in ("RA", "SAM"):
        assert from_trace[module]["count"] == summary[module]["count"]
        assert from_trace[module]["median"] == \
            pytest.approx(summary[module]["median"])


def test_engine_populates_runtimes_with_telemetry_disabled():
    result = simulate(IdleScheme(), small_workload())
    summary = result.extras["runtimes"].summary()
    assert summary["RA"]["count"] == 2
    assert summary["SAM"]["count"] == 4


def test_run_span_wraps_module_spans():
    collector = InMemoryCollector()
    with use_tracer(Tracer(sinks=[collector])):
        simulate(IdleScheme(), small_workload())
    (run_event,) = collector.spans("run")
    assert run_event["attrs"]["scheme"] == "Idle"
    assert run_event["attrs"]["n_steps"] == 4
    run_id = run_event["span_id"]
    for name in ("ra", "sam", "pc"):
        assert all(e["parent_id"] == run_id for e in collector.spans(name))


def test_solver_emits_lp_solve_span():
    model = ExprModel(sense="max", name="toy")
    x = model.add_variable("x", lb=0.0, ub=2.0)
    y = model.add_variable("y", lb=0.0, ub=2.0)
    model.add_constraint(quicksum([x, y]) <= 3.0, name="cap")
    model.set_objective(x + y)

    collector = InMemoryCollector()
    with use_tracer(Tracer(sinks=[collector])):
        model.solve()
    (event,) = collector.spans("lp.solve")
    assert event["attrs"]["model"] == "toy"
    assert event["attrs"]["n_vars"] == 2
    assert event["attrs"]["n_constraints"] == 1
    assert event["attrs"]["status"] == 0


def test_pretium_run_traces_solves_and_counts_decisions():
    scenario = quick_scenario(load_factor=2.0, seed=0)
    collector = InMemoryCollector()
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        with use_tracer(Tracer(sinks=[collector])):
            simulate(PretiumController(), scenario.workload)
    finally:
        set_registry(previous)

    assert collector.spans("lp.solve"), "SAM/PC LPs must be traced"
    # nested controller spans sit under the engine's module spans
    sam_ids = {e["span_id"] for e in collector.spans("sam")}
    assert all(e["parent_id"] in sam_ids
               for e in collector.spans("sam.adjust"))
    ra_ids = {e["span_id"] for e in collector.spans("ra")}
    assert all(e["parent_id"] in ra_ids
               for e in collector.spans("ra.quote"))

    snapshot = registry.snapshot()
    decided = snapshot.get("pretium.admitted", 0) + \
        snapshot.get("pretium.rejected", 0) + \
        snapshot.get("pretium.scavenger", 0)
    assert decided == scenario.workload.n_requests


def test_simulate_runs_are_deterministic_under_tracing():
    scenario = quick_scenario(load_factor=2.0, seed=3)
    baseline = simulate(PretiumController(), scenario.workload)
    with use_tracer(Tracer(sinks=[InMemoryCollector()])):
        traced = simulate(PretiumController(), scenario.workload)
    assert traced.delivered == pytest.approx(baseline.delivered)
    assert np.allclose(traced.loads, baseline.loads)
