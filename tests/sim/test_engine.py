"""Tests for the simulation engine: protocol, accounting, feasibility."""

import numpy as np
import pytest

from repro.core import ByteRequest, Transmission
from repro.sim import CapacityViolation, ModuleRuntimes, RunResult, simulate
from repro.traffic import Workload
from tests.builders import line_network


class ScriptedScheme:
    """Deterministic scheme for engine testing."""

    name = "Scripted"

    def __init__(self, script=None, contracts=None):
        self.script = script or {}
        self.contracts = contracts or []
        self.events = []

    def begin(self, workload):
        self.events.append("begin")

    def window_start(self, t):
        self.events.append(("window", t))

    def arrival(self, request, t):
        self.events.append(("arrival", request.rid, t))

    def step(self, t, delivered, loads):
        self.events.append(("step", t))
        return self.script.get(t, [])


def workload(requests=None, n_steps=3):
    topo = line_network(2, capacity=10.0)
    requests = requests if requests is not None else [
        ByteRequest(0, "n0", "n1", 5.0, 0, 0, 2, 1.0),
        ByteRequest(1, "n0", "n1", 5.0, 1, 1, 2, 1.0),
    ]
    return Workload(topo, requests, n_steps=n_steps, steps_per_day=3)


def test_engine_calls_protocol_in_order():
    scheme = ScriptedScheme()
    simulate(scheme, workload())
    assert scheme.events[0] == "begin"
    assert scheme.events[1] == ("window", 0)
    assert ("arrival", 0, 0) in scheme.events
    assert ("arrival", 1, 1) in scheme.events
    # arrival happens after window_start and before step of the same t
    i_window = scheme.events.index(("window", 1))
    i_arrival = scheme.events.index(("arrival", 1, 1))
    i_step = scheme.events.index(("step", 1))
    assert i_window < i_arrival < i_step


def test_engine_accumulates_loads_and_delivered():
    script = {0: [Transmission(0, (0,), 0, 3.0)],
              1: [Transmission(0, (0,), 1, 2.0),
                  Transmission(1, (0,), 1, 4.0)]}
    result = simulate(ScriptedScheme(script), workload())
    assert result.loads[0, 0] == 3.0
    assert result.loads[1, 0] == 6.0
    assert result.delivered[0] == 5.0
    assert result.delivered[1] == 4.0
    assert result.total_delivered == 9.0


def test_engine_rejects_overcapacity():
    script = {0: [Transmission(0, (0,), 0, 11.0)]}
    with pytest.raises(CapacityViolation):
        simulate(ScriptedScheme(script), workload())


class OverSchedulingScheme(ScriptedScheme):
    """Deliberately schedules 2x the link capacity at every step."""

    name = "OverScheduler"

    def step(self, t, delivered, loads):
        return [Transmission(0, (0,), t, 20.0)]


def test_overscheduling_scheme_raises_with_diagnostics():
    with pytest.raises(CapacityViolation) as excinfo:
        simulate(OverSchedulingScheme(), workload())
    message = str(excinfo.value)
    # the message names the link, step, offending load and the capacity
    assert "link 0" in message
    assert "step 0" in message
    assert "20.0" in message
    assert "10.0" in message


def test_capacity_check_leaves_state_untouched_on_failure():
    script = {0: [Transmission(0, (0,), 0, 4.0),
                  Transmission(1, (0,), 0, 11.0)]}
    with pytest.raises(CapacityViolation):
        simulate(ScriptedScheme(script), workload())


def test_engine_rejects_cumulative_overcapacity():
    script = {0: [Transmission(0, (0,), 0, 6.0),
                  Transmission(1, (0,), 0, 6.0)]}
    with pytest.raises(CapacityViolation):
        simulate(ScriptedScheme(script), workload())


def test_engine_rejects_wrong_timestep():
    script = {0: [Transmission(0, (0,), 2, 1.0)]}
    with pytest.raises(CapacityViolation):
        simulate(ScriptedScheme(script), workload())


def test_engine_ignores_zero_volume():
    script = {0: [Transmission(0, (0,), 0, 0.0)]}
    result = simulate(ScriptedScheme(script), workload())
    assert result.delivered.get(0, 0.0) == 0.0


def test_runtimes_recorded():
    result = simulate(ScriptedScheme(), workload())
    runtimes = result.extras["runtimes"]
    summary = runtimes.summary()
    assert summary["RA"]["count"] == 2
    assert summary["SAM"]["count"] == 3
    assert "median" in summary["SAM"] and "p95" in summary["SAM"]


def test_module_runtimes_summary_empty():
    assert ModuleRuntimes().summary() == {}


def test_scheme_name_defaults_to_class():
    class Anon(ScriptedScheme):
        name = None

    anon = Anon()
    del anon.__class__.name
    result = simulate(anon, workload())
    assert result.scheme_name in ("Scripted", "Anon")
