"""The step-buffered trace writer against the eager one it replaced.

:class:`~repro.telemetry.sinks.TraceWriter` queues events and writes
them behind each engine step; :class:`tests.reference.sinks.
EagerTraceWriter` encodes each one at ``emit``.  On one tracer the two
files must match byte for byte — which holds only if no call site
mutates an event after emitting it.  The durability tests pin down when
the buffered writer's events reach the disk.
"""

import json

import pytest

from repro.experiments.runner import scheme_spec
from repro.experiments.scenarios import ScenarioSpec
from repro.options import RunOptions
from repro.sim import simulate
from repro.sim.engine import Engine
from repro.telemetry import (InMemoryCollector, MetricsRegistry, TraceWriter,
                             Tracer, read_trace, use_registry, use_tracer)
from repro.telemetry.sinks import _json_default
from tests.reference.sinks import EagerTraceWriter
from tests.service.test_engine import replay


def _tiny_batch(scenario):
    simulate(scheme_spec("Pretium").build(), scenario.workload)


def _service_replay(scenario):
    replay(scenario).finish()


def _link_kill(scenario):
    link = scenario.topology.links[0]
    simulate(scheme_spec("Pretium").build(RunOptions(routing="flowlet")),
             scenario.workload,
             options=RunOptions(link_kills=f"{link.src}>{link.dst}@2"))


@pytest.mark.parametrize("classes, drive", [
    (None, _tiny_batch), ("qos3", _service_replay), (None, _link_kill)],
    ids=["batch", "service-qos3", "link-kill"])
def test_buffered_trace_matches_the_eager_writer(tmp_path, classes, drive):
    scenario = ScenarioSpec.of("tiny", classes=classes).build(seed=0)
    buffered, eager = tmp_path / "buffered.jsonl", tmp_path / "eager.jsonl"
    with use_registry(MetricsRegistry()) as registry:
        tracer = Tracer(sinks=[TraceWriter(buffered),
                               EagerTraceWriter(eager)], registry=registry)
        with use_tracer(tracer):
            drive(scenario)
        tracer.emit_metrics()
        tracer.close()
    text = buffered.read_bytes()
    assert text.count(b"\n") > 100
    assert text == eager.read_bytes()


def _as_written(events):
    return [json.loads(json.dumps(event, default=_json_default))
            for event in events]


def test_every_step_leaves_its_events_on_disk(tmp_path, monkeypatch):
    scenario = ScenarioSpec.of("tiny").build(seed=0)
    path = tmp_path / "trace.jsonl"
    collector = InMemoryCollector()
    tracer = Tracer(sinks=[TraceWriter(path), collector])
    leave_step, steps = Engine._leave_step, []

    def checked_leave_step(engine):
        leave_step(engine)
        assert read_trace(path) == _as_written(collector.events)
        steps.append(engine.t)

    monkeypatch.setattr(Engine, "_leave_step", checked_leave_step)
    with use_tracer(tracer):
        simulate(scheme_spec("Pretium").build(), scenario.workload)
    tracer.close()
    assert steps == list(range(scenario.workload.n_steps))
    assert read_trace(path) == _as_written(collector.events)


def test_a_crashed_run_leaves_every_earlier_event_on_disk(tmp_path):
    """A non-LP error fails the run; ``run_context`` still closes the
    tracer, so the events of the failing step reach the file too."""
    scenario = ScenarioSpec.of("tiny").build(seed=0)
    fail_at = 3
    controller = scheme_spec("Pretium").build()
    step = controller.step

    def failing_step(t, delivered, loads):
        if t == fail_at:
            raise RuntimeError("scheme bug")
        return step(t, delivered, loads)

    controller.step = failing_step
    path = tmp_path / "trace.jsonl"
    with pytest.raises(RuntimeError, match="scheme bug"):
        simulate(controller, scenario.workload,
                 options=RunOptions(telemetry=path))
    events = read_trace(path, strict=True)
    arrived = [e["rid"] for e in events if e.get("event") == "ARRIVED"]
    assert arrived == [r.rid for r in sorted(
        scenario.workload.requests, key=lambda r: r.arrival)
        if r.arrival <= fail_at]
    spans = {(e["name"], e["attrs"].get("step")): e["attrs"]
             for e in events if e["type"] == "span"}
    assert spans["sam", fail_at]["error"] == "RuntimeError"
    assert spans["run", None]["error"] == "RuntimeError"
    assert events[-1]["type"] == "metrics"
