"""The streaming auditor against the Ledger-based one it replaced.

:mod:`tests.reference.audit` loads a whole trace and replays it through
:class:`~repro.telemetry.ledger.Ledger`; :mod:`repro.telemetry.audit`
folds it in one pass into per-request books.  Both must report the same
findings, in the same order, with the same text and waivers — on the
traces the other suites write (chaos and fault runs, link kills, the
live service, merged sweeps) and on randomly damaged copies of a
``tiny`` trace — while the streaming pass holds a fraction of the
memory.
"""

import json
import random
import tracemalloc
import warnings
from dataclasses import astuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.experiments.scenarios import ScenarioSpec
from repro.options import RunOptions, ServiceOptions
from repro.sim import summarize
from repro.telemetry import InMemoryCollector, audit_trace, read_trace

from ..faults.conftest import chaos_world, run_with_faults
from ..faults.test_chaos import FAULT_STEPS, GRID
from ..reference import audit as reference


def ordered(workload):
    return sorted(workload.requests, key=lambda r: (r.arrival, r.rid))


def served_trace(scenario, path, options=None, service_options=None):
    """Submit ``scenario``'s requests to a live service writing a trace to
    ``path``; returns the service run's summary."""
    options = (options or RunOptions()).replace(telemetry=path)
    with repro.serve("Pretium", scenario, options=options,
                     service_options=service_options) as svc:
        for request in ordered(scenario.workload):
            svc.submit(request)
        return svc.summary()


def as_tuples(findings):
    return [astuple(finding) for finding in findings]


def assert_same_audit(events, summary=None):
    """Streaming ``repro.audit`` over a one-shot iterator agrees with the
    reference auditor over the list, finding for finding."""
    expected = reference.audit_events(events, summary=summary)
    report = repro.audit(iter(events), summary=summary)
    assert as_tuples(report.findings) == as_tuples(expected)
    assert report.n_events == len(events)
    return report


def assert_same_file_audit(path, summary=None):
    expected = reference.audit_trace(path, summary=summary)
    report = repro.audit(path, summary=summary)
    assert as_tuples(report.findings) == as_tuples(expected)
    assert report.n_events == len(read_trace(path))
    return report


# -- traces the other suites write --------------------------------------------

@pytest.fixture(scope="module")
def chaos_scenario():
    return chaos_world()


@pytest.mark.parametrize("spec", [None] + [
    f"{module}:{kind}@{FAULT_STEPS[module]}" for module, kind in GRID])
def test_chaos_runs_audit_like_the_reference(chaos_scenario, spec):
    collector = InMemoryCollector()
    _, result, _ = run_with_faults(chaos_scenario, spec, collector=collector)
    summary = summarize(result, chaos_scenario.cost_model)
    assert_same_audit(collector.events, summary=summary)
    assert_same_audit(collector.events)


@pytest.mark.parametrize("routing", ["flowlet", "ecmp"])
def test_link_kill_run_and_service_audit_like_the_reference(routing,
                                                            tmp_path):
    options = RunOptions(routing=routing, link_kills="dc000>dc004@2",
                         telemetry=tmp_path / "batch.jsonl")
    report = repro.run("Pretium", "tiny", options=options)
    assert_same_file_audit(report.trace_path, summary=report.summary)
    served = tmp_path / "served.jsonl"
    summary = served_trace(ScenarioSpec.of("tiny").build(), served, options)
    assert any(e.get("event") == "LINK_KILLED" for e in read_trace(served))
    assert_same_file_audit(served, summary=summary)


def test_degraded_service_run_audits_like_the_reference(tmp_path):
    trace = tmp_path / "degraded.jsonl"
    summary = served_trace(ScenarioSpec.of("tiny").build(), trace,
                           service_options=ServiceOptions(
                               quote_deadline=1e-9))
    assert_same_file_audit(trace, summary=summary)


def test_classed_service_run_audits_like_the_reference(tmp_path):
    trace = tmp_path / "classed.jsonl"
    scenario = ScenarioSpec.of("tiny", classes="qos3").build(seed=3)
    summary = served_trace(scenario, trace)
    report = assert_same_file_audit(trace, summary=summary)
    assert report.ok


def test_merged_sweep_trace_audits_like_the_reference(tmp_path):
    trace = tmp_path / "sweep.jsonl"
    grid = {"schemes": ["Pretium", "NoPrices"], "scenarios": ["tiny"],
            "seeds": [0, 1]}
    assert repro.sweep(grid, options=RunOptions(workers=2,
                                                telemetry=trace)).ok
    report = assert_same_file_audit(trace)
    assert report.ok
    # The merge copies shard lines verbatim, and the shards were written
    # with the encoding a re-serialising merge would use: the merged file
    # is what decoding and re-encoding every event would give.
    assert trace.read_text() == "".join(
        json.dumps(event, separators=(",", ":")) + "\n"
        for event in read_trace(trace))


# -- damaged copies of a tiny trace -------------------------------------------

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    trace = tmp_path_factory.mktemp("tiny") / "trace.jsonl"
    report = repro.run("Pretium", "tiny",
                       options=RunOptions(telemetry=trace))
    return read_trace(trace), report.summary


def _indices(events, name=None):
    return [i for i, event in enumerate(events)
            if event.get("type") == "ledger"
            and (name is None or event.get("event") == name)]


def _with(events, i, **fields):
    events[i] = {**events[i], **fields}


def _drop(events, data):
    candidates = _indices(events)
    if candidates:
        del events[data.draw(st.sampled_from(candidates))]


def _duplicate(events, data):
    candidates = _indices(events)
    if candidates:
        i = data.draw(st.sampled_from(candidates))
        events.insert(data.draw(st.integers(0, len(events))), events[i])


def _swap(events, data):
    candidates = _indices(events)
    if len(candidates) >= 2:
        i, j = data.draw(st.lists(st.sampled_from(candidates), min_size=2,
                                  max_size=2, unique=True))
        events[i], events[j] = events[j], events[i]


_SCALES = st.sampled_from([0.0, 0.5, 0.999, 1.001, 2.0, -1.0])


def _bytes(events, data):
    candidates = _indices(events, "ALLOCATED")
    if candidates:
        i = data.draw(st.sampled_from(candidates))
        _with(events, i, bytes=events[i]["bytes"] * data.draw(_SCALES))


def _payment(events, data):
    candidates = _indices(events, "SETTLED")
    if candidates:
        i = data.draw(st.sampled_from(candidates))
        field = data.draw(st.sampled_from(["payment", "delivered"]))
        _with(events, i, **{field: events[i][field] * data.draw(_SCALES)
                            + data.draw(st.sampled_from([0.0, 1.0]))})


def _breakpoint(events, data):
    candidates = [i for i in _indices(events, "QUOTED")
                  if events[i].get("breakpoints")]
    if candidates:
        i = data.draw(st.sampled_from(candidates))
        breakpoints = [list(pair) for pair in events[i]["breakpoints"]]
        k = data.draw(st.integers(0, len(breakpoints) - 1))
        column = data.draw(st.integers(0, 1))
        breakpoints[k][column] *= data.draw(_SCALES)
        _with(events, i, breakpoints=breakpoints)


def _drop_run_started(events, data):
    events[:] = [e for e in events if e.get("event") != "RUN_STARTED"]


def _drop_run_ended(events, data):
    events[:] = [e for e in events if e.get("event") != "RUN_ENDED"]


def _degrade(events, data):
    """Insert a degradation: one request's, or a run-wide excuse."""
    arrivals = _indices(events, "ARRIVED")
    rid = data.draw(st.sampled_from([None] + [events[i]["rid"]
                                              for i in arrivals]))
    name = "DEGRADED" if rid is not None \
        else data.draw(st.sampled_from(["DEGRADED", "GUARANTEES_DROPPED"]))
    events.insert(data.draw(st.integers(0, len(events))), {
        "type": "ledger", "event": name, "rid": rid, "module": "sam",
        "step": data.draw(st.integers(0, 6))})


MUTATIONS = (_drop, _duplicate, _swap, _bytes, _payment, _breakpoint,
             _drop_run_started, _drop_run_ended, _degrade)


def _interleave(first, second, seed):
    """Two runs tagged as sweep cells 0 and 1, randomly interleaved."""
    rng = random.Random(seed)
    tagged = [[{**e, "cell": cell} for e in run]
              for cell, run in enumerate((first, second))]
    merged = []
    while tagged[0] or tagged[1]:
        pick = rng.randrange(2) if tagged[0] and tagged[1] \
            else int(not tagged[0])
        merged.append(tagged[pick].pop(0))
    return merged


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_damaged_tiny_traces_audit_like_the_reference(tiny_run,
                                                      tmp_path_factory, data):
    base, base_summary = tiny_run
    events = list(base)
    for mutate in data.draw(st.lists(st.sampled_from(MUTATIONS),
                                     min_size=1, max_size=4)):
        mutate(events, data)
    summary = data.draw(st.sampled_from([None, base_summary]))
    if data.draw(st.booleans()):
        other = list(base)
        data.draw(st.sampled_from(MUTATIONS))(other, data)
        events = _interleave(events, other,
                             data.draw(st.integers(0, 2 ** 32 - 1)))
    if not data.draw(st.booleans()):
        assert_same_audit(events, summary=summary)
        return
    lines = [json.dumps(event, separators=(",", ":")) for event in events]
    torn = data.draw(st.sampled_from(lines))
    torn = torn[:data.draw(st.integers(1, len(torn) - 1))]
    path = tmp_path_factory.mktemp("torn") / "trace.jsonl"
    path.write_text("\n".join(lines + [torn]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert_same_file_audit(path, summary=summary)


# -- memory -------------------------------------------------------------------

def _peak_bytes(audit, path):
    audit(path)                       # warm: imports, decoder caches
    tracemalloc.start()
    try:
        audit(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streaming_audit_peaks_below_a_quarter_of_the_reference(tmp_path):
    trace = tmp_path / "quick.jsonl"
    repro.run("Pretium", "quick", options=RunOptions(telemetry=trace))
    streaming = _peak_bytes(audit_trace, trace)
    loaded = _peak_bytes(reference.audit_trace, trace)
    assert streaming < loaded / 4, (streaming, loaded)
