"""Tests for scheduled link kills (repro.faults.links) and the flowlet
re-hash chaos path: a mid-run link failure must zero the link's
capacity, refresh the dynamic routing policies, and re-spread flowlets
onto the survivors — all through the same ``NetworkState.fail_link``
path an operator-driven outage takes.
"""

import pytest

from repro.experiments.runner import run_scheme, scheme_spec
from repro.experiments.scenarios import tiny_scenario
from repro.faults import (FaultSpecError, LinkKill, LinkKillSchedule,
                          parse_link_kills)
from repro.network.paths import PathCache
from repro.options import RunOptions
from repro.sim import simulate
from repro.telemetry import InMemoryCollector, Tracer, read_trace, use_tracer


# -- spec parsing -------------------------------------------------------------

def test_parse_single_clause_and_roundtrip():
    (kill,) = parse_link_kills("S>M1@3")
    assert kill == LinkKill("S", "M1", 3)
    assert kill.spec == "S>M1@3"
    (windowed,) = parse_link_kills("S>M1@3-7")
    assert windowed == LinkKill("S", "M1", 3, 7)
    assert parse_link_kills(windowed.spec) == (windowed,)


def test_parse_multiple_clauses():
    kills = parse_link_kills("S>M1@3, S>M2@5-6")
    assert [k.spec for k in kills] == ["S>M1@3", "S>M2@5-6"]


@pytest.mark.parametrize("spec", [
    "", "  ,  ", "S-M1@3", "S>M1", "S>M1@", "S>M1@x", "S>M1@5-5",
    "S>M1@5-2",
])
def test_bad_specs_rejected(spec):
    with pytest.raises(FaultSpecError):
        parse_link_kills(spec)


def test_run_options_validate_the_spec_eagerly():
    RunOptions(link_kills="a>b@1")  # fine
    with pytest.raises(FaultSpecError):
        RunOptions(link_kills="nonsense")


def test_schedule_groups_kills_by_step():
    schedule = LinkKillSchedule.from_spec("a>b@2,c>d@2,a>b@5")
    assert len(schedule) == 3 and schedule
    assert [k.spec for k in schedule.due(2)] == ["a>b@2", "c>d@2"]
    assert schedule.due(3) == ()
    assert not LinkKillSchedule()


# -- engine integration -------------------------------------------------------

def test_engine_applies_kill_and_flowlet_rehashes():
    scenario = tiny_scenario(seed=0)
    link = scenario.topology.links[0]
    controller = scheme_spec("Pretium").build(
        RunOptions(routing="flowlet"))
    result = simulate(
        controller, scenario.workload,
        options=RunOptions(link_kills=f"{link.src}>{link.dst}@2"))
    assert result.total_delivered > 0
    paths = controller.state.paths
    # The kill refreshed the dynamic policy: dead link recorded, epoch
    # bumped, so every flowlet re-hashed.
    assert paths.policy == "flowlet"
    assert paths.epoch >= 1
    assert (link.src, link.dst) in paths._dead
    # Capacity is ~zero from the kill step onward.
    assert controller.state.capacity[2:, link.index].max() <= 1e-9
    assert controller.state.capacity[:2, link.index].max() > 1e-9


def test_flowlet_pins_move_across_the_kill_epoch():
    """The chaos guarantee: surviving flowlets re-spread after a kill."""
    scenario = tiny_scenario(seed=0)
    link = scenario.topology.links[0]
    controller = scheme_spec("Pretium").build(
        RunOptions(routing="flowlet"))
    simulate(controller, scenario.workload,
             options=RunOptions(link_kills=f"{link.src}>{link.dst}@2"))
    after = controller.state.paths
    before = PathCache(scenario.topology, k=after.k, policy="flowlet")
    moved = 0
    for request in scenario.workload.requests[:60]:
        old = before.routes(request.src, request.dst, rid=request.rid)
        new = after.routes(request.src, request.dst, rid=request.rid)
        if old and new and old != new:
            moved += 1
    assert moved > 0, "a kill must re-pin at least some flowlets"


def test_kills_land_in_the_ledger():
    scenario = tiny_scenario(seed=0)
    link = scenario.topology.links[0]
    controller = scheme_spec("Pretium").build(
        RunOptions(routing="flowlet"))
    collector = InMemoryCollector()
    with use_tracer(Tracer(sinks=[collector])):
        simulate(controller, scenario.workload,
                 options=RunOptions(
                     link_kills=f"{link.src}>{link.dst}@2-4"))
    kills = [e for e in collector.events
             if e.get("event") == "LINK_KILLED"]
    assert kills == [pytest.approx({
        "type": "ledger", "event": "LINK_KILLED", "step": 2,
        "src": link.src, "dst": link.dst, "end": 4,
        "ts": kills[0]["ts"]})]


def test_unknown_link_fails_the_run_loudly():
    scenario = tiny_scenario(seed=0)
    controller = scheme_spec("Pretium").build(RunOptions())
    collector = InMemoryCollector()
    with use_tracer(Tracer(sinks=[collector])), \
            pytest.raises(FaultSpecError, match="'nope>where@1'"):
        simulate(controller, scenario.workload,
                 options=RunOptions(link_kills="nope>where@1"))
    # Rejected before the run started: no step ran, nothing was traced.
    assert controller.state is None
    assert collector.events == []


def test_unknown_link_is_rejected_when_the_service_engine_is_built():
    from repro.service import AdmissionEngine
    scenario = tiny_scenario(seed=0)
    link = scenario.topology.links[0]
    with pytest.raises(FaultSpecError, match="'zz>yy@3'"):
        AdmissionEngine(scheme_spec("Pretium").build(), scenario.workload,
                        link_kills=f"{link.src}>{link.dst}@1,zz>yy@3")


@pytest.mark.parametrize("command", [["run", "--scheme", "Pretium"],
                                     ["serve", "--scenario", "tiny"]])
def test_cli_rejects_a_kill_on_an_unknown_link(command, tmp_path, capsys):
    from repro.cli import main
    if command[0] == "run":
        workload = tmp_path / "wl.json"
        main(["generate-workload", "--out", str(workload), "--nodes", "6",
              "--days", "1", "--steps-per-day", "4", "--seed", "1"])
        command = [*command, "--workload", str(workload)]
    capsys.readouterr()
    assert main([*command, "--link-kills", "zz>yy@3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'zz>yy@3'" in err


@pytest.mark.parametrize("scheme", ["Pretium", "OPT"])
@pytest.mark.parametrize("clause", ["nowhere", "past-horizon"])
def test_cli_checks_kills_for_every_scheme(scheme, clause, tmp_path,
                                           capsys):
    from repro.cli import main
    from repro.traffic import load_workload
    workload = tmp_path / "wl.json"
    main(["generate-workload", "--out", str(workload), "--nodes", "6",
          "--days", "1", "--steps-per-day", "4", "--seed", "1"])
    world = load_workload(workload)
    link = world.topology.links[0]
    spec = (f"{link.src}>nowhere@2" if clause == "nowhere"
            else f"{link.src}>{link.dst}@{world.n_steps}")
    capsys.readouterr()
    assert main(["run", "--scheme", scheme, "--workload", str(workload),
                 "--link-kills", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(spec) in err
    expected = "names no link" if clause == "nowhere" else "past the run"
    assert expected in err


def test_a_kill_at_the_last_step_is_accepted():
    scenario = tiny_scenario(seed=0)
    link = scenario.topology.links[0]
    last = scenario.workload.n_steps - 1
    for scheme in ("Pretium", "OPT"):
        run_scheme(scheme, scenario, options=RunOptions(
            link_kills=f"{link.src}>{link.dst}@{last}"))


def test_runner_threads_kills_through_options():
    scenario = tiny_scenario(seed=0)
    link = scenario.topology.links[0]
    base = run_scheme("Pretium", scenario,
                      options=RunOptions(routing="flowlet"))
    killed = run_scheme(
        "Pretium", scenario,
        options=RunOptions(routing="flowlet",
                           link_kills=f"{link.src}>{link.dst}@1"))
    # The outage must be observable in the realised loads: nothing
    # rides the dead link after the kill step.
    assert killed.loads[1:, link.index].max() <= 1e-6
    assert killed.loads.tolist() != base.loads.tolist()


def _settled_chosen(trace):
    return {e["rid"]: e["chosen"] for e in read_trace(trace)
            if e.get("event") == "SETTLED"}


@pytest.mark.parametrize("routing", ["flowlet", "ecmp"])
def test_kill_that_repins_routes_runs_clean_end_to_end(routing, tmp_path,
                                                       capsys):
    """The pinned seed of ROADMAP's scenario fuzzer: this command died
    with ``CapacityViolation: request 893: link 24 at step 5`` under
    flowlet routing while SAM reused skeletons across a re-pin.  The
    same world and kill through the live service must run as clean and
    contract the same volumes."""
    from repro.cli import main
    knobs = ["--scheme", "Pretium", "--routing", routing,
             "--link-kills", "dc000>dc008@5"]
    trace, summary = tmp_path / "trace.jsonl", tmp_path / "summary.json"
    assert main(["run", *knobs, "--telemetry", str(trace),
                 "--out", str(summary)]) == 0
    assert main(["telemetry", "audit", str(trace),
                 "--summary", str(summary)]) == 0
    assert "audit clean" in capsys.readouterr().out
    served = tmp_path / "served.jsonl"
    assert main(["serve", "--scenario", "standard", *knobs,
                 "--telemetry", str(served),
                 "--out", str(tmp_path / "served.json")]) == 0
    assert any(e.get("event") == "LINK_KILLED" for e in read_trace(served))
    assert main(["telemetry", "audit", str(served)]) == 0
    assert "audit clean" in capsys.readouterr().out
    assert _settled_chosen(served) == _settled_chosen(trace)
