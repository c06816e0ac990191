"""Tests for the shared offline scheduling LP."""

import numpy as np
import pytest

from repro.baselines import ScheduleItem, base, solve_offline_schedule, \
    value_grid
from repro.core import ByteRequest
from repro.experiments.scenarios import ScenarioSpec
from repro.lp import Model
from repro.network import PathCache, Topology, line_network, \
    parallel_paths_network
from repro.traffic import Workload
from tests.reference.lp import assert_models_identical


def workload(requests, topo=None, n_steps=4):
    topo = topo or parallel_paths_network(10.0, 10.0)
    return Workload(topo, requests, n_steps=n_steps, steps_per_day=n_steps)


def test_schedules_full_demand_when_feasible():
    reqs = [ByteRequest(0, "S", "T", 15.0, 0, 0, 3, 2.0)]
    wl = workload(reqs)
    schedule = solve_offline_schedule(
        wl, [ScheduleItem(reqs[0], weight=2.0, cap=15.0)])
    assert schedule.delivered[0] == pytest.approx(15.0)
    assert schedule.objective == pytest.approx(30.0)


def test_respects_cap():
    reqs = [ByteRequest(0, "S", "T", 15.0, 0, 0, 3, 2.0)]
    wl = workload(reqs)
    schedule = solve_offline_schedule(
        wl, [ScheduleItem(reqs[0], weight=2.0, cap=4.0)])
    assert schedule.delivered[0] == pytest.approx(4.0)


def test_zero_cap_items_skipped():
    reqs = [ByteRequest(0, "S", "T", 15.0, 0, 0, 3, 2.0)]
    wl = workload(reqs)
    schedule = solve_offline_schedule(
        wl, [ScheduleItem(reqs[0], weight=2.0, cap=0.0)])
    assert schedule.delivered == {}
    assert schedule.objective == 0.0


def test_capacity_shared_between_requests():
    reqs = [ByteRequest(0, "S", "T", 100.0, 0, 0, 0, 3.0),
            ByteRequest(1, "S", "T", 100.0, 0, 0, 0, 1.0)]
    wl = workload(reqs, n_steps=1)
    schedule = solve_offline_schedule(
        wl, [ScheduleItem(r, weight=r.value, cap=r.demand) for r in reqs])
    # 20 units total (two 2-hop paths of 10); high value wins all of it
    assert schedule.delivered.get(0, 0.0) == pytest.approx(20.0)
    assert schedule.delivered.get(1, 0.0) == pytest.approx(0.0, abs=1e-6)
    assert np.all(schedule.loads <= 10.0 + 1e-6)


def test_allowed_steps_mask():
    reqs = [ByteRequest(0, "S", "T", 100.0, 0, 0, 3, 1.0)]
    wl = workload(reqs)
    schedule = solve_offline_schedule(
        wl, [ScheduleItem(reqs[0], weight=1.0, cap=100.0,
                          allowed_steps={1, 2})])
    assert schedule.delivered[0] == pytest.approx(40.0)
    series = schedule.per_step[0]
    assert series[0] == 0.0 and series[3] == 0.0
    assert series[1] == pytest.approx(20.0)


def test_metered_cost_discourages_worthless_traffic():
    topo = Topology()
    topo.add_link("a", "b", 10.0, metered=True, cost_per_unit=50.0)
    reqs = [ByteRequest(0, "a", "b", 10.0, 0, 0, 3, 0.1)]
    wl = workload(reqs, topo=topo)
    schedule = solve_offline_schedule(
        wl, [ScheduleItem(reqs[0], weight=0.1, cap=10.0)])
    # k=1 on a 4-step window: every peak unit costs 50 > value 0.1
    assert schedule.delivered.get(0, 0.0) == pytest.approx(0.0, abs=1e-6)


def test_include_costs_false_routes_anyway():
    topo = Topology()
    topo.add_link("a", "b", 10.0, metered=True, cost_per_unit=50.0)
    reqs = [ByteRequest(0, "a", "b", 10.0, 0, 0, 3, 0.1)]
    wl = workload(reqs, topo=topo)
    schedule = solve_offline_schedule(
        wl, [ScheduleItem(reqs[0], weight=0.1, cap=10.0)],
        include_costs=False)
    assert schedule.delivered[0] == pytest.approx(10.0)


def test_loads_match_per_step_totals():
    reqs = [ByteRequest(0, "S", "T", 30.0, 0, 0, 3, 2.0)]
    wl = workload(reqs)
    schedule = solve_offline_schedule(
        wl, [ScheduleItem(reqs[0], weight=2.0, cap=30.0)])
    # every unit crosses exactly 2 links
    assert schedule.loads.sum() == pytest.approx(2 * 30.0)


def test_empty_items():
    wl = workload([])
    schedule = solve_offline_schedule(wl, [])
    assert schedule.objective == 0.0
    assert schedule.loads.shape == (4, 4)


def test_value_grid():
    reqs = [ByteRequest(i, "S", "T", 1.0, 0, 0, 1, float(i + 1))
            for i in range(10)]
    grid = value_grid(reqs, n_points=5)
    assert grid == sorted(grid)
    assert min(grid) == pytest.approx(1.0)
    assert max(grid) == pytest.approx(10.0)
    assert value_grid([], 5) == [0.0]
    assert len(value_grid(reqs, 1)) == 1


class _Captured(Exception):
    """Raised in place of a solve, once the model is in hand."""


def offline_lp(monkeypatch, build, *args, **kwargs):
    """The model ``build(*args, **kwargs)`` hands the solver."""
    models = []

    def capture(model, *args, **solve_kwargs):
        models.append(model)
        raise _Captured

    monkeypatch.setattr(Model, "solve", capture)
    with pytest.raises(_Captured):
        build(*args, **kwargs)
    return models[0]


@pytest.mark.parametrize("policy", ["ecmp", "flowlet"])
def test_offline_lp_is_built_over_the_routing_policys_routes(
        monkeypatch, policy):
    """``routing=`` used to be dropped: a fresh policy-aware cache is
    empty, hence falsy, and ``paths or PathCache(...)`` swapped it for a
    ``kpaths`` one, so offline baselines ignored the policy.  The LP must
    be the one the builder lays out over that policy's own route cache."""
    wl = ScenarioSpec.of("quick").build(seed=0).workload
    items = [ScheduleItem(r, weight=r.value, cap=r.demand)
             for r in wl.requests]
    by_policy = offline_lp(monkeypatch, solve_offline_schedule, wl, items,
                           routing=policy)
    explicit = offline_lp(
        monkeypatch, base._solve_offline_schedule_coo, wl, items, 0.1,
        True, "weighted", PathCache(wl.topology, k=3, policy=policy))
    assert_models_identical(by_policy, explicit)
    kpaths = offline_lp(monkeypatch, solve_offline_schedule, wl, items)
    with pytest.raises(AssertionError):
        assert_models_identical(by_policy, kpaths)
