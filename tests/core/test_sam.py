"""Tests for the schedule adjustment module (§4.2)."""

import numpy as np
import pytest

from repro.core import (ByteRequest, NetworkState, PretiumConfig,
                        RequestAdmission, ScheduleAdjuster, install_plan,
                        transmissions_now)
from repro.network import Topology, parallel_paths_network


def setup(topology=None, n_steps=6, billing_window=6, **config_kwargs):
    topology = topology or parallel_paths_network(10.0, 10.0)
    defaults = dict(window=3, lookback=3, initial_price=1.0,
                    short_term_adjustment=False)
    defaults.update(config_kwargs)
    state = NetworkState(topology, n_steps, PretiumConfig(**defaults))
    return (topology, state, RequestAdmission(state),
            ScheduleAdjuster(state, billing_window))


def admit(ra, req, chosen=None, now=0):
    menu = ra.quote(req, now=now)
    return ra.admit(req, menu, chosen if chosen is not None
                    else req.demand, now)


def loads_for(state):
    return np.zeros((state.n_steps, state.topology.num_links))


def test_empty_contracts_no_plan():
    _, state, _, sam = setup()
    assert sam.adjust([], {}, loads_for(state), 0) == []


def test_plan_covers_guarantee():
    _, state, ra, sam = setup()
    req = ByteRequest(1, "S", "T", 12.0, 0, 0, 2, 5.0)
    contract = admit(ra, req)
    plan = sam.adjust([contract], {}, loads_for(state), 0)
    total = sum(tx.volume for tx in plan)
    assert total == pytest.approx(12.0)
    assert all(0 <= tx.timestep <= 2 for tx in plan)


def test_plan_respects_delivered_progress():
    _, state, ra, sam = setup()
    req = ByteRequest(1, "S", "T", 12.0, 0, 0, 2, 5.0)
    contract = admit(ra, req)
    plan = sam.adjust([contract], {1: 8.0}, loads_for(state), 1)
    total = sum(tx.volume for tx in plan)
    assert total == pytest.approx(4.0)
    assert all(tx.timestep >= 1 for tx in plan)


def test_completed_requests_excluded():
    _, state, ra, sam = setup()
    req = ByteRequest(1, "S", "T", 12.0, 0, 0, 2, 5.0)
    contract = admit(ra, req)
    assert sam.adjust([contract], {1: 12.0}, loads_for(state), 1) == []


def test_expired_requests_excluded():
    _, state, ra, sam = setup()
    req = ByteRequest(1, "S", "T", 12.0, 0, 0, 2, 5.0)
    contract = admit(ra, req)
    assert sam.adjust([contract], {}, loads_for(state), 3) == []


def test_capacity_respected():
    _, state, ra, sam = setup()
    contracts = []
    for rid in range(4):
        req = ByteRequest(rid, "S", "T", 15.0, 0, 0, 2, 5.0)
        contracts.append(admit(ra, req, chosen=15.0))
    plan = [tx for c in [sam.adjust(contracts, {}, loads_for(state), 0)]
            for tx in c]
    loads = np.zeros((state.n_steps, state.topology.num_links))
    for tx in plan:
        for index in tx.links:
            loads[tx.timestep, index] += tx.volume
    assert np.all(loads <= state.capacity + 1e-6)


def test_low_value_best_effort_dropped_when_costly():
    """SAM declines volume whose marginal value is below its cost."""
    topo = Topology()
    topo.add_link("a", "b", 10.0, metered=True, cost_per_unit=50.0)
    _, state, ra, sam = setup(topology=topo, billing_window=6)
    req = ByteRequest(1, "a", "b", 6.0, 0, 0, 5, 0.5)
    menu = ra.quote(req, now=0)
    contract = ra.admit(req, menu, 6.0, now=0)
    # zero out the guarantee so only best-effort economics matter
    contract.guaranteed = 0.0
    contract.marginal_price = 0.5
    plan = sam.adjust([contract], {}, loads_for(state), 0)
    # top-10% of 6 samples -> k=1; spreading 6 units over 6 steps costs
    # 50 per peak unit; value is 0.5/unit -> nothing is worth sending.
    assert sum(tx.volume for tx in plan) == pytest.approx(0.0, abs=1e-6)


def test_metered_cost_spreads_load_across_steps():
    """With a top-k cost on the only link, SAM flattens the schedule."""
    topo = Topology()
    topo.add_link("a", "b", 10.0, metered=True, cost_per_unit=1.0)
    _, state, ra, sam = setup(topology=topo, n_steps=10, billing_window=10)
    req = ByteRequest(1, "a", "b", 10.0, 0, 0, 9, 5.0)
    contract = admit(ra, req)
    plan = sam.adjust([contract], {}, loads_for(state), 0)
    per_step = np.zeros(10)
    for tx in plan:
        per_step[tx.timestep] += tx.volume
    # k = 1: cost charges the peak; optimal plan balances to 1.0/step
    assert per_step.max() == pytest.approx(1.0, abs=1e-6)


def test_fault_triggers_best_effort_fallback():
    """When a fault makes guarantees infeasible, SAM still returns a plan."""
    _, state, ra, sam = setup(n_steps=3)
    req = ByteRequest(1, "S", "T", 60.0, 0, 0, 2, 5.0)
    contract = admit(ra, req, chosen=60.0)
    assert contract.guaranteed == pytest.approx(60.0)
    # both paths die for the remaining steps
    state.fail_link("S", "M1", start=1)
    state.fail_link("S", "M2", start=1)
    plan = sam.adjust([contract], {1: 10.0}, loads_for(state), 1)
    assert sum(tx.volume for tx in plan) <= 1e-6


def test_transmissions_now_filters():
    from repro.core import Transmission
    plan = [Transmission(1, (0,), 0, 1.0), Transmission(1, (0,), 1, 2.0)]
    assert [tx.volume for tx in transmissions_now(plan, 0)] == [1.0]
    assert [tx.volume for tx in transmissions_now(plan, 1)] == [2.0]


def test_install_plan_rewrites_future_reservations():
    from repro.core import Transmission
    _, state, ra, _ = setup()
    req = ByteRequest(1, "S", "T", 12.0, 0, 0, 2, 5.0)
    admit(ra, req)
    before = sum(state.plan.get(1, {}).values())
    assert before == pytest.approx(12.0)
    new_plan = [Transmission(1, (0, 1), 1, 5.0),
                Transmission(1, (2, 3), 2, 7.0)]
    install_plan(state, new_plan, now=0, active_rids={1})
    # step-0 reservations survive; future rewritten to 12 across 2 steps
    planned_future = sum(v for (links, t), v in state.plan[1].items()
                         if t >= 1)
    assert planned_future == pytest.approx(12.0)


def test_install_plan_releases_dropped_requests():
    _, state, ra, _ = setup()
    req = ByteRequest(1, "S", "T", 12.0, 0, 0, 2, 5.0)
    admit(ra, req)
    install_plan(state, [], now=0, active_rids={1})
    planned_future = sum(v for (links, t), v in
                         state.plan.get(1, {}).items() if t >= 1)
    assert planned_future == 0.0


def test_billing_window_validation():
    topo = parallel_paths_network()
    state = NetworkState(topo, 4, PretiumConfig(window=2, lookback=2))
    with pytest.raises(ValueError):
        ScheduleAdjuster(state, 0)

