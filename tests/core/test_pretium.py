"""Integration tests for the Pretium controller on small workloads."""

import numpy as np
import pytest

from repro.core import (AllOrNothingUser, ByteRequest, PretiumConfig,
                        PretiumController)
from repro.costs import LinkCostModel
from repro.network import parallel_paths_network, small_wan
from repro.sim import metrics, simulate
from repro.traffic import FixedValues, Workload, build_workload


def tiny_workload(requests=None, n_steps=6, steps_per_day=3):
    topo = parallel_paths_network(10.0, 10.0)
    requests = requests or [
        ByteRequest(0, "S", "T", 8.0, 0, 0, 2, 2.0),
        ByteRequest(1, "S", "T", 5.0, 1, 1, 4, 1.5),
        ByteRequest(2, "S", "T", 3.0, 3, 3, 5, 3.0),
    ]
    return Workload(topo, requests, n_steps=n_steps,
                    steps_per_day=steps_per_day)


def config(**kwargs):
    defaults = dict(window=3, lookback=3, initial_price=0.1,
                    price_floor=1e-3)
    defaults.update(kwargs)
    return PretiumConfig(**defaults)


def test_all_requests_served_when_capacity_ample():
    wl = tiny_workload()
    result = simulate(PretiumController(config()), wl)
    for req in wl.requests:
        assert result.delivered[req.rid] == pytest.approx(req.demand,
                                                          rel=1e-6)
    assert metrics.completion_fraction(result) == 1.0


def test_guarantees_met_for_admitted_requests():
    topo = small_wan(seed=0)
    wl = build_workload(topo, n_days=1, steps_per_day=8, load_factor=2.0,
                        seed=1)
    ctl = PretiumController(config(window=8, lookback=8))
    result = simulate(ctl, wl)
    for contract in ctl.contracts:
        assert result.delivered.get(contract.rid, 0.0) >= \
            contract.guaranteed - 1e-5


def test_capacity_never_violated():
    topo = small_wan(seed=0)
    wl = build_workload(topo, n_days=1, steps_per_day=8, load_factor=4.0,
                        seed=2)
    ctl = PretiumController(config(window=8, lookback=8))
    result = simulate(ctl, wl)  # engine raises on violation
    assert np.all(result.loads <= ctl.state.capacity + 1e-5)


def test_payments_match_contract_settlement():
    wl = tiny_workload()
    ctl = PretiumController(config())
    result = simulate(ctl, wl)
    for contract in ctl.contracts:
        expected = contract.payment_for(result.delivered[contract.rid])
        assert result.payments[contract.rid] == pytest.approx(expected)


def test_welfare_identity():
    """welfare == profit + user surplus (accounting consistency)."""
    topo = small_wan(seed=0)
    wl = build_workload(topo, n_days=1, steps_per_day=8, load_factor=2.0,
                        seed=3)
    result = simulate(PretiumController(config(window=8, lookback=8)), wl)
    cm = LinkCostModel(topo, billing_window=8)
    w = metrics.welfare(result, cm)
    p = metrics.profit(result, cm)
    s = metrics.user_surplus(result)
    assert w == pytest.approx(p + s, rel=1e-9, abs=1e-6)


def test_default_config_derived_from_workload():
    wl = tiny_workload(steps_per_day=3)
    ctl = PretiumController()
    simulate(ctl, wl)
    assert ctl.config.window == 3
    assert ctl.config.lookback == 4


def test_low_value_requests_declined_at_high_prices():
    wl = tiny_workload(requests=[
        ByteRequest(0, "S", "T", 5.0, 0, 0, 2, 0.05),
    ])
    ctl = PretiumController(config(initial_price=1.0))
    result = simulate(ctl, wl)
    # 2-hop path at price 1.0/link = 2.0/unit > value 0.05
    assert result.delivered.get(0, 0.0) == 0.0
    assert result.payments.get(0, 0.0) == 0.0


def test_nosam_executes_preliminary_plan():
    wl = tiny_workload()
    ctl = PretiumController(config(sam_enabled=False))
    result = simulate(ctl, wl)
    for req in wl.requests:
        assert result.delivered[req.rid] == pytest.approx(req.demand,
                                                          rel=1e-6)


def test_nomenu_user_is_all_or_nothing():
    ctl = PretiumController(config(menu_enabled=False))
    ctl.begin(tiny_workload())
    assert isinstance(ctl.user, AllOrNothingUser)


def test_price_updates_happen_each_window():
    topo = small_wan(seed=0)
    wl = build_workload(topo, n_days=2, steps_per_day=6, load_factor=1.0,
                        seed=4)
    ctl = PretiumController(config(window=6, lookback=6))
    simulate(ctl, wl)
    # windows at t=6 (and possibly none at t=0); at least one update
    assert ctl.price_updates >= 1


def test_fault_recovery_reroutes():
    """A failed link mid-run: SAM shifts traffic to the other path."""
    topo = parallel_paths_network(10.0, 10.0)
    requests = [ByteRequest(0, "S", "T", 18.0, 0, 0, 3, 5.0)]
    wl = Workload(topo, requests, n_steps=4, steps_per_day=4)
    ctl = PretiumController(config(window=4, lookback=4))

    ctl.begin(wl)
    loads = np.zeros((4, topo.num_links))
    delivered = {}
    ctl.window_start(0)
    ctl.arrival(requests[0], 0)
    # break the top path for the rest of the horizon
    ctl.state.fail_link("S", "M1", start=1)
    for t in range(4):
        ctl.window_start(t)
        txs = ctl.step(t, delivered, loads)
        for tx in txs:
            for index in tx.links:
                loads[t, index] += tx.volume
            delivered[tx.rid] = delivered.get(tx.rid, 0.0) + tx.volume
    # 18 units still fit: 10 via step 0 (both paths), rest via bottom path
    assert delivered[0] == pytest.approx(18.0, rel=1e-6)
    top_index = topo.link_between("S", "M1").index
    assert loads[1:, top_index].max() <= 1e-6


def test_contract_for_agrees_with_a_scan_of_contracts():
    """The rid index answers what walking ``contracts`` would: admitted,
    rejected (value below any price: no contract) and scavenger rids."""
    wl = tiny_workload(requests=[
        ByteRequest(0, "S", "T", 8.0, 0, 0, 2, 2.0),
        ByteRequest(1, "S", "T", 5.0, 1, 1, 4, 1e-9),
        ByteRequest(2, "S", "T", 3.0, 3, 3, 5, 0.5, scavenger=True),
        ByteRequest(3, "S", "T", 3.0, 3, 3, 5, 3.0),
    ])
    ctl = PretiumController(config())
    simulate(ctl, wl)

    def scan(rid):
        return next((c for c in ctl.contracts if c.rid == rid), None)

    assert [ctl.contract_for(rid) is scan(rid) for rid in range(5)] == \
        [True] * 5
    assert [ctl.contract_for(rid) is None for rid in range(5)] == \
        [False, True, False, False, True]
    assert ctl.contract_for(2).flat_price == 0.5
    ctl.begin(wl)  # a new run starts with an empty index
    assert ctl.contract_for(0) is None
