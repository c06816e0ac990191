"""Tests for the request admission interface (§4.1)."""

import numpy as np
import pytest

from repro.core import (ByteRequest, NetworkState, PretiumConfig,
                        RequestAdmission)
from repro.network import Topology, parallel_paths_network
from tests.builders import line_network


def make_ra(topology=None, n_steps=6, **config_kwargs):
    topology = topology or parallel_paths_network(10.0, 10.0)
    defaults = dict(window=3, lookback=3, initial_price=1.0,
                    short_term_adjustment=False)
    defaults.update(config_kwargs)
    state = NetworkState(topology, n_steps, PretiumConfig(**defaults))
    return topology, state, RequestAdmission(state)


def request(demand=5.0, start=0, deadline=2, value=10.0, rid=1,
            src="S", dst="T", arrival=None):
    return ByteRequest(rid, src, dst, demand, arrival=start if arrival is None
                       else arrival, start=start, deadline=deadline,
                       value=value)


def test_menu_covers_demand_when_capacity_ample():
    _, _, ra = make_ra()
    menu = ra.quote(request(demand=5.0), now=0)
    assert menu.max_guaranteed == pytest.approx(5.0)
    # 2-hop path at unit link price -> 2.0 per unit
    assert menu.price(5.0) == pytest.approx(10.0)


def test_menu_stops_at_demand():
    _, _, ra = make_ra()
    menu = ra.quote(request(demand=3.0), now=0)
    assert menu.max_guaranteed == pytest.approx(3.0)


def test_menu_price_reflects_path_length():
    topo = line_network(3, capacity=10.0)
    _, _, ra = make_ra(topology=topo)
    one_hop = ra.quote(request(src="n0", dst="n1", demand=1.0), now=0)
    two_hop = ra.quote(request(src="n0", dst="n2", demand=1.0), now=0)
    assert one_hop.price(1.0) == pytest.approx(1.0)
    assert two_hop.price(1.0) == pytest.approx(2.0)


def test_menu_uses_cheapest_timestep_first():
    topo, state, ra = make_ra()
    # make timestep 1 cheaper than timestep 0
    state.prices[0, :] = 3.0
    state.prices[1, :] = 1.0
    menu = ra.quote(request(demand=5.0, start=0, deadline=1), now=0)
    assert menu.segments[0].timestep == 1
    assert menu.segments[0].unit_price == pytest.approx(2.0)


def test_longer_deadline_is_pointwise_cheaper():
    """Figure 4: a shorter deadline leads to (weakly) higher prices."""
    topo, state, ra = make_ra()
    state.prices[0, :] = 5.0
    state.prices[1, :] = 2.0
    state.prices[2, :] = 1.0
    tight = ra.quote(request(demand=30.0, start=0, deadline=0), now=0)
    loose = ra.quote(request(demand=30.0, start=0, deadline=2, rid=2), now=0)
    for x in (1.0, 5.0, 10.0):
        assert loose.price(x) <= tight.price(x) + 1e-9
    assert loose.max_guaranteed >= tight.max_guaranteed


def test_menu_exhausts_capacity():
    _, _, ra = make_ra()
    # 2 paths x 3 steps x bottleneck 10 = 60 units max
    menu = ra.quote(request(demand=100.0, start=0, deadline=2), now=0)
    assert menu.max_guaranteed == pytest.approx(60.0)


def test_menu_empty_when_no_steps_left():
    _, _, ra = make_ra()
    menu = ra.quote(request(start=0, deadline=1), now=4)
    assert not menu.segments


def test_menu_starts_at_now_not_start():
    topo, state, ra = make_ra()
    state.prices[0, :] = 0.1  # cheap but in the past at quote time
    menu = ra.quote(request(start=0, deadline=2, demand=5.0), now=1)
    assert all(segment.timestep >= 1 for segment in menu.segments)


def test_menu_respects_existing_reservations():
    topo, state, ra = make_ra()
    for t in range(3):
        state.reserve(99, (0,), t, 10.0)  # fill S->M1 entirely
    menu = ra.quote(request(demand=100.0, start=0, deadline=2), now=0)
    # only the bottom path remains: 3 steps x 10
    assert menu.max_guaranteed == pytest.approx(30.0)


def test_congestion_segments_raise_menu_prices():
    _, state, ra = make_ra(short_term_adjustment=True,
                           congestion_threshold=0.8,
                           congestion_multiplier=2.0)
    menu = ra.quote(request(demand=20.0, start=0, deadline=0), now=0)
    # both 2-hop paths: 8 cheap units at 2.0, then 2 congested at 4.0 each
    assert menu.price(16.0) == pytest.approx(32.0)
    assert menu.price(20.0) == pytest.approx(32.0 + 4 * 4.0)


def test_admit_reserves_preliminary_schedule():
    topo, state, ra = make_ra()
    req = request(demand=5.0)
    menu = ra.quote(req, now=0)
    contract = ra.admit(req, menu, chosen=5.0, now=0)
    assert contract is not None
    assert contract.guaranteed == pytest.approx(5.0)
    assert sum(state.plan.get(req.rid, {}).values()) == pytest.approx(5.0)
    # reservations consume residual capacity
    total_reserved = state.reserved.sum()
    assert total_reserved == pytest.approx(10.0)  # 5 units x 2 links


def test_admit_declined():
    _, state, ra = make_ra()
    req = request()
    menu = ra.quote(req, now=0)
    assert ra.admit(req, menu, chosen=0.0, now=0) is None
    assert sum(state.plan.get(req.rid, {}).values()) == 0.0


def test_admit_rejects_overdemand():
    _, _, ra = make_ra()
    req = request(demand=5.0)
    menu = ra.quote(req, now=0)
    with pytest.raises(ValueError):
        ra.admit(req, menu, chosen=6.0, now=0)


def test_admit_best_effort_beyond_guarantee():
    _, state, ra = make_ra()
    req = request(demand=100.0, start=0, deadline=2)
    menu = ra.quote(req, now=0)
    assert menu.max_guaranteed == pytest.approx(60.0)
    contract = ra.admit(req, menu, chosen=80.0, now=0)
    assert contract.guaranteed == pytest.approx(60.0)
    assert contract.chosen - contract.guaranteed == pytest.approx(20.0)
    # only the guarantee is reserved
    assert sum(state.plan.get(req.rid, {}).values()) == pytest.approx(60.0)


def test_contract_payment_for():
    _, _, ra = make_ra()
    req = request(demand=5.0)
    menu = ra.quote(req, now=0)
    contract = ra.admit(req, menu, chosen=5.0, now=0)
    assert contract.payment_for(5.0) == pytest.approx(menu.price(5.0))
    assert contract.payment_for(2.5) == pytest.approx(menu.price(2.5))
    assert contract.payment_for(0.0) == 0.0
    # delivery beyond chosen is never billed
    assert contract.payment_for(50.0) == pytest.approx(menu.price(5.0))


def test_contract_payment_includes_best_effort():
    _, _, ra = make_ra()
    req = request(demand=100.0, start=0, deadline=2)
    menu = ra.quote(req, now=0)
    contract = ra.admit(req, menu, chosen=80.0, now=0)
    base = menu.price(60.0)
    assert contract.payment_for(70.0) == pytest.approx(
        base + 10.0 * menu.best_effort_price)


def test_sequential_admissions_raise_prices_via_congestion():
    """Admitting traffic pushes later arrivals into pricier segments."""
    _, state, ra = make_ra(short_term_adjustment=True)
    first = request(demand=16.0, start=0, deadline=0, rid=1)
    menu1 = ra.quote(first, now=0)
    ra.admit(first, menu1, chosen=16.0, now=0)
    second = request(demand=4.0, start=0, deadline=0, rid=2)
    menu2 = ra.quote(second, now=0)
    # cheap segments are gone; everything quotes at the doubled price
    assert menu2.segments[0].unit_price == pytest.approx(4.0)
