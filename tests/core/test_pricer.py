"""Tests for the price computer (§4.3): duals, gradients, carry-over."""

import numpy as np
import pytest

from repro.core import (ByteRequest, NetworkState, PretiumConfig,
                        PriceComputer, RequestAdmission)
from repro.network import Topology, parallel_paths_network
from tests.builders import line_network


def setup(topology=None, n_steps=8, window=4, **config_kwargs):
    topology = topology or line_network(2, capacity=10.0)
    defaults = dict(window=window, lookback=window, initial_price=1.0,
                    short_term_adjustment=False, price_floor=1e-3)
    defaults.update(config_kwargs)
    state = NetworkState(topology, n_steps, PretiumConfig(**defaults))
    return (topology, state, RequestAdmission(state),
            PriceComputer(state, billing_window=window))


def admit(ra, req, now=None):
    now = req.arrival if now is None else now
    menu = ra.quote(req, now=now)
    return ra.admit(req, menu, req.demand, now)


def test_no_update_before_first_window():
    _, state, ra, pc = setup()
    assert pc.update([], 0) is False
    assert np.allclose(state.prices, 1.0)


def test_no_update_without_history():
    _, state, ra, pc = setup()
    assert pc.update([], 4) is False


def test_uncongested_prices_fall_to_floor():
    """With ample capacity the capacity duals are zero, so the new prices
    hit the floor — the self-correcting downward direction."""
    topo, state, ra, pc = setup()
    req = ByteRequest(1, "n0", "n1", 2.0, 0, 0, 3, 5.0)
    contract = admit(ra, req)
    assert pc.update([contract], 4) is True
    assert np.allclose(state.prices[4:], 1e-3)
    # past prices untouched
    assert np.allclose(state.prices[:4], 1.0)


def test_congested_link_priced_up():
    """Excess demand on a saturated link drives a positive dual price."""
    topo, state, ra, pc = setup()
    contracts = []
    # 3 contracts of 40 each within a 4-step window: capacity is
    # 10/step = 40 total; marginal prices differ, the dual should rise to
    # choke off the lowest-lambda contract.
    for rid, lam in ((1, 1.0), (2, 2.0), (3, 3.0)):
        req = ByteRequest(rid, "n0", "n1", 40.0, 0, 0, 3, lam)
        menu = ra.quote(req, now=0)
        contract = ra.admit(req, menu, 40.0, now=0)
        contract.marginal_price = lam
        contracts.append(contract)
    assert pc.update(contracts, 4) is True
    # the competitive price equals the marginal displaced value (~2.0)
    assert np.all(state.prices[4:, 0] >= 1.0)


def test_metered_gradient_added():
    """On a metered link the window's cost gradients sum to ~C_e.

    With k=1, raising the load on every step of the window by one unit
    raises the billed peak by one unit, i.e. costs ``C_e``; the LP duals
    distribute that gradient across the steps of the window.
    """
    topo = Topology()
    topo.add_link("a", "b", 10.0, metered=True, cost_per_unit=4.0)
    _, state, ra, pc = setup(topology=topo, window=4)
    req = ByteRequest(1, "a", "b", 4.0, 0, 0, 3, 5.0)
    contract = admit(ra, req)
    assert pc.update([contract], 4) is True
    window_prices = state.prices[4:8, 0]
    assert window_prices.sum() >= 4.0 - 1e-6
    assert window_prices.max() <= 4.0 + 1e-6


def test_prices_carried_over_to_later_windows():
    topo, state, ra, pc = setup(n_steps=12, window=4)
    req = ByteRequest(1, "n0", "n1", 2.0, 0, 0, 3, 5.0)
    contract = admit(ra, req)
    pc.update([contract], 4)
    assert np.allclose(state.prices[4:8], state.prices[8:12])


def test_lookback_longer_than_window():
    topo, state, ra, pc = setup(n_steps=12, window=4, lookback=8)
    contracts = [admit(ra, ByteRequest(1, "n0", "n1", 2.0, 0, 0, 3, 5.0))]
    contracts.append(admit(ra, ByteRequest(2, "n0", "n1", 2.0, 4, 4, 7, 5.0)))
    assert pc.update(contracts, 8) is True


def test_update_ignores_unrelated_contracts():
    """Contracts entirely outside the lookback are not considered."""
    topo, state, ra, pc = setup(n_steps=12, window=4, lookback=4)
    future = ByteRequest(1, "n0", "n1", 2.0, 8, 8, 11, 5.0)
    menu = ra.quote(future, now=8)
    contract = ra.admit(future, menu, 2.0, now=8)
    # at t=4 the lookback is [0,4); the future contract is irrelevant
    assert pc.update([contract], 4) is False


def test_self_correcting_loop_raises_congested_price():
    """End-to-end §4.3 behaviour: when purchased volume (guarantees plus
    best-effort) exceeds hindsight capacity, the dual price turns positive
    — equal to the marginal displaced value."""
    def run(demand):
        topo, state, ra, pc = setup()
        contracts = []
        for rid, lam in ((1, 2.0), (2, 3.0)):
            req = ByteRequest(rid, "n0", "n1", demand, 0, 0, 3, 5.0)
            menu = ra.quote(req, now=0)
            chosen = menu.best_response(5.0, demand)
            contract = ra.admit(req, menu, chosen, now=0)
            if contract:
                contract.marginal_price = lam
                contracts.append(contract)
        pc.update(contracts, 4)
        return float(state.prices[4, 0])

    congested = run(demand=30.0)   # 60 purchased vs 40 capacity
    light = run(demand=1.0)
    assert congested > light
    # the displaced marginal contract has lambda = 2.0
    assert congested == pytest.approx(2.0, abs=1e-6)


def test_billing_window_validation():
    topo = line_network(2)
    state = NetworkState(topo, 4, PretiumConfig(window=2, lookback=2))
    with pytest.raises(ValueError):
        PriceComputer(state, billing_window=0)
