"""Tests for the scavenger (best-effort) request class (§4.4)."""

import numpy as np
import pytest

from repro.core import (ByteRequest, Contract, PretiumConfig,
                        PretiumController)
from repro.network import Topology, parallel_paths_network
from repro.sim import simulate
from repro.traffic import Workload


def config(**kwargs):
    defaults = dict(window=4, lookback=4, initial_price=0.05)
    defaults.update(kwargs)
    return PretiumConfig(**defaults)


def test_scavenger_contract_shape():
    req = ByteRequest(1, "a", "b", 10.0, 0, 0, 3, 0.5, scavenger=True)
    contract = Contract.scavenger(req, named_price=0.5, now=0)
    assert contract.guaranteed == 0.0
    assert contract.chosen == 10.0
    assert contract.marginal_price == 0.5
    assert contract.payment_for(4.0) == pytest.approx(2.0)
    assert contract.payment_for(0.0) == 0.0
    assert contract.payment_for(99.0) == pytest.approx(5.0)  # capped


def test_scavenger_negative_price_rejected():
    req = ByteRequest(1, "a", "b", 10.0, 0, 0, 3, 0.5, scavenger=True)
    with pytest.raises(ValueError):
        Contract.scavenger(req, named_price=-1.0, now=0)


def test_scavenger_served_from_leftover_capacity():
    topo = parallel_paths_network(10.0, 10.0)
    requests = [
        ByteRequest(0, "S", "T", 15.0, 0, 0, 1, 2.0),
        ByteRequest(1, "S", "T", 20.0, 0, 0, 1, 0.3, scavenger=True),
    ]
    wl = Workload(topo, requests, n_steps=2, steps_per_day=2)
    ctl = PretiumController(config(window=2, lookback=2))
    result = simulate(ctl, wl)
    # guaranteed request is fully served; scavenger picks up the rest
    assert result.delivered[0] == pytest.approx(15.0)
    assert result.delivered.get(1, 0.0) > 0
    # 40 total capacity over 2 steps; both fit
    assert result.delivered[1] == pytest.approx(20.0)
    assert result.payments[1] == pytest.approx(0.3 * 20.0)


def test_scavenger_never_displaces_guarantees():
    topo = parallel_paths_network(5.0, 5.0)
    requests = [
        ByteRequest(0, "S", "T", 20.0, 0, 0, 1, 2.0),
        ByteRequest(1, "S", "T", 50.0, 0, 0, 1, 100.0, scavenger=True),
    ]
    wl = Workload(topo, requests, n_steps=2, steps_per_day=2)
    ctl = PretiumController(config(window=2, lookback=2))
    result = simulate(ctl, wl)
    # capacity = 20 total; the guaranteed contract takes it all even
    # though the scavenger names a huge price (guarantees are hard).
    assert result.delivered[0] == pytest.approx(20.0)
    assert result.delivered.get(1, 0.0) == pytest.approx(0.0, abs=1e-6)


def test_scavenger_skipped_when_price_below_cost():
    topo = Topology()
    topo.add_link("a", "b", 10.0, metered=True, cost_per_unit=50.0)
    requests = [
        ByteRequest(0, "a", "b", 10.0, 0, 0, 3, 0.1, scavenger=True),
    ]
    wl = Workload(topo, requests, n_steps=4, steps_per_day=4)
    ctl = PretiumController(config())
    result = simulate(ctl, wl)
    # named price 0.1 never covers C/k = 50 -> nothing sent, nothing paid
    assert result.delivered.get(0, 0.0) == pytest.approx(0.0, abs=1e-6)
    assert result.payments.get(0, 0.0) == pytest.approx(0.0, abs=1e-6)


def test_hybrid_guarantee_plus_scavenger():
    """§4.4 hybrid: a guarantee for the floor, a scavenger for upside."""
    topo = parallel_paths_network(10.0, 10.0)
    requests = [
        ByteRequest(0, "S", "T", 10.0, 0, 0, 1, 2.0),                 # firm
        ByteRequest(1, "S", "T", 25.0, 0, 0, 1, 0.2, scavenger=True),  # bulk
    ]
    wl = Workload(topo, requests, n_steps=2, steps_per_day=2)
    ctl = PretiumController(config(window=2, lookback=2))
    result = simulate(ctl, wl)
    assert result.delivered[0] == pytest.approx(10.0)
    # leftover = 40 - 10 = 30 >= 25
    assert result.delivered[1] == pytest.approx(25.0)


def test_scavenger_not_reserved():
    topo = parallel_paths_network(10.0, 10.0)
    wl = Workload(topo, [ByteRequest(0, "S", "T", 10.0, 0, 0, 1, 0.5,
                                     scavenger=True)],
                  n_steps=2, steps_per_day=2)
    ctl = PretiumController(config(window=2, lookback=2))
    ctl.begin(wl)
    ctl.arrival(wl.requests[0], 0)
    # no preliminary reservation is made for scavenger traffic
    assert np.all(ctl.state.reserved == 0.0)
