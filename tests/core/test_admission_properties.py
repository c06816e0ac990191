"""Property-based tests of the admission interface (Theorem 5.1's levers).

These exercise the *generated* menus on randomised network states, not
hand-built ones: convexity, deadline monotonicity, and the no-benefit-
from-splitting property that underpin the truthfulness argument.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (ByteRequest, NetworkState, PretiumConfig,
                        RequestAdmission)
from repro.network import parallel_paths_network, wan_topology


def build_ra(seed: int, n_steps: int = 8):
    """A small WAN with randomised prices and partial reservations."""
    rng = np.random.default_rng(seed)
    topology = wan_topology(n_nodes=8, n_regions=2, seed=seed)
    config = PretiumConfig(window=n_steps, lookback=n_steps,
                           initial_price=0.1)
    state = NetworkState(topology, n_steps, config)
    state.prices[:] = rng.uniform(0.01, 2.0,
                                  size=state.prices.shape)
    # Randomly pre-reserve some capacity.
    for _ in range(10):
        link = int(rng.integers(0, topology.num_links))
        t = int(rng.integers(0, n_steps))
        state.reserved[t, link] = float(
            rng.uniform(0, state.capacity[t, link]))
    return topology, state, RequestAdmission(state)


def random_pair(topology, rng):
    nodes = topology.nodes
    i, j = rng.choice(len(nodes), size=2, replace=False)
    return nodes[int(i)], nodes[int(j)]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_generated_menus_are_convex(seed):
    rng = np.random.default_rng(seed)
    topology, state, ra = build_ra(seed)
    src, dst = random_pair(topology, rng)
    request = ByteRequest(1, src, dst, 200.0, 0, 0, 5, 1.0)
    menu = ra.quote(request, now=0)
    prices = [segment.unit_price for segment in menu.segments]
    assert prices == sorted(prices)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       d1=st.integers(min_value=0, max_value=3),
       d2=st.integers(min_value=4, max_value=7))
def test_longer_deadline_pointwise_cheaper(seed, d1, d2):
    """p_loose(x) <= p_tight(x) for all x — the Theorem 5.1 lever."""
    rng = np.random.default_rng(seed)
    topology, state, ra = build_ra(seed)
    src, dst = random_pair(topology, rng)
    tight = ByteRequest(1, src, dst, 300.0, 0, 0, d1, 1.0)
    loose = ByteRequest(2, src, dst, 300.0, 0, 0, d2, 1.0)
    menu_tight = ra.quote(tight, now=0)
    menu_loose = ra.quote(loose, now=0)
    assert menu_loose.max_guaranteed >= menu_tight.max_guaranteed - 1e-9
    for x in np.linspace(0.0, menu_tight.max_guaranteed, 7):
        assert menu_loose.price(float(x)) <= \
            menu_tight.price(float(x)) + 1e-6


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       fraction=st.floats(min_value=0.2, max_value=0.8))
def test_splitting_never_cheaper(seed, fraction):
    """Submitting two sub-requests costs at least the single request.

    The second half is quoted *after* the first is admitted, so it faces
    weakly higher prices (the Theorem 5.1 multiple-requests argument).
    """
    rng = np.random.default_rng(seed)
    topology, state, ra = build_ra(seed)
    src, dst = random_pair(topology, rng)
    demand = 60.0
    whole = ByteRequest(1, src, dst, demand, 0, 0, 5, 10.0)
    menu_whole = ra.quote(whole, now=0)
    buyable = min(demand, menu_whole.max_guaranteed)
    if buyable < 1e-6:
        return
    single_price = menu_whole.price(buyable)

    first = ByteRequest(2, src, dst, buyable * fraction, 0, 0, 5, 10.0)
    menu_first = ra.quote(first, now=0)
    bought_first = min(first.demand, menu_first.max_guaranteed)
    ra.admit(first, menu_first, bought_first, now=0)
    second = ByteRequest(3, src, dst, buyable - bought_first, 0, 0, 5, 10.0)
    menu_second = ra.quote(second, now=0)
    bought_second = min(second.demand, menu_second.max_guaranteed)
    split_price = menu_first.price(bought_first) + \
        menu_second.price(bought_second)
    served_split = bought_first + bought_second
    # Compare at equal served volume: the split never serves more volume
    # for less money.
    assert served_split <= buyable + 1e-6
    assert split_price >= menu_whole.price(served_split) - 1e-6


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_guarantee_bound_respects_capacity(seed):
    """x-bar never exceeds what the window's bottleneck allows."""
    rng = np.random.default_rng(seed)
    topology, state, ra = build_ra(seed)
    src, dst = random_pair(topology, rng)
    request = ByteRequest(1, src, dst, 10 ** 6, 0, 0, 7, 1.0)
    menu = ra.quote(request, now=0)
    # upper bound: total residual out-capacity of the source
    out_capacity = sum(
        max(0.0, state.capacity[t, link.index] - state.reserved[t, link.index])
        for link in topology.links if link.src == src
        for t in range(8))
    assert menu.max_guaranteed <= out_capacity + 1e-6


def test_menu_segments_carry_reservable_paths():
    topology = parallel_paths_network(10.0, 10.0)
    config = PretiumConfig(window=4, lookback=4)
    state = NetworkState(topology, 4, config)
    ra = RequestAdmission(state)
    request = ByteRequest(1, "S", "T", 100.0, 0, 0, 3, 5.0)
    menu = ra.quote(request, now=0)
    for segment in menu.segments:
        assert segment.path.src == "S"
        assert segment.path.dst == "T"
        assert 0 <= segment.timestep <= 3
