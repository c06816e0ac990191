"""Property-based tests of the degraded (fallback) quoting path.

The fallback menu from :meth:`RequestAdmission.quote_degraded` is what
customers see while the primary quoting machinery is down, so it must
keep the menu invariants that settlement and the truthfulness argument
rely on: convexity, non-negative prices, guarantees bounded by demand
and capacity.  (Deadline monotonicity is deliberately *not* asserted:
the fallback picks one route by cheapest-step price, and a longer
deadline can flip that route choice.)
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ByteRequest, NetworkState, PretiumConfig, \
    RequestAdmission
from repro.network import wan_topology


def build_ra(seed: int, n_steps: int = 8):
    """A small WAN with randomised prices and partial reservations."""
    rng = np.random.default_rng(seed)
    topology = wan_topology(n_nodes=8, n_regions=2, seed=seed)
    config = PretiumConfig(window=n_steps, lookback=n_steps,
                           initial_price=0.1)
    state = NetworkState(topology, n_steps, config)
    state.prices[:] = rng.uniform(0.01, 2.0, size=state.prices.shape)
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
def test_degraded_menus_are_convex_with_nonnegative_prices(seed):
    rng = np.random.default_rng(seed)
    topology, state, ra = build_ra(seed)
    src, dst = random_pair(topology, rng)
    request = ByteRequest(1, src, dst, 200.0, 0, 0, 5, 1.0)
    menu = ra.quote_degraded(request, now=0)
    prices = [segment.unit_price for segment in menu.segments]
    assert prices == sorted(prices)
    assert all(price >= 0.0 for price in prices)
    assert all(segment.quantity > 0.0 for segment in menu.segments)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       demand=st.floats(min_value=0.5, max_value=5000.0))
def test_degraded_guarantee_bounded_by_demand_and_capacity(seed, demand):
    rng = np.random.default_rng(seed)
    topology, state, ra = build_ra(seed)
    src, dst = random_pair(topology, rng)
    request = ByteRequest(1, src, dst, demand, 0, 0, 7, 1.0)
    menu = ra.quote_degraded(request, now=0)
    assert menu.max_guaranteed <= demand + 1e-6
    # upper bound: total residual out-capacity of the source
    out_capacity = sum(
        max(0.0, state.capacity[t, link.index]
            - state.reserved[t, link.index])
        for link in topology.links if link.src == src
        for t in range(8))
    assert menu.max_guaranteed <= out_capacity + 1e-6


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       fraction=st.floats(min_value=0.1, max_value=0.9))
def test_degraded_price_curve_is_a_demand_prefix(seed, fraction):
    """Quoting a smaller demand yields a prefix of the same curve.

    The fallback sells the same cheapest-first steps whatever the
    demand, so p_small(x) == p_large(x) for x within the small demand —
    a customer cannot game the degraded window by shrinking requests.
    """
    rng = np.random.default_rng(seed)
    topology, state, ra = build_ra(seed)
    src, dst = random_pair(topology, rng)
    large = ByteRequest(1, src, dst, 400.0, 0, 0, 6, 1.0)
    small = ByteRequest(2, src, dst, 400.0 * fraction, 0, 0, 6, 1.0)
    menu_large = ra.quote_degraded(large, now=0)
    menu_small = ra.quote_degraded(small, now=0)
    assert menu_small.max_guaranteed <= menu_large.max_guaranteed + 1e-9
    for x in np.linspace(0.0, menu_small.max_guaranteed, 7):
        assert abs(menu_small.price(float(x))
                   - menu_large.price(float(x))) <= 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_degraded_admission_respects_capacity(seed):
    """Admitting along degraded menus never over-reserves a link."""
    rng = np.random.default_rng(seed)
    topology, state, ra = build_ra(seed)
    nodes = topology.nodes
    for rid in range(1, 6):
        i, j = rng.choice(len(nodes), size=2, replace=False)
        request = ByteRequest(rid, nodes[int(i)], nodes[int(j)],
                              float(rng.uniform(10.0, 500.0)), 0, 0, 7, 1.0)
        menu = ra.quote_degraded(request, now=0)
        chosen = min(request.demand, menu.max_guaranteed)
        if chosen > 1e-9:
            ra.admit(request, menu, chosen, now=0)
    assert np.all(state.reserved <= state.capacity + 1e-6)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_degraded_and_primary_settle_identically(seed):
    """Both quote paths produce menus the same settlement code accepts."""
    rng = np.random.default_rng(seed)
    topology, state, ra = build_ra(seed)
    src, dst = random_pair(topology, rng)
    request = ByteRequest(1, src, dst, 150.0, 0, 0, 5, 1.0)
    for menu in (ra.quote(request, now=0),
                 ra.quote_degraded(request, now=0)):
        x = min(request.demand, menu.max_guaranteed)
        # price() is finite, monotone and zero at zero on both paths
        assert menu.price(0.0) == 0.0
        assert menu.price(x) >= 0.0
        assert menu.price(x) >= menu.price(x * 0.5) - 1e-9
