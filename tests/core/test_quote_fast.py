"""Differential tests: heap-based RA quote vs the reference scan
(``tests/reference/quote.py``).

The heap path must reproduce the reference menu *exactly* — same
segments, same volumes, prices, paths, timesteps, in the same order —
for any state, because contracts and settlement are built from the menu.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import (ByteRequest, NetworkState, PretiumConfig,
                        RequestAdmission)
from repro.network import (ROUTING_POLICIES, Topology, line_network,
                           parallel_paths_network, small_wan)
from repro.telemetry import get_registry, use_registry
from tests.reference.quote import quote_scan


def exact_key(menu):
    return [(s.quantity, s.unit_price, s.path.link_indices(), s.timestep)
            for s in menu.segments]


def make_state(topology, n_steps=12, **config_kwargs):
    defaults = dict(window=6, lookback=6)
    defaults.update(config_kwargs)
    return NetworkState(topology, n_steps, PretiumConfig(**defaults))


def test_heap_quote_matches_scan_simple():
    state = make_state(parallel_paths_network(10.0, 6.0))
    ra = RequestAdmission(state)
    req = ByteRequest(1, "S", "T", 40.0, 0, 0, 5, 1.0)
    heap_menu = ra.quote(req, now=0)
    scan_menu = quote_scan(state, req, now=0)
    assert exact_key(heap_menu) == exact_key(scan_menu)
    assert heap_menu.segments  # non-trivial menu


@pytest.mark.parametrize("short_term", [True, False])
def test_heap_quote_matches_scan_randomised(short_term):
    rng = random.Random(5)
    topo = small_wan(seed=6)
    state = make_state(topo, n_steps=18, short_term_adjustment=short_term)
    ra = RequestAdmission(state)
    nodes = list(topo.nodes)
    n_segments = 0
    for rid in range(60):
        src, dst = rng.sample(nodes, 2)
        start = rng.randrange(0, 12)
        deadline = min(17, start + rng.randrange(1, 8))
        req = ByteRequest(rid, src, dst, rng.uniform(1.0, 50.0), 0,
                          start, deadline, 1.0)
        heap_menu = ra.quote(req, now=min(start, 11))
        scan_menu = quote_scan(state, req, now=min(start, 11))
        assert exact_key(heap_menu) == exact_key(scan_menu), f"rid={rid}"
        n_segments += len(heap_menu.segments)
        # Admit some so later quotes see non-trivial reservations.
        if rid % 3 == 0 and heap_menu.segments:
            ra.admit(req, heap_menu, req.demand / 2.0, now=min(start, 11))
    assert n_segments > 40  # the comparison actually exercised segments


def test_heap_quote_price_monotone_and_demand_capped():
    state = make_state(parallel_paths_network(8.0, 8.0))
    ra = RequestAdmission(state)
    req = ByteRequest(7, "S", "T", 30.0, 0, 0, 3, 1.0)
    menu = ra.quote(req, now=0)
    prices = [s.unit_price for s in menu.segments]
    assert prices == sorted(prices)
    assert sum(s.quantity for s in menu.segments) <= req.demand + 1e-9


def test_heap_quote_empty_cases_match_scan():
    state = make_state(parallel_paths_network(8.0, 8.0))
    ra = RequestAdmission(state)
    # Window entirely before `now` has no steps left.
    req = ByteRequest(1, "S", "T", 5.0, 0, 0, 2, 1.0)
    assert exact_key(ra.quote(req, now=11)) == \
        exact_key(quote_scan(state, req, now=11))
    assert not ra.quote(req, now=11).segments


def test_heap_counters_increment():
    registry = get_registry()
    before = registry.counter("ra.quote.heap_pops").value
    state = make_state(parallel_paths_network(10.0, 6.0))
    ra = RequestAdmission(state)
    ra.quote(ByteRequest(1, "S", "T", 40.0, 0, 0, 5, 1.0), now=0)
    assert registry.counter("ra.quote.heap_pops").value > before



def test_heap_quote_matches_scan_on_long_paths():
    """The price contract: a path's price is the left-to-right sum of its
    links' prices, in path order.  ``ndarray.sum`` adds eight or more
    contiguous elements pairwise, which lands one ulp away on a 10-link
    route — and only on *repriced* entries, so demands exceed what the
    cheap segments hold."""
    rng = np.random.default_rng(11)
    state = make_state(line_network(11, capacity=10.0))
    ra = RequestAdmission(state)
    repriced = 0
    for rid in range(50):
        state.set_prices(0, rng.uniform(0.5, 3.0, state.prices.shape))
        req = ByteRequest(rid, "n0", "n10", rng.uniform(150.0, 230.0), 0,
                          0, 11, 1.0)
        heap_menu = ra.quote(req, now=0)
        assert exact_key(heap_menu) == \
            exact_key(quote_scan(state, req, now=0)), f"rid={rid}"
        assert heap_menu.segments[0].path.hop_count == 10
        repriced += len(heap_menu.segments) - 12
    assert repriced > 0  # second segments of a step: repriced, then popped


def chain_with_chords(chords):
    """c0 -> ... -> c9 (a 9-link chain, both directions) plus chords."""
    topology = Topology(name="chain-with-chords")
    pairs = [(i, i + 1) for i in range(9)] + sorted(chords)
    for i, j in pairs:
        topology.add_link(f"c{i}", f"c{j}", 10.0)
        topology.add_link(f"c{j}", f"c{i}", 10.0)
    return topology


@settings(max_examples=60, deadline=None)
@given(chords=st.sets(st.tuples(st.integers(0, 6), st.integers(2, 9))
                      .filter(lambda pair: pair[1] - pair[0] >= 2),
                      max_size=3),
       short_term=st.booleans(),
       policy=st.sampled_from(ROUTING_POLICIES),
       seed=st.integers(0, 2**32 - 1))
def test_heap_quote_properties(chords, short_term, policy, seed):
    """Exact against the scan, read-only on the state, plain Python
    numbers in the menu — over random topologies holding an 8+-link
    chain, prices, reservations and failed links, under every routing
    policy and both short-term settings."""
    rng = random.Random(seed)
    topo = chain_with_chords(chords)
    state = make_state(topo, n_steps=10, routing=policy,
                       short_term_adjustment=short_term)
    state.set_prices(0, np.random.default_rng(seed).uniform(
        0.1, 4.0, state.prices.shape))
    for _ in range(rng.randrange(0, 30)):
        link, t = rng.randrange(topo.num_links), rng.randrange(10)
        room = state.capacity[t, link] - state.reserved[t, link]
        state.reserve(10_000, (link,), t, rng.uniform(0.0, 1.0) * room)
    for _ in range(rng.randrange(0, 3)):
        link = topo.link(rng.randrange(topo.num_links))
        start = rng.randrange(10)
        state.fail_link(link.src, link.dst, start,
                        rng.randrange(start, 11))
    before = [array.tobytes() for array in
              (state.reserved, state.prices, state.link_versions)]
    ra = RequestAdmission(state)
    for rid in range(6):
        src, dst = (0, 9) if rid == 0 else sorted(rng.sample(range(10), 2))
        start = rng.randrange(0, 9)
        req = ByteRequest(rid, f"c{src}", f"c{dst}",
                          rng.uniform(1.0, 120.0), 0, start,
                          rng.randrange(start, 10), 1.0)
        now = rng.randrange(0, start + 2)
        heap_menu = ra.quote(req, now=now)
        assert exact_key(heap_menu) == \
            exact_key(quote_scan(state, req, now=now))
        for segment in heap_menu.segments:
            assert type(segment.timestep) is int
            assert type(segment.quantity) is float
            assert type(segment.unit_price) is float
    assert before == [array.tobytes() for array in
                      (state.reserved, state.prices, state.link_versions)]


def segment_links(menu):
    return {index for s in menu.segments for index in s.path.link_indices()}


def test_flowlet_repin_after_link_failure_gets_the_new_routes_shape():
    """A kill bumps the epoch and re-pins the flowlet: the second quote
    must be compiled from the *new* route, never the dead one's shape."""
    state = make_state(parallel_paths_network(10.0, 6.0), routing="flowlet")
    ra = RequestAdmission(state)
    req = ByteRequest(4, "S", "T", 30.0, 0, 0, 5, 1.0)
    [old] = state.paths.routes("S", "T", rid=req.rid)
    first = ra.quote(req, now=0)
    assert segment_links(first) == set(old.link_indices())
    state.fail_link(old.links[0].src, old.links[0].dst, 0)
    [new] = state.paths.routes("S", "T", rid=req.rid)
    assert new != old
    second = ra.quote(req, now=0)
    assert exact_key(second) == exact_key(quote_scan(state, req, now=0))
    assert second.segments
    assert segment_links(second) == set(new.link_indices())
    assert not segment_links(second) & set(old.link_indices())


def test_ecmp_min_hop_set_change_gets_the_new_routes_shape():
    topo = Topology(name="direct-or-detour")
    topo.add_link("S", "T", 10.0)
    topo.add_link("S", "M", 10.0)
    topo.add_link("M", "T", 10.0)
    state = make_state(topo, routing="ecmp")
    ra = RequestAdmission(state)
    req = ByteRequest(1, "S", "T", 30.0, 0, 0, 5, 1.0)
    direct = topo.link_between("S", "T").index
    assert segment_links(ra.quote(req, now=0)) == {direct}
    state.fail_link("S", "T", 0)
    menu = ra.quote(req, now=0)
    assert exact_key(menu) == exact_key(quote_scan(state, req, now=0))
    assert menu.segments and direct not in segment_links(menu)
    assert all(s.path.hop_count == 2 for s in menu.segments)


def test_heap_traffic_of_a_pinned_run_is_unchanged():
    """Same work, counted: how a pop is priced changed, not how many
    there are (numbers measured on the commit before the float kernel)."""
    with use_registry() as registry:
        repro.run("Pretium", repro.ScenarioSpec.of("tiny").build(seed=0))
        assert registry.counter("ra.quote.heap_pops").value == 136
        assert registry.counter("ra.quote.heap_invalidations").value == 12


def test_one_head_price_grid_call_per_quote(monkeypatch):
    state = make_state(parallel_paths_network(10.0, 6.0))
    calls = []
    grid = state.head_price_grid
    monkeypatch.setattr(state, "head_price_grid",
                        lambda *args: calls.append(args) or grid(*args))
    menu = RequestAdmission(state).quote(
        ByteRequest(1, "S", "T", 80.0, 0, 0, 5, 1.0), now=0)
    assert len(menu.segments) > 6
    assert len(calls) == 1
