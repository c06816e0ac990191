"""Differential tests: heap-based RA quote vs the reference scan
(``tests/reference/quote.py``).

The heap path must reproduce the reference menu *exactly* — same
segments, same volumes, prices, paths, timesteps, in the same order —
for any state, because contracts and settlement are built from the menu.
"""

import random

import numpy as np
import pytest

from repro.core import (ByteRequest, NetworkState, PretiumConfig,
                        RequestAdmission)
from repro.network import parallel_paths_network, small_wan
from repro.telemetry import get_registry
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

