"""Tests for the synthetic WAN generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (figure2_network, is_inter_region,
                           parallel_paths_network, production_wan,
                           wan_topology)
from tests.builders import line_network, small_wan


def test_small_wan_shape():
    t = small_wan(seed=1)
    assert t.num_nodes == 20
    assert t.is_strongly_connected()
    assert len(set(t.regions().values())) == 4


def test_wan_determinism():
    a = wan_topology(n_nodes=15, seed=7)
    b = wan_topology(n_nodes=15, seed=7)
    assert [l.key for l in a.links] == [l.key for l in b.links]
    assert [l.capacity for l in a.links] == [l.capacity for l in b.links]


def test_wan_seed_changes_topology():
    a = wan_topology(n_nodes=15, seed=1)
    b = wan_topology(n_nodes=15, seed=2)
    assert ([l.key for l in a.links] != [l.key for l in b.links]
            or [l.capacity for l in a.links] != [l.capacity for l in b.links])


def test_wan_metered_fraction_roughly_respected():
    t = wan_topology(n_nodes=40, n_regions=4, metered_fraction=0.2, seed=3)
    metered_undirected = len(t.metered_links()) / 2
    total_undirected = t.num_links / 2
    assert metered_undirected / total_undirected == pytest.approx(0.2,
                                                                  abs=0.05)


def test_wan_metered_links_have_costs():
    t = wan_topology(n_nodes=20, seed=5)
    for link in t.metered_links():
        assert link.cost_per_unit > 0
    for link in t.links:
        if not link.metered:
            assert link.cost_per_unit == 0.0


def test_wan_rejects_tiny():
    with pytest.raises(ValueError):
        wan_topology(n_nodes=1)


def test_production_wan_scale():
    t = production_wan(seed=0)
    assert t.num_nodes == 106
    undirected = t.num_links // 2
    assert 190 <= undirected <= 260
    assert t.is_strongly_connected()
    metered_share = len(t.metered_links()) / t.num_links
    assert metered_share == pytest.approx(0.15, abs=0.05)


def test_figure2_network():
    t = figure2_network()
    assert set(t.nodes) == {"A", "B", "C", "D"}
    assert t.num_links == 3
    assert all(l.capacity == 2.0 for l in t.links)


def test_line_and_parallel_helpers():
    line = line_network(5, capacity=3.0)
    assert line.num_links == 4
    assert all(l.capacity == 3.0 for l in line.links)
    par = parallel_paths_network(4.0, 6.0)
    assert par.link_between("S", "M1").capacity == 4.0
    assert par.link_between("S", "M2").capacity == 6.0


def test_inter_region_classification():
    t = wan_topology(n_nodes=12, n_regions=3, seed=2)
    groups = {}
    for node, region in t.regions().items():
        groups.setdefault(region, []).append(node)
    regions = list(groups)
    same = groups[regions[0]]
    assert not is_inter_region(t, same[0], same[1])
    other = groups[regions[1]][0]
    assert is_inter_region(t, same[0], other)


@settings(max_examples=10, deadline=None)
@given(n_nodes=st.integers(min_value=4, max_value=30),
       n_regions=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=100))
def test_wan_always_strongly_connected(n_nodes, n_regions, seed):
    t = wan_topology(n_nodes=n_nodes, n_regions=n_regions, seed=seed)
    assert t.is_strongly_connected()
    assert all(l.capacity > 0 for l in t.links)
