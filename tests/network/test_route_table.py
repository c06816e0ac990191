"""The compiled routing plane returns exactly what a rebuild-per-call
computation on a fresh graph returns (DESIGN, "Routing plane").

Path order is load-bearing: calibration scale, flowlet pins and every
seed-0 pin hang off it, so the comparison is sequence equality on the
links themselves, not set equality on node names.
"""

import networkx as nx
import pytest

from repro.experiments.scenarios import (production_scenario, production_wan,
                                         standard_topology)
from repro.network import (ROUTING_POLICIES, PathCache, Topology,
                           k_shortest_paths, wan_topology)
from tests.reference import routing as reference

TOPOLOGIES = {
    "wan106": lambda: production_wan(seed=0),
    "dense16": lambda: standard_topology(seed=0),
    "metro10": lambda: wan_topology(n_nodes=10, n_regions=2,
                                    metered_fraction=0.2, metered_cost=25.0,
                                    seed=0),
}
SMALL = ("dense16", "metro10")


def pairs_of(topology):
    return [(src, dst) for src in topology.nodes for dst in topology.nodes
            if src != dst]


def links_of(paths):
    """Link tuples: ``Path.__eq__`` compares indices only, this also
    catches a link object carried over from another topology."""
    return [path.links for path in paths]


def assert_matches_reference(topology, ks=(1, 3, 5), dead=()):
    """Store and policy views == the reference, for every ordered pair.

    The reference runs once per pair at the longest length needed and is
    sliced per ``k`` (:func:`test_the_reference_is_prefix_consistent`
    licenses that); the store is asked for each ``k`` in the order given.
    """
    graph = reference.fresh_graph(topology)
    caches = [PathCache(topology, k, policy)
              for k in ks for policy in ROUTING_POLICIES]
    for cache in caches:
        cache.refresh(dead)
    for src, dst in pairs_of(topology):
        longest = reference.k_shortest_paths(
            topology, src, dst, max(ks) + len(dead), graph)
        for k in ks:
            assert links_of(k_shortest_paths(topology, src, dst, k)) == \
                links_of(longest[:k]), (src, dst, k)
        for cache in caches:
            k = cache.k
            assert links_of(cache.routes(src, dst)) == links_of(
                reference.policy_routes(longest[:k], cache.policy, k,
                                        longest[:k + len(dead)], dead)), \
                (src, dst, k, cache.policy)


def test_the_reference_is_prefix_consistent():
    topology = TOPOLOGIES["dense16"]()
    for src, dst in pairs_of(topology):
        five = reference.k_shortest_paths(topology, src, dst, 5)
        for k in (1, 3):
            assert reference.k_shortest_paths(topology, src, dst, k) == \
                five[:k]


@pytest.mark.parametrize("name, ks", [("wan106", (1, 5, 3)),
                                      ("dense16", (1, 3, 5)),
                                      ("metro10", (1, 3, 5))])
def test_every_pair_k_and_policy_matches_the_reference(name, ks):
    # A run asks 1 (calibration), 3 (NetworkState), then more (a
    # refresh): each answer extends a stored prefix.  The 106-node world
    # asks 1 -> 5 -> 3 instead (extend once, then slice), which halves
    # its share of tier-1; the growing order is covered by the other two.
    assert_matches_reference(TOPOLOGIES[name](), ks)


@pytest.mark.parametrize("name", SMALL)
def test_shorter_queries_slice_the_stored_candidates(name):
    assert_matches_reference(TOPOLOGIES[name](), ks=(5, 3, 1))


@pytest.mark.parametrize("name", SMALL)
def test_refresh_routes_around_dead_links_like_the_reference(name):
    topology = TOPOLOGIES[name]()
    dead = [topology.links[0].key, topology.links[7].key]
    assert_matches_reference(topology, ks=(1, 3), dead=dead)


def test_add_link_drops_the_compiled_plane():
    topology = TOPOLOGIES["metro10"]()
    assert_matches_reference(topology, ks=(3,))          # warm every pair
    stale = topology.to_networkx()
    src, dst = next((s, d) for s, d in pairs_of(topology)
                    if not topology.has_link(s, d))
    before = k_shortest_paths(topology, src, dst, 1)
    topology.add_link(src, dst, capacity=5.0)
    assert topology.route_table is None
    assert topology.to_networkx() is not stale
    assert topology.to_networkx().has_edge(src, dst)
    after = k_shortest_paths(topology, src, dst, 1)
    assert before[0].hop_count > 1 and after[0].hop_count == 1
    assert_matches_reference(topology)


def test_add_node_drops_the_compiled_plane_but_a_region_label_does_not():
    topology = TOPOLOGIES["metro10"]()
    graph = topology.to_networkx()
    topology.add_node(topology.nodes[0], region="relabelled")
    assert topology.to_networkx() is graph
    topology.add_node("island")
    assert "island" in topology.to_networkx()
    assert k_shortest_paths(topology, topology.nodes[0], "island", 2) == []


def test_scaled_copy_compiles_its_own_plane():
    topology = TOPOLOGIES["dense16"]()
    assert_matches_reference(topology, ks=(3,))
    copy = topology.scaled_costs(2.0)
    assert copy.route_table is None
    assert copy.to_networkx() is not topology.to_networkx()
    metered = next(link for link in copy.links if link.cost_per_unit > 0)
    assert copy.to_networkx().edges[metered.key]["cost_per_unit"] == \
        2.0 * topology.link(metered.index).cost_per_unit
    assert_matches_reference(copy, ks=(3,))    # the copy's own Link objects


def test_the_shared_graph_is_frozen():
    topology = TOPOLOGIES["metro10"]()
    graph = topology.to_networkx()
    assert topology.to_networkx() is graph
    a, b = topology.nodes[:2]
    for mutate in (lambda: graph.add_edge(a, "x"),
                   lambda: graph.add_node("x"),
                   lambda: graph.remove_node(a),
                   lambda: graph.remove_edge(*topology.links[0].key),
                   graph.clear):
        with pytest.raises(nx.NetworkXError):
            mutate()
    assert k_shortest_paths(topology, a, b, 3)     # and still serves paths


def test_returned_lists_are_private_to_the_caller():
    topology = TOPOLOGIES["metro10"]()
    a, b = topology.nodes[:2]
    first = k_shortest_paths(topology, a, b, 3)
    first.clear()
    assert len(k_shortest_paths(topology, a, b, 3)) == 3
    cache = PathCache(topology, k=3)
    cache.routes(a, b).clear()
    assert len(cache.routes(a, b)) == 3


def test_a_scenario_build_constructs_each_graph_once(monkeypatch):
    built = {}                       # topology id -> distinct graphs handed out
    original = Topology.to_networkx

    def counting(self):
        graph = original(self)
        graphs = built.setdefault(id(self), [])
        if not any(graph is seen for seen in graphs):
            graphs.append(graph)     # kept alive, so identities stay distinct
        return graph

    monkeypatch.setattr(Topology, "to_networkx", counting)
    scenario = production_scenario(seed=0, request_cap=50)
    PathCache(scenario.topology, k=3).warm(
        (r.src, r.dst) for r in scenario.workload.requests)
    assert built and all(len(graphs) == 1 for graphs in built.values())
