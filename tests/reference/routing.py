"""networkx's ``shortest_simple_paths`` on a freshly built graph: the
rebuild-per-call route computation ``src/`` had before the compiled
routing plane, and the oracle that plane's own replica of networkx's
search is held to (see DESIGN, "Routing plane")."""

from itertools import islice

import networkx as nx

from repro.network.paths import Path


def fresh_graph(topology) -> nx.DiGraph:
    """A new, unshared ``DiGraph`` in the topology's insertion order."""
    graph = nx.DiGraph()
    graph.add_nodes_from(topology.nodes)
    for link in topology.links:
        graph.add_edge(link.src, link.dst, index=link.index,
                       capacity=link.capacity, metered=link.metered,
                       cost_per_unit=link.cost_per_unit)
    return graph


def k_shortest_paths(topology, src, dst, k=3, graph=None) -> list[Path]:
    """Up to ``k`` fewest-hop simple paths on a freshly built graph.

    ``graph`` lets an all-pairs comparison build the fresh graph once
    per topology instead of once per pair; it is never the shared one.
    """
    graph = fresh_graph(topology) if graph is None else graph
    try:
        node_paths = list(islice(
            nx.shortest_simple_paths(graph, src, dst), k))
    except nx.NetworkXNoPath:
        return []
    paths = []
    for node_path in node_paths:
        links = tuple(topology.link_between(u, v)
                      for u, v in zip(node_path, node_path[1:]))
        paths.append(Path(links))
    return paths


def policy_routes(found, policy, k=None, extended=(), dead=()):
    """``PathCache.routes(src, dst)`` (no rid) from reference candidates.

    ``found`` is the pair's reference ``k`` shortest; after a
    ``refresh(dead=...)`` on a dynamic policy, ``extended`` is its
    reference ``k + len(dead)`` shortest.
    """
    dead = {tuple(pair) for pair in dead}
    if dead and policy != "kpaths":
        live = [path for path in extended
                if not any((link.src, link.dst) in dead
                           for link in path.links)][:k]
        found = live or found
    if policy == "ecmp" and found:
        min_hops = min(path.hop_count for path in found)
        found = [path for path in found if path.hop_count == min_hops]
    return list(found)
