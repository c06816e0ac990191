"""Synthetic WAN topology generators.

The paper evaluates on a production inter-datacenter WAN with 106 nodes and
226 (undirected) edges, around 15% of which are metered (billed on 95th
percentile usage).  The trace itself is proprietary, so this module builds
WAN-*shaped* synthetic topologies: datacenters clustered into geographic
regions, dense intra-region meshes, sparse high-capacity inter-region
trunks, and a configurable metered fraction.  ``production_wan()`` is the
preset matching the paper's published scale.

All generators are deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from .regions import region_name
from .topology import Topology


def wan_topology(n_nodes: int = 20,
                 n_regions: int = 4,
                 intra_degree: float = 3.0,
                 inter_links_per_pair: int = 2,
                 intra_capacity: float = 100.0,
                 inter_capacity: float = 60.0,
                 metered_fraction: float = 0.15,
                 metered_cost: float = 1.0,
                 capacity_jitter: float = 0.25,
                 seed: int = 0,
                 name: str = "synthetic-wan") -> Topology:
    """Build a region-structured synthetic WAN.

    Parameters
    ----------
    n_nodes:
        Total datacenter count, split round-robin across ``n_regions``.
    intra_degree:
        Target average undirected degree inside a region (a random spanning
        tree guarantees connectivity, then extra chords are added).
    inter_links_per_pair:
        Undirected trunk count between each pair of adjacent regions
        (regions are arranged on a ring plus a few random shortcuts).
    metered_fraction:
        Fraction of undirected edges billed on 95th-percentile usage; the
        paper reports ~15% on the production WAN.  Inter-region trunks are
        preferentially metered, matching the paper's note that metered
        links are "typically purchased from upstream providers".
    metered_cost:
        Mean ``C_e`` for metered links (lognormal jitter around it).
    capacity_jitter:
        Relative stddev of capacity noise.

    Returns a strongly connected :class:`Topology` with region labels.
    """
    if n_nodes < 2:
        raise ValueError("need at least two datacenters")
    n_regions = max(1, min(n_regions, n_nodes))
    rng = np.random.default_rng(seed)
    topology = Topology(name=name)

    regions: list[list[str]] = [[] for _ in range(n_regions)]
    for i in range(n_nodes):
        region_idx = i % n_regions
        node = f"dc{i:03d}"
        topology.add_node(node, region=region_name(region_idx))
        regions[region_idx].append(node)

    def jittered(base: float) -> float:
        return max(base * 0.2,
                   float(base * (1.0 + capacity_jitter * rng.standard_normal())))

    undirected_edges: list[tuple[str, str, float, bool]] = []
    seen: set[tuple[str, str]] = set()

    def propose(u: str, v: str, capacity: float, trunk: bool) -> None:
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            undirected_edges.append((u, v, capacity, trunk))

    # Intra-region: random spanning tree + chords up to the target degree.
    for members in regions:
        if len(members) == 1:
            continue
        order = list(rng.permutation(members))
        for i in range(1, len(order)):
            attach = order[int(rng.integers(0, i))]
            propose(order[i], attach, jittered(intra_capacity), trunk=False)
        target_edges = int(round(intra_degree * len(members) / 2.0))
        attempts = 0
        while (sum(1 for u, v, _, t in undirected_edges
                   if not t and topology.region_of(u) == topology.region_of(members[0])
                   and topology.region_of(v) == topology.region_of(members[0]))
               < target_edges and attempts < 20 * target_edges):
            u, v = rng.choice(members, size=2, replace=False)
            propose(str(u), str(v), jittered(intra_capacity), trunk=False)
            attempts += 1

    # Inter-region: ring of trunks plus random shortcuts.
    region_pairs = [(i, (i + 1) % n_regions) for i in range(n_regions)] \
        if n_regions > 1 else []
    n_shortcuts = max(0, n_regions - 3)
    for _ in range(n_shortcuts):
        i, j = rng.choice(n_regions, size=2, replace=False)
        region_pairs.append((int(i), int(j)))
    for i, j in region_pairs:
        if i == j:
            continue
        for _ in range(inter_links_per_pair):
            u = str(rng.choice(regions[i]))
            v = str(rng.choice(regions[j]))
            propose(u, v, jittered(inter_capacity), trunk=True)

    # Choose metered edges: trunks first, then random fill to the target.
    n_metered = int(round(metered_fraction * len(undirected_edges)))
    trunk_ids = [idx for idx, (_, _, _, t) in enumerate(undirected_edges) if t]
    other_ids = [idx for idx, (_, _, _, t) in enumerate(undirected_edges)
                 if not t]
    rng.shuffle(trunk_ids)
    rng.shuffle(other_ids)
    metered_ids = set((trunk_ids + other_ids)[:n_metered])

    for idx, (u, v, capacity, _) in enumerate(undirected_edges):
        metered = idx in metered_ids
        cost = float(metered_cost * rng.lognormal(mean=0.0, sigma=0.35)) \
            if metered else 0.0
        topology.add_duplex_link(u, v, capacity, metered=metered,
                                 cost_per_unit=cost)

    _ensure_strongly_connected(topology, intra_capacity)
    return topology


def _ensure_strongly_connected(topology: Topology, capacity: float) -> None:
    """Patch rare disconnected generations with a low-capacity ring."""
    if topology.is_strongly_connected():
        return
    nodes = topology.nodes
    for u, v in zip(nodes, nodes[1:] + nodes[:1]):
        if not topology.has_link(u, v):
            topology.add_link(u, v, capacity * 0.5)
        if not topology.has_link(v, u):
            topology.add_link(v, u, capacity * 0.5)


def production_wan(seed: int = 0) -> Topology:
    """The paper's published scale: 106 nodes, ~226 undirected edges.

    Six regions (the geographies of Table 2), ~15% metered edges.  The edge
    count is matched by tuning the intra-region degree; the generator
    asserts it lands within a few percent of 226.
    """
    topology = wan_topology(
        n_nodes=106, n_regions=6, intra_degree=3.55, inter_links_per_pair=3,
        intra_capacity=100.0, inter_capacity=60.0, metered_fraction=0.15,
        seed=seed, name="production-wan")
    undirected = topology.num_links // 2
    if not 190 <= undirected <= 260:
        raise AssertionError(
            f"production preset drifted: {undirected} undirected edges")
    return topology


def figure2_network() -> Topology:
    """The 4-node example of the paper's Figure 2.

    Nodes A, B, C, D; links (A,B), (A,C), (C,D), every capacity 2 units per
    timestep.  Requests: R1 A->B (v=8, d=2, window [0,1]), R2 A->B (v=4,
    d=2, [0,2]), R3 A->D (v=4, d=2, [0,1]), R4 C->D (v=1, d=4, [0,2]).
    """
    topology = Topology(name="figure2")
    topology.add_link("A", "B", capacity=2.0)
    topology.add_link("A", "C", capacity=2.0)
    topology.add_link("C", "D", capacity=2.0)
    return topology


def parallel_paths_network(capacity_top: float = 10.0,
                           capacity_bottom: float = 10.0) -> Topology:
    """Two disjoint 2-hop paths S->T (via M1 and M2) for multipath tests."""
    topology = Topology(name="parallel")
    topology.add_link("S", "M1", capacity_top)
    topology.add_link("M1", "T", capacity_top)
    topology.add_link("S", "M2", capacity_bottom)
    topology.add_link("M2", "T", capacity_bottom)
    return topology
