"""WAN topology model.

The provider controls a network ``G`` of interconnected datacenters
(paper §3.1).  Each directed :class:`Link` has a per-timestep capacity
``c_e`` (volume units per timestep) and a cost class: *owned* links have a
fixed installation cost that does not enter the welfare objective, while
*metered* links are billed on the 95th percentile of their utilisation
(paper §3.1, "Costs"; around 15% of the production WAN's edges are metered,
§6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True)
class Link:
    """A directed WAN link.

    Attributes
    ----------
    index:
        Dense id, assigned by the topology; used to key utilisation arrays.
    src, dst:
        Endpoint datacenter names.
    capacity:
        Usable volume per timestep (after high-pri headroom is subtracted —
        see :class:`repro.core.state.NetworkState`).
    metered:
        Whether the link is billed on 95th-percentile usage.
    cost_per_unit:
        ``C_e``: cost per unit of the percentile-usage measure (zero for
        owned links).
    """

    index: int
    src: str
    dst: str
    capacity: float
    metered: bool = False
    cost_per_unit: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"link {self.src}->{self.dst}: capacity must be "
                             f"positive, got {self.capacity}")
        if self.cost_per_unit < 0:
            raise ValueError(f"link {self.src}->{self.dst}: negative cost")
        if self.src == self.dst:
            raise ValueError(f"self-loop at {self.src}")

    @property
    def key(self) -> tuple[str, str]:
        """(src, dst) pair identifying the link."""
        return (self.src, self.dst)

    def __repr__(self) -> str:
        tag = "metered" if self.metered else "owned"
        return (f"Link({self.src}->{self.dst}, cap={self.capacity:g}, "
                f"{tag})")


class Topology:
    """A directed multigraph-free WAN topology.

    One link per ordered (src, dst) pair.  Nodes are datacenter names and
    may carry a region label (used by the RegionOracle baseline and the
    generators).
    """

    def __init__(self, name: str = "wan") -> None:
        self.name = name
        self._nodes: list[str] = []
        self._node_set: set[str] = set()
        self._links: list[Link] = []
        self._by_key: dict[tuple[str, str], Link] = {}
        self._out: dict[str, list[Link]] = {}
        self._regions: dict[str, str] = {}
        self._graph = None
        #: Compiled routing plane ``(adjacency, {src: {dst: candidates}},
        #: pairs with no further candidates, {route set: RouteShape})``.
        #: Candidates are filled pair by pair, only for the pairs
        #: :func:`repro.network.paths.k_shortest_paths` is asked about
        #: (calibration's ``first_route_links`` reads the adjacency and
        #: stores no pair); shapes are filled by ``PathCache.shape``,
        #: keyed by the routes' link-index tuples, and shared by every
        #: run over this topology.  The whole plane is dropped with the
        #: networkx view whenever a node or link is added.
        self.route_table: Optional[tuple[tuple, dict, set, dict]] = None

    # -- construction ---------------------------------------------------
    def add_node(self, node: str, region: Optional[str] = None) -> None:
        """Add a datacenter; idempotent. ``region`` is an optional label."""
        if node not in self._node_set:
            self._node_set.add(node)
            self._nodes.append(node)
            self._out[node] = []
            self._graph = self.route_table = None
        if region is not None:
            self._regions[node] = region

    def add_link(self, src: str, dst: str, capacity: float,
                 metered: bool = False, cost_per_unit: float = 0.0) -> Link:
        """Add a directed link; endpoints are auto-registered."""
        self.add_node(src)
        self.add_node(dst)
        if (src, dst) in self._by_key:
            raise ValueError(f"duplicate link {src}->{dst}")
        link = Link(len(self._links), src, dst, capacity, metered,
                    cost_per_unit)
        self._links.append(link)
        self._by_key[(src, dst)] = link
        self._out[src].append(link)
        self._graph = self.route_table = None
        return link

    def add_duplex_link(self, u: str, v: str, capacity: float,
                        metered: bool = False,
                        cost_per_unit: float = 0.0) -> tuple[Link, Link]:
        """Add both directions with identical parameters (typical for WANs)."""
        return (self.add_link(u, v, capacity, metered, cost_per_unit),
                self.add_link(v, u, capacity, metered, cost_per_unit))

    # -- queries ----------------------------------------------------------
    @property
    def nodes(self) -> list[str]:
        """Datacenter names in insertion order."""
        return list(self._nodes)

    @property
    def links(self) -> list[Link]:
        """All directed links, indexed by :attr:`Link.index`."""
        return list(self._links)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def link(self, index: int) -> Link:
        """Link by dense index."""
        return self._links[index]

    def link_between(self, src: str, dst: str) -> Link:
        """The directed link src->dst; raises ``KeyError`` if absent."""
        return self._by_key[(src, dst)]

    def has_link(self, src: str, dst: str) -> bool:
        return (src, dst) in self._by_key

    def metered_links(self) -> list[Link]:
        """Links billed on percentile usage."""
        return [link for link in self._links if link.metered]

    def region_of(self, node: str) -> Optional[str]:
        """Region label of ``node`` (or ``None`` if unlabelled)."""
        return self._regions.get(node)

    def regions(self) -> dict[str, str]:
        """Copy of the node -> region mapping."""
        return dict(self._regions)

    def __iter__(self) -> Iterator[Link]:
        return iter(self._links)

    def __contains__(self, node: str) -> bool:
        return node in self._node_set

    # -- interop ----------------------------------------------------------
    def to_networkx(self):
        """Directed networkx view, for interop (routing does not use it,
        and networkx is imported only here).

        Built once and shared, hence frozen; adding a node or link drops
        it, so the next call sees the new graph.
        """
        if self._graph is None:
            import networkx as nx
            graph = nx.DiGraph()
            graph.add_nodes_from(self._nodes)
            for link in self._links:
                graph.add_edge(link.src, link.dst, index=link.index,
                               capacity=link.capacity, metered=link.metered,
                               cost_per_unit=link.cost_per_unit)
            self._graph = nx.freeze(graph)
        return self._graph

    def is_strongly_connected(self) -> bool:
        """Whether every node can reach every other node."""
        if self.num_nodes <= 1:
            return True
        start = self._nodes[0]
        ahead = {node: [link.dst for link in links]
                 for node, links in self._out.items()}
        behind: dict[str, list[str]] = {node: [] for node in self._nodes}
        for link in self._links:
            behind[link.dst].append(link.src)
        return all(len(_reachable(start, edges)) == self.num_nodes
                   for edges in (ahead, behind))

    def scaled_costs(self, factor: float) -> "Topology":
        """Copy of the topology with every ``cost_per_unit`` scaled.

        Used by the Figure 12 link-cost sensitivity sweep.
        """
        if factor < 0:
            raise ValueError("cost factor must be nonnegative")
        other = Topology(name=self.name)
        for node in self._nodes:
            other.add_node(node, self._regions.get(node))
        for link in self._links:
            other.add_link(link.src, link.dst, link.capacity, link.metered,
                           link.cost_per_unit * factor)
        return other

    def __repr__(self) -> str:
        metered = sum(1 for link in self._links if link.metered)
        return (f"Topology({self.name!r}, {self.num_nodes} nodes, "
                f"{self.num_links} links, {metered} metered)")


def _reachable(start: str, edges: dict[str, list[str]]) -> set[str]:
    """Nodes reachable from ``start`` over ``edges``."""
    seen = {start}
    fringe = [start]
    while fringe:
        for node in edges[fringe.pop()]:
            if node not in seen:
                seen.add(node)
                fringe.append(node)
    return seen
