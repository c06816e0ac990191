"""Admissible routes and routing policies.

Each request can be served along a set of admissible paths ``R_i``
(paper §3.1).  As in the production systems the paper builds on (SWAN, B4,
Tempus), we precompute a small number of shortest simple paths per
datacenter pair and use those as the admissible set everywhere: the
admission interface prices over them, and the schedule adjuster re-routes
over them.

How a request's admissible set is derived from the precomputed
candidates is a *routing policy* (:data:`ROUTING_POLICIES`):

- ``"kpaths"`` (the default, and the paper's setup): the full k-shortest
  set, statically — path sets never change mid-run, so the pre-policy
  pipeline is reproduced bit for bit;
- ``"ecmp"``: only the minimum-hop candidates (the equal-cost subset a
  classic ECMP dataplane would spread over);
- ``"flowlet"``: hash-based spreading — each request (flowlet) is pinned
  to one candidate chosen by a stable hash of (src, dst, rid, epoch), a
  non-price load-balancing baseline.  A link failure bumps the epoch, so
  every flowlet re-hashes onto the surviving candidates.

``ecmp``/``flowlet`` also refresh their candidate sets dynamically on
link failure (:meth:`PathCache.refresh`): candidates crossing a dead
link are replaced by the next-shortest survivors.
"""

from __future__ import annotations

import zlib
from itertools import islice
from typing import NamedTuple

import networkx as nx
import numpy as np

from .topology import Link, Topology

#: Admissible-set derivation policies a :class:`PathCache` supports.
ROUTING_POLICIES = ("kpaths", "ecmp", "flowlet")


class Path:
    """A simple directed path, stored as the sequence of links it uses."""

    __slots__ = ("links", "_indices")

    def __init__(self, links: tuple[Link, ...]) -> None:
        if not links:
            raise ValueError("a path needs at least one link")
        for first, second in zip(links, links[1:]):
            if first.dst != second.src:
                raise ValueError(
                    f"links do not chain: {first.dst} != {second.src}")
        self.links = links
        self._indices = None

    @property
    def nodes(self) -> tuple[str, ...]:
        """Datacenters visited, derived on demand: route tables hold a
        path per datacenter pair, so paths stay one tuple each."""
        return (self.src,) + tuple(link.dst for link in self.links)

    @property
    def src(self) -> str:
        return self.links[0].src

    @property
    def dst(self) -> str:
        return self.links[-1].dst

    @property
    def hop_count(self) -> int:
        return len(self.links)

    def link_indices(self) -> tuple[int, ...]:
        """Dense link ids along the path (for utilisation updates).

        Built on first use and kept: links are frozen, and every quote,
        reservation, ``==`` and ``hash`` asks for the same tuple.
        """
        indices = self._indices
        if indices is None:
            indices = self._indices = tuple(link.index
                                            for link in self.links)
        return indices

    def __len__(self) -> int:
        return len(self.links)

    def __iter__(self):
        return iter(self.links)

    def __eq__(self, other) -> bool:
        return isinstance(other, Path) and self.link_indices() == \
            other.link_indices()

    def __hash__(self) -> int:
        return hash(self.link_indices())

    def __repr__(self) -> str:
        return "Path(" + "->".join(self.nodes) + ")"


class RouteShape(NamedTuple):
    """What a quote needs to know about a route set besides link state,
    compiled once per distinct set (:meth:`PathCache.shape`)."""

    #: Sorted ids of every link some route uses (read-only array).
    links: np.ndarray
    #: Per route, its links' positions in ``links``, in path order.
    cols: tuple[tuple[int, ...], ...]
    #: Per route, the routes sharing a link with it (itself included).
    touches: tuple[tuple[int, ...], ...]


def k_shortest_paths(topology: Topology, src: str, dst: str,
                     k: int = 3) -> list[Path]:
    """Up to ``k`` shortest (fewest-hop) simple paths from src to dst.

    Returns fewer than ``k`` paths when the graph does not contain that
    many, and an empty list when ``dst`` is unreachable.

    Served from the topology's compiled route table: the graph is built
    once, and each pair keeps the longest candidate list computed so far.
    Every ``k`` is a prefix of the same ``shortest_simple_paths`` order,
    so a shorter query slices it and only a longer one recomputes.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if src not in topology or dst not in topology:
        raise KeyError(f"unknown endpoint in {src}->{dst}")
    if src == dst:
        raise ValueError("src and dst must differ")
    if topology.route_table is None:
        # The table carries the graph, so a query never re-asks for it.
        topology.route_table = (topology.to_networkx(), {}, set())
    graph, found, dry = topology.route_table
    by_dst = found.setdefault(src, {})
    paths = by_dst.get(dst, ())
    if len(paths) < k and (src, dst) not in dry:
        try:
            node_paths = list(islice(
                nx.shortest_simple_paths(graph, src, dst), k))
        except nx.NetworkXNoPath:
            node_paths = []
        paths = by_dst[dst] = tuple(
            Path(tuple(topology.link_between(u, v)
                       for u, v in zip(node_path, node_path[1:])))
            for node_path in node_paths)
        if len(paths) < k:
            dry.add((src, dst))
    return list(paths[:k])


def _flowlet_hash(src: str, dst: str, rid: int, epoch: int) -> int:
    """Stable (process- and run-independent) flowlet hash.

    ``zlib.crc32`` rather than ``hash()``: Python string hashing is
    salted per process, and flowlet pinning must be reproducible across
    sweep workers and sessions.
    """
    return zlib.crc32(f"{src}|{dst}|{rid}|{epoch}".encode())


class PathCache:
    """A routing policy's view of the topology's route table.

    Candidates come from :func:`k_shortest_paths`, so caches over the
    same topology share one computation per pair.  One cache is shared
    by the admission interface, the schedule adjuster and every baseline
    so that all schemes optimise over the same route sets (as in the
    paper's evaluation).  ``policy`` selects how a
    request's admissible set is derived from the k-shortest candidates
    (see :data:`ROUTING_POLICIES`); the default ``"kpaths"`` reproduces
    the pre-policy behaviour exactly.
    """

    def __init__(self, topology: Topology, k: int = 3,
                 policy: str = "kpaths") -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if policy not in ROUTING_POLICIES:
            raise ValueError(f"unknown routing policy {policy!r}; expected "
                             f"one of {list(ROUTING_POLICIES)}")
        self.topology = topology
        self.k = k
        self.policy = policy
        #: Re-hash generation: bumped by every :meth:`refresh`, folded
        #: into the flowlet hash so failures re-spread every flowlet.
        self.epoch = 0
        self._cache: dict[tuple[str, str], list[Path]] = {}
        #: (src, dst) node pairs of links declared dead via refresh().
        self._dead: set[tuple[str, str]] = set()
        #: Post-failure candidate sets (dead links routed around).
        self._live: dict[tuple[str, str], list[Path]] = {}
        #: Compiled route-set shapes, keyed by the routes' link ids.
        self._shapes: dict[tuple, RouteShape] = {}

    def routes(self, src: str, dst: str, rid: int | None = None
               ) -> list[Path]:
        """Admissible routes for the pair under the cache's policy.

        ``rid`` identifies the flowlet for ``policy="flowlet"`` — with a
        request id the set narrows to the one hash-pinned candidate;
        without one (pair-level queries: cache warming, involved-link
        computation) the full candidate set is returned.  ``kpaths`` and
        ``ecmp`` ignore ``rid`` entirely.
        """
        candidates = self._candidates(src, dst)
        if self.policy == "ecmp" and candidates:
            min_hops = min(path.hop_count for path in candidates)
            return [path for path in candidates
                    if path.hop_count == min_hops]
        if self.policy == "flowlet" and candidates and rid is not None:
            index = _flowlet_hash(src, dst, rid, self.epoch)
            return [candidates[index % len(candidates)]]
        return list(candidates)

    def shape(self, routes: list[Path]) -> RouteShape:
        """The compiled :class:`RouteShape` of a list :meth:`routes` returned.

        Keyed by the routes' link-index tuples, so every flowlet pinned
        to one candidate shares its entry, and a set re-derived after a
        refresh can never be handed another set's shape.
        """
        key = tuple(path.link_indices() for path in routes)
        shape = self._shapes.get(key)
        if shape is None:
            links = sorted({index for indices in key for index in indices})
            position = {link: j for j, link in enumerate(links)}
            cols = tuple(tuple(position[index] for index in indices)
                         for indices in key)
            col_sets = [set(route_cols) for route_cols in cols]
            touches = tuple(tuple(q for q, other in enumerate(col_sets)
                                  if other & mine) for mine in col_sets)
            array = np.array(links, dtype=np.intp)
            array.flags.writeable = False  # shared with cached menus
            shape = self._shapes[key] = RouteShape(array, cols, touches)
        return shape

    def refresh(self, dead=()) -> None:
        """Record failed links and rebuild the dynamic candidate sets.

        ``dead`` is an iterable of (src, dst) node pairs of failed links.
        ``kpaths`` is static by design — the paper's evaluation uses
        fixed route sets, and the schedule adjuster already routes around
        zero-capacity links — so this is a no-op there.  ``ecmp`` and
        ``flowlet`` drop candidates crossing dead links (backfilling
        with the next-shortest survivors) and bump the flowlet epoch so
        every flowlet re-hashes.
        """
        if self.policy == "kpaths":
            return
        self._dead.update(tuple(pair) for pair in dead)
        self._live.clear()
        self._shapes.clear()
        self.epoch += 1

    def _candidates(self, src: str, dst: str) -> list[Path]:
        """The pair's candidate list (dead links routed around)."""
        key = (src, dst)
        if key not in self._cache:
            self._cache[key] = k_shortest_paths(self.topology, src, dst,
                                                self.k)
        if not self._dead:
            return self._cache[key]
        live = self._live.get(key)
        if live is None:
            extended = k_shortest_paths(self.topology, src, dst,
                                        self.k + len(self._dead))
            live = [path for path in extended
                    if not self._crosses_dead(path)][:self.k]
            # Fully disconnected pair: keep the static set so quoting
            # still sees routes (their capacity is ~0, so nothing is
            # actually scheduled over them).
            self._live[key] = live or self._cache[key]
            live = self._live[key]
        return live

    def _crosses_dead(self, path: Path) -> bool:
        return any((link.src, link.dst) in self._dead
                   for link in path.links)

    def warm(self, pairs) -> None:
        """Precompute routes for an iterable of (src, dst) pairs."""
        for src, dst in pairs:
            self.routes(src, dst)

    def __len__(self) -> int:
        return len(self._cache)
