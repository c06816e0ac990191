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
from heapq import heappop, heappush
from itertools import count, islice
from numbers import Integral

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
        """Datacenters visited, derived on demand: route tables hold
        paths for many datacenter pairs, so paths stay one tuple each."""
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


class RouteShape:
    """What a quote or a schedule-LP builder needs to know about a route
    set besides link state, compiled once per distinct set and topology
    (:meth:`PathCache.shape`) from the routes' link-index tuples.  Its
    arrays are read-only: every caller of the shape shares them."""

    __slots__ = ("links", "cols", "touches", "_incidence")

    def __init__(self, key: tuple[tuple[int, ...], ...]) -> None:
        links = sorted({index for indices in key for index in indices})
        position = {link: j for j, link in enumerate(links)}
        #: Sorted ids of every link some route uses.
        self.links = np.array(links, dtype=np.intp)
        self.links.flags.writeable = False
        #: Per route, its links' positions in ``links``, in path order.
        self.cols = tuple(tuple(position[index] for index in indices)
                          for indices in key)
        col_sets = [set(route_cols) for route_cols in self.cols]
        #: Per route, the routes sharing a link with it (itself included).
        self.touches = tuple(tuple(q for q, other in enumerate(col_sets)
                                   if other & mine) for mine in col_sets)
        self._incidence: dict[int, tuple[np.ndarray, ...]] = {}

    def incidence(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(link, step position, variable) per entry of a routes x ``n``
        steps grid, built once per ``n``.

        The grid is route-major — variable ``r * n + j`` is the flow on
        route ``r`` at its ``j``-th step — and each variable has one entry
        per link of its route, in path order.  ``n`` is at most the
        horizon, which bounds the templates a shape keeps.
        """
        template = self._incidence.get(n)
        if template is None:
            links = [np.tile(self.links[list(cols)], n) for cols in self.cols]
            positions = [np.repeat(np.arange(n), len(cols))
                         for cols in self.cols]
            variables = [r * n + part for r, part in enumerate(positions)]
            template = self._incidence[n] = tuple(
                np.concatenate(parts) if parts else np.zeros(0, np.int64)
                for parts in (links, positions, variables))
            for array in template:
                array.flags.writeable = False
        return template


def _compile_adjacency(topology: Topology):
    """``(node id by name, successors, predecessors)`` over integer node
    ids, in node and link insertion order — the order a ``DiGraph``
    built from the topology iterates its neighbours in.  ``succ[u]``
    maps each successor ``v`` to the link ``u -> v``."""
    index = {node: i for i, node in enumerate(topology.nodes)}
    succ = [{} for _ in index]
    pred = [[] for _ in index]
    for link in topology.links:
        u, v = index[link.src], index[link.dst]
        succ[u][v] = link
        pred[v].append(u)
    return index, succ, pred


def _bidirectional_bfs(succ, pred, source, target, ignore_nodes,
                       ignore_edges):
    """A fewest-hop ``source -> target`` node path avoiding
    ``ignore_nodes`` and the ``(u, v)`` pairs in ``ignore_edges``, or
    ``None``.  networkx's ``_bidirectional_pred_succ`` step for step: the
    smaller fringe expands first (forward on a tie), and the search ends
    at the first node both sides have reached.  Yen's spur searches need
    the ignore sets; :func:`first_route_links` replays the ignore-free
    search for every pair at once."""
    if source in ignore_nodes or target in ignore_nodes:
        return None
    back = {source: None}          # forward tree: node -> its predecessor
    ahead = {target: None}         # reverse tree: node -> its successor
    forward, reverse = [source], [target]
    meet = None
    # The two directions are written out: one helper for both cost ~8 %
    # of all-pairs route computation on the 106-node WAN.
    while meet is None and forward and reverse:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            for v in level:
                for w in succ[v]:
                    if w in ignore_nodes or (v, w) in ignore_edges:
                        continue
                    if w not in back:
                        forward.append(w)
                        back[w] = v
                    if w in ahead:
                        meet = w
                        break
                if meet is not None:
                    break
        else:
            level, reverse = reverse, []
            for v in level:
                for w in pred[v]:
                    if w in ignore_nodes or (w, v) in ignore_edges:
                        continue
                    if w not in ahead:
                        ahead[w] = v
                        reverse.append(w)
                    if w in back:
                        meet = w
                        break
                if meet is not None:
                    break
    if meet is None:
        return None
    path = []
    node = back[meet]
    while node is not None:
        path.append(node)
        node = back[node]
    path.reverse()
    node = meet
    while node is not None:
        path.append(node)
        node = ahead[node]
    return path


def _simple_paths(succ, pred, source, target):
    """Simple ``source -> target`` node paths, fewest hops first.

    networkx's unweighted ``shortest_simple_paths`` (Yen's algorithm)
    replicated, so ties break as they did there: candidates queue as
    ``(cost, push counter, path)`` with spur cost ``len(root) +
    len(spur)``, a path already queued is not queued again, and popping
    a path forgets it.
    """
    path = _bidirectional_bfs(succ, pred, source, target, (), ())
    if path is None:
        return
    queue = [(len(path), 0, path)]
    queued = {tuple(path)}
    pushes = count(1)
    accepted = []
    while queue:
        path = heappop(queue)[2]
        queued.remove(tuple(path))
        yield path
        accepted.append(path)
        ignore_nodes, ignore_edges = set(), set()
        for i in range(1, len(path)):
            root = path[:i]
            for other in accepted:
                if other[:i] == root:
                    ignore_edges.add((other[i - 1], other[i]))
            spur = _bidirectional_bfs(succ, pred, root[-1], target,
                                      ignore_nodes, ignore_edges)
            if spur is not None:
                candidate = root[:-1] + spur
                key = tuple(candidate)
                if key not in queued:
                    heappush(queue, (i + len(spur), next(pushes), candidate))
                    queued.add(key)
            ignore_nodes.add(root[-1])


def k_shortest_paths(topology: Topology, src: str, dst: str,
                     k: int = 3) -> list[Path]:
    """Up to ``k`` shortest (fewest-hop) simple paths from src to dst.

    Returns fewer than ``k`` paths when the graph does not contain that
    many, and an empty list when ``dst`` is unreachable.

    Served from the topology's compiled route table: the adjacency is
    compiled once, and each pair keeps the longest candidate list
    computed so far.  Every ``k`` is a prefix of the same
    :func:`_simple_paths` order, so a shorter query slices it and only a
    longer one recomputes.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if src not in topology or dst not in topology:
        raise KeyError(f"unknown endpoint in {src}->{dst}")
    if src == dst:
        raise ValueError("src and dst must differ")
    (index, succ, pred), found, dry, _ = _route_table(topology)
    by_dst = found.setdefault(src, {})
    paths = by_dst.get(dst, ())
    if len(paths) < k and (src, dst) not in dry:
        node_paths = islice(_simple_paths(succ, pred, index[src],
                                          index[dst]), k)
        paths = by_dst[dst] = tuple(
            Path(tuple(succ[u][v] for u, v in zip(node_path, node_path[1:])))
            for node_path in node_paths)
        if len(paths) < k:
            dry.add((src, dst))
    return list(paths[:k])


def _route_table(topology: Topology) -> tuple:
    """The topology's route table, compiled on first use."""
    if topology.route_table is None:
        topology.route_table = (_compile_adjacency(topology), {}, set(), {})
    return topology.route_table


def _bfs_tree(succ, pred, root: int, forward: bool):
    """``(levels, depth, chain)`` of a breadth-first search from ``root``
    over successors (``forward``) or predecessors.

    ``levels[i]`` lists the nodes ``i`` hops out in the order they were
    reached, and a node joins the tree through the node that reached it
    first.  ``chain[v]`` is the indices of the tree's links from ``root``
    to ``v`` (forward) or from ``v`` to ``root``; an unreached node has
    depth ``len(succ)``, deeper than any level.
    """
    neighbours = succ if forward else pred
    unreached = len(succ)
    depth = [unreached] * unreached
    chain = [()] * unreached
    depth[root] = 0
    levels = []
    level = [root]
    while level:
        levels.append(level)
        hops, level = len(levels), []
        for v in levels[-1]:
            for w in neighbours[v]:
                if depth[w] == unreached:
                    depth[w] = hops
                    chain[w] = (chain[v] + (succ[v][w].index,) if forward
                                else (succ[w][v].index,) + chain[v])
                    level.append(w)
    return levels, depth, chain


def first_route_links(topology: Topology
                      ) -> dict[str, dict[str, tuple[int, ...]]]:
    """Every ordered pair's first route, as link indices.

    Returns ``{src: {dst: indices}}``: the indices of the links of the
    route ``k_shortest_paths(topology, src, dst, 1)`` returns, in path
    order, or ``()`` when ``dst`` is unreachable.  No :class:`Path` is
    built and no pair is stored in the route table (only its compiled
    adjacency is shared), so calibration, which routes every pair on
    this route once, leaves nothing per pair behind.

    Asking :func:`k_shortest_paths` pair by pair would run one
    bidirectional search each.  With nothing ignored,
    :func:`_bidirectional_bfs`'s fringes are the breadth-first levels
    from ``source`` (successor order) and to ``target`` (predecessor
    order), and each node's tree pointer is the node that reached it
    first, so one search per source and one per target answer every
    pair.  Only the meeting is replayed per pair.  Until it, the fringes
    sit at depths ``f`` and ``r`` with ``f + r`` below the pair's
    distance (a node both sides had reached would have ended the
    search), and the smaller fringe expands, forward on a tie; the
    expansion that meets is the first that makes ``f + r + 1`` the
    distance.  Scanning that one level in search order, the first node
    the other side has reached is the meeting node, and the route is the
    forward tree's links to it followed by the reverse tree's links on,
    as :func:`_bidirectional_bfs` walks its two trees.
    """
    _, succ, pred = _route_table(topology)[0]
    nodes = topology.nodes
    n = len(nodes)
    behind = [_bfs_tree(succ, pred, d, False) for d in range(n)]
    routes = {}
    for s, src in enumerate(nodes):
        by_dst = routes[src] = {}
        f_levels, f_depth, f_chain = _bfs_tree(succ, pred, s, True)
        for d, dst in enumerate(nodes):
            if d == s:
                continue
            hops = f_depth[d]
            if hops == n:
                by_dst[dst] = ()
                continue
            r_levels, r_depth, r_chain = behind[d]
            f = r = 0
            while True:
                forward = len(f_levels[f]) <= len(r_levels[r])
                if f + r + 1 == hops:
                    break
                if forward:
                    f += 1
                else:
                    r += 1
            if forward:
                meet = next(w for v in f_levels[f] for w in succ[v]
                            if r_depth[w] <= r)
            else:
                meet = next(w for v in r_levels[r] for w in pred[v]
                            if f_depth[w] <= f)
            by_dst[dst] = f_chain[meet] + r_chain[meet]
    return routes


def _flowlet_hash(src: str, dst: str, rid: int, epoch: int) -> int:
    """Stable (process- and run-independent) flowlet hash.

    ``zlib.crc32`` rather than ``hash()``: Python string hashing is
    salted per process, and flowlet pinning must be reproducible across
    sweep workers and sessions.
    """
    return zlib.crc32(f"{src}|{dst}|{rid}|{epoch}".encode())


class PathCache:
    """A routing policy's view of the topology's route table.

    Candidates come from :func:`k_shortest_paths` and shapes from the
    same route table, so caches over the same topology share one
    computation per pair and one compiled shape per route set.  One
    cache is shared by the admission interface, the schedule adjuster
    and every baseline so that all schemes optimise over the same route
    sets (as in the paper's evaluation).  ``policy`` selects how a
    request's admissible set is derived from the k-shortest candidates
    (see :data:`ROUTING_POLICIES`); the default ``"kpaths"`` reproduces
    the pre-policy behaviour exactly.
    """

    def __init__(self, topology: Topology, k: int = 3,
                 policy: str = "kpaths") -> None:
        if isinstance(k, bool) or not isinstance(k, Integral):
            raise ValueError(f"k must be an integer, got {k!r}")
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

        Shapes live in the topology's route table, so every cache, run
        and scheme over one topology shares them, and adding a node or
        link drops them with the candidates.  A shape is a pure function
        of its key, the routes' link-index tuples: every flowlet pinned
        to one candidate shares its entry, and a set re-derived after a
        refresh gets its own.  The shape's incidence templates live and
        die with it.
        """
        key = tuple(path.link_indices() for path in routes)
        shapes = _route_table(self.topology)[3]
        shape = shapes.get(key)
        if shape is None:
            shape = shapes[key] = RouteShape(key)
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
