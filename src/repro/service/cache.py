"""Warm per-(src, dst) menu caches with link-version invalidation.

A quote is a pure function of the network state along the links its
(src, dst) route set can touch: prices, reserved volume and usable
capacity per (link, timestep).  :class:`NetworkState` maintains a
monotone per-link version clock (``link_versions``) bumped by every
mutation a quote can observe — reservations, releases, price updates,
link failures, high-pri bursts.  A cached menu therefore stays *exactly*
valid (bit-identical to a fresh greedy quote) for as long as every
involved link's version is unchanged, and the cache never needs to
understand what changed — a PC price update on any cached path simply
shows up as a version mismatch on the next lookup.

Entries are keyed by the full quote identity — (src, dst, effective
start, deadline, demand) — so distinct windows or demands never collide,
and evicted LRU-first once ``max_entries`` is reached.  Hits, misses and
stale-entry invalidations are counted in the process metrics registry
(``service.menu_cache.*``); price-update invalidation is additionally
visible as ``service.menu_cache.invalidations`` ticking up right after a
``pretium.price_updates`` tick.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..telemetry import get_registry


class MenuCache:
    """LRU cache of quoted menus, invalidated by the state version clock.

    The cache is created unbound (the service constructs it before the
    controller's ``begin`` builds a fresh :class:`NetworkState`) and
    bound via :meth:`bind`, which also clears any stale entries from a
    previous run.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive; use no cache "
                             "at all to disable caching")
        self.max_entries = max_entries
        self.state = None
        self._entries: OrderedDict[tuple, tuple[np.ndarray, np.ndarray,
                                                object]] = OrderedDict()

    def bind(self, state) -> "MenuCache":
        """Attach to a (fresh) :class:`NetworkState`; clears all entries."""
        self.state = state
        self._entries.clear()
        return self

    # -- key / versions -----------------------------------------------------
    @staticmethod
    def key(request, now: int) -> tuple:
        """The quote identity: everything the menu depends on besides
        network state.  The effective start folds ``now`` in, so a request
        re-quoted at a later step (past its start) keys differently."""
        return (request.src, request.dst, max(request.start, now),
                request.deadline, request.demand)

    def _key(self, request, now: int) -> tuple:
        """The static identity plus routing-policy discriminators.

        Dynamic policies change a pair's admissible set out from under
        the link-version clock: a flowlet menu depends on the request id
        (the hash pins per-rid paths) and on the re-hash epoch, and both
        flowlet and ecmp candidate sets can change when a refresh bumps
        the epoch.  Folding those into the key means entries from an
        older epoch simply never hit again (and age out LRU-first).
        """
        base = self.key(request, now)
        paths = self.state.paths
        if paths.policy == "flowlet":
            return base + (request.rid, paths.epoch)
        if paths.policy == "ecmp":
            return base + (paths.epoch,)
        return base

    def _involved_links(self, request) -> np.ndarray:
        """Indices of every link any route for (src, dst) can touch (the
        route set's compiled, shared, read-only array)."""
        paths = self.state.paths
        return paths.shape(paths.routes(request.src, request.dst,
                                        rid=request.rid)).links

    # -- lookup / store -----------------------------------------------------
    def get(self, request, now: int):
        """The cached menu, or ``None`` on a miss or a stale entry."""
        if self.state is None:
            raise RuntimeError("menu cache is not bound to a NetworkState")
        registry = get_registry()
        key = self._key(request, now)
        entry = self._entries.get(key)
        if entry is None:
            registry.counter("service.menu_cache.misses").inc()
            return None
        links, versions, menu = entry
        if not np.array_equal(self.state.link_versions[links], versions):
            # Something a quote depends on changed on an involved link
            # (a reservation, a PC price update, a failure): the entry
            # is dead, never served stale.
            registry.counter("service.menu_cache.invalidations").inc()
            registry.counter("service.menu_cache.misses").inc()
            del self._entries[key]
            return None
        registry.counter("service.menu_cache.hits").inc()
        self._entries.move_to_end(key)
        return menu

    def put(self, request, now: int, menu) -> None:
        """Store a freshly computed menu under the current link versions."""
        if self.state is None:
            raise RuntimeError("menu cache is not bound to a NetworkState")
        links = self._involved_links(request)
        versions = self.state.link_versions[links].copy()
        key = self._key(request, now)
        self._entries[key] = (links, versions, menu)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            get_registry().counter("service.menu_cache.evictions").inc()

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries
