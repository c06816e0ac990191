"""Heap-based request-admission quoting (the RA fast path).

The reference quote (``tests/reference/quote.py``) rescans
every (route, timestep) pair per menu segment — O(routes x window) work
per segment, per arrival.  This module replaces the scan with:

1. a vectorised precompute of the *current segment* price/availability
   of every involved (link, timestep) via
   :meth:`NetworkState.head_price_grid` — one array pass instead of a
   ``price_segments`` call each;
2. a min-heap over (route, timestep) marginal path prices with *lazy
   invalidation*: taking volume on a path only touches its own links, so
   only entries of routes sharing a link at that timestep can change.
   Those are version-bumped; a popped entry whose version is stale is
   recomputed (arrays, O(path length)) and pushed back.

Marginal prices only rise and availability only falls as the greedy
take fills segments, so a popped *fresh* entry is a true minimum and
each segment costs O(log n) heap work instead of a full rescan.  Ties
are broken by (route order, timestep order), matching the reference
scan's first-wins iteration, so both implementations produce the same
menu (verified by the differential tests in
``tests/core/test_quote_fast.py``).

Heap traffic is counted in the process metrics registry
(``ra.quote.heap_pops`` / ``ra.quote.heap_invalidations``).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..telemetry import get_registry
from .menu import MenuSegment, PriceMenu
from .request import ByteRequest
from .state import NetworkState

#: Volumes below this are treated as zero (same tolerance as admission).
EPS = 1e-9


def quote_heap(state: NetworkState, request: ByteRequest,
               now: int) -> PriceMenu:
    """Build the price menu for ``request`` with the heap-based greedy.

    Behaviourally identical to the reference scan: repeatedly take the
    cheapest (route, timestep) pair with remaining capacity, append a
    menu segment, and virtually reserve it until the demand is covered.
    """
    config = state.config
    routes = state.paths.routes(request.src, request.dst,
                                rid=request.rid)
    if not routes:
        return PriceMenu([], best_effort=config.allow_best_effort)
    first = max(request.start, now)
    steps = np.arange(first, min(request.deadline + 1, state.n_steps))
    if steps.size == 0:
        return PriceMenu([], best_effort=config.allow_best_effort)

    links = sorted({index for path in routes
                    for index in path.link_indices()})
    position = {link: j for j, link in enumerate(links)}
    path_cols = [np.array([position[i] for i in path.link_indices()],
                          dtype=np.intp) for path in routes]

    # Scratch reservations so that quoting never mutates real state.
    scratch = state.reserved[np.ix_(steps, links)].copy()
    head_price, head_avail = state.head_price_grid(steps, links, scratch)

    # Routes whose price can change when route p takes volume (shared
    # links), including p itself.
    col_sets = [set(cols.tolist()) for cols in path_cols]
    touches = [[q for q, other in enumerate(col_sets) if other & mine]
               for mine in col_sets]

    registry = get_registry()
    pops = registry.counter("ra.quote.heap_pops")
    invalidations = registry.counter("ra.quote.heap_invalidations")

    n_paths = len(routes)
    version = np.zeros((n_paths, steps.size), dtype=np.int64)

    def entry(p: int, ti: int):
        """Current (price, p, ti, version, avail) tuple, or None if dead."""
        cols = path_cols[p]
        avail = head_avail[ti, cols].min()
        if avail <= EPS:
            return None
        price = float(head_price[ti, cols].sum())
        return (price, p, ti, int(version[p, ti]), float(avail))

    # Initial heap: per path, one vectorised pass over all timesteps
    # (price = row sum over its links, avail = row min).
    heap = []
    for p, cols in enumerate(path_cols):
        prices = head_price[:, cols].sum(axis=1)
        avails = head_avail[:, cols].min(axis=1)
        alive = np.nonzero(avails > EPS)[0]
        heap.extend(zip(prices[alive].tolist(), [p] * alive.size,
                        alive.tolist(), [0] * alive.size,
                        avails[alive].tolist()))
    heapq.heapify(heap)

    segments: list[MenuSegment] = []
    covered = 0.0
    demand = request.demand
    while covered < demand - EPS and heap:
        price, p, ti, ver, avail = heapq.heappop(heap)
        pops.inc()
        if ver != version[p, ti]:
            # Stale: links along this path were touched since the push.
            # Reprice from the arrays and reinsert; prices only rise, so
            # correctness of the next pop is preserved.
            invalidations.inc()
            fresh = entry(p, ti)
            if fresh is not None:
                heapq.heappush(heap, fresh)
            continue
        take = min(avail, demand - covered)
        segments.append(MenuSegment(take, price, routes[p], int(steps[ti])))
        covered += take
        cols = path_cols[p]
        scratch[ti, cols] += take
        # Refresh the touched link heads (one vectorised row) and bump
        # every co-located route's version at this timestep.
        sub_links = [links[c] for c in cols]
        hp, ha = state.head_price_grid(steps[ti:ti + 1], sub_links,
                                       scratch[ti:ti + 1, cols])
        head_price[ti, cols] = hp[0]
        head_avail[ti, cols] = ha[0]
        for q in touches[p]:
            version[q, ti] += 1
        fresh = entry(p, ti)
        if fresh is not None:
            heapq.heappush(heap, fresh)
    return PriceMenu(segments, best_effort=config.allow_best_effort)
