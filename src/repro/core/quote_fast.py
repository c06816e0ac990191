"""Heap-based request-admission quoting (the RA fast path).

The reference quote (``tests/reference/quote.py``) rescans
every (route, timestep) pair per menu segment — O(routes x window) work
per segment, per arrival.  This module replaces the scan with:

1. *one* array pass per quote: the window's rows of capacity / price /
   reserved over the route set's links, read by row slice, and the
   *current segment* price/availability of every (link, timestep) from
   :meth:`NetworkState.head_price_grid`.  The route set's static
   structure comes compiled from :meth:`PathCache.shape`;
2. a min-heap over (route, timestep) marginal path prices with *lazy
   invalidation*, run on Python floats: taking volume on a path only
   touches its own links, so only entries of routes sharing a link at
   that timestep can change.  The taken path's 2-4 link heads are
   refreshed through :meth:`NetworkState.price_segments` — the scalar
   definition the grid vectorises — and the co-located routes are
   version-bumped; a popped entry whose version is stale is repriced
   (O(path length)) and pushed back.  The grids are ~10 steps x ~7
   links, so past the first pass numpy dispatch, not arithmetic, is the
   cost.

**Price contract:** a path's price is the sum of its links' current
segment prices added left to right in path order, starting from 0.0 —
the reference's loop, bit for bit (a pairwise ``ndarray.sum`` differs in
the last place from 8 links up); its availability is their minimum.

Marginal prices only rise and availability only falls as the greedy
take fills segments, so a popped *fresh* entry is a true minimum and
each segment costs O(log n) heap work instead of a full rescan.  Ties
are broken by (route order, timestep order), matching the reference
scan's first-wins iteration, so both implementations produce the same
menu (verified by the differential tests in
``tests/core/test_quote_fast.py``).

Heap traffic is counted in the process metrics registry
(``ra.quote.heap_pops`` / ``ra.quote.heap_invalidations``), once per
quote by its totals.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf

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
    first = max(request.start, now)
    last = min(request.deadline + 1, state.n_steps)
    if not routes or first >= last:
        return PriceMenu([], best_effort=config.allow_best_effort)
    shape = state.paths.shape(routes)
    links, path_cols, touches = shape.links, shape.cols, shape.touches

    # Scratch reservations so that quoting never mutates real state.
    rows = slice(first, last)
    scratch = state.reserved[rows, links]
    head_price, head_avail = state.head_price_grid(rows, links, scratch)

    # From here on Python floats only: past the one array pass, numpy
    # dispatch would cost more than the arithmetic it dispatches.
    head_price = head_price.tolist()
    head_avail = head_avail.tolist()
    scratch = scratch.tolist()
    links = links.tolist()

    def path_head(cols, ti):
        """(price, availability) of a path at one timestep: link by link
        in path order (the price contract above)."""
        row_price = head_price[ti]
        row_avail = head_avail[ti]
        price = 0.0
        avail = inf
        for c in cols:
            price += row_price[c]
            avail = min(avail, row_avail[c])
        return price, avail

    n_steps = last - first
    heap = []
    for p, cols in enumerate(path_cols):
        for ti in range(n_steps):
            price, avail = path_head(cols, ti)
            if avail > EPS:
                heap.append((price, p, ti, 0, avail))
    heapify(heap)
    version = [[0] * n_steps for _ in routes]
    segments: list[MenuSegment] = []
    covered = 0.0
    demand = request.demand
    pops = invalidations = 0
    while covered < demand - EPS and heap:
        price, p, ti, ver, avail = heappop(heap)
        pops += 1
        cols = path_cols[p]
        if ver != version[p][ti]:
            # Stale: links along this path were touched since the push.
            # Reprice below and reinsert; prices only rise, so
            # correctness of the next pop is preserved.
            invalidations += 1
        else:
            take = min(avail, demand - covered)
            segments.append(MenuSegment(take, price, routes[p], first + ti))
            covered += take
            # Refresh the touched link heads and bump every co-located
            # route's version at this timestep.
            row_scratch = scratch[ti]
            for c in cols:
                row_scratch[c] += take
                head = state.price_segments(
                    links[c], first + ti, reserved_override=row_scratch[c])
                head_avail[ti][c], head_price[ti][c] = \
                    head[0] if head else (0.0, 0.0)
            for q in touches[p]:
                version[q][ti] += 1
        price, avail = path_head(cols, ti)
        if avail > EPS:
            heappush(heap, (price, p, ti, version[p][ti], avail))
    registry = get_registry()
    registry.counter("ra.quote.heap_pops").inc(pops)
    registry.counter("ra.quote.heap_invalidations").inc(invalidations)
    return PriceMenu(segments, best_effort=config.allow_best_effort)
