"""The full-rescan RA greedy ``src/`` shipped as
``RequestAdmission.quote_reference`` (behind ``quote_path="scan"``) until
the knob was deleted.  Moved here verbatim, as module functions with
:func:`repro.core.quote_fast.quote_heap`'s signature, so a test swaps the
whole quoting path by patching ``repro.core.admission.quote_heap``.  The
heap path must reproduce these menus exactly: same segments, volumes,
prices, paths and timesteps, in the same order.
"""

import math
from contextlib import contextmanager

import pytest

from repro.core import admission
from repro.core.admission import EPS
from repro.core.menu import MenuSegment, PriceMenu
from repro.core.request import ByteRequest
from repro.core.state import NetworkState
from repro.network import Path


def quote_scan(state: NetworkState, request: ByteRequest,
               now: int) -> PriceMenu:
    """The reference O(routes x window) rescan-per-segment greedy."""
    routes = state.paths.routes(request.src, request.dst,
                                rid=request.rid)
    config = state.config
    if not routes:
        return PriceMenu([], best_effort=config.allow_best_effort)
    first = max(request.start, now)
    steps = [t for t in range(first, request.deadline + 1)
             if t < state.n_steps]
    if not steps:
        return PriceMenu([], best_effort=config.allow_best_effort)

    # Scratch reservations so that quoting never mutates real state.
    involved: set[int] = set()
    for path in routes:
        involved.update(path.link_indices())
    scratch = {(index, t): float(state.reserved[t, index])
               for index in involved for t in steps}

    segments: list[MenuSegment] = []
    covered = 0.0
    while covered < request.demand - EPS:
        best: tuple[float, float, Path, int] | None = None
        for path in routes:
            for t in steps:
                price, available = _path_head(state, path, t, scratch)
                if available <= EPS:
                    continue
                if best is None or price < best[0] - EPS:
                    best = (price, available, path, t)
        if best is None:
            break
        price, available, path, t = best
        take = min(available, request.demand - covered)
        segments.append(MenuSegment(take, price, path, t))
        covered += take
        for index in path.link_indices():
            scratch[(index, t)] += take
    return PriceMenu(segments, best_effort=config.allow_best_effort)


def _path_head(state: NetworkState, path: Path, t: int,
               scratch: dict[tuple[int, int], float]
               ) -> tuple[float, float]:
    """Marginal price and volume available at it for (path, t).

    The price is the sum of each link's *current* segment price given
    the scratch reservations; the volume is the bottleneck of each
    link's current segment.
    """
    price = 0.0
    available = math.inf
    for index in path.link_indices():
        segments = state.price_segments(
            index, t, reserved_override=scratch[(index, t)])
        if not segments:
            return 0.0, 0.0
        quantity, unit_price = segments[0]
        price += unit_price
        available = min(available, quantity)
    return price, available


@contextmanager
def scan_quotes():
    """The rescan greedy in place of the heap quote."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(admission, "quote_heap", quote_scan)
        yield
