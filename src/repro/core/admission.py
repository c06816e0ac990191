"""Request admission interface (paper §4.1).

On every arrival the RA builds a price menu by greedily routing volume
along the cheapest remaining (route, timestep) pair — so the quoted
``p_i(x)`` is the *minimum* total price at which ``x`` units fit within
the window, which is what drives the incentive properties of §5.  The
customer picks a point on the menu; the chosen prefix is reserved as the
preliminary schedule, and the congested-segment price structure provides
the short-term price adjustment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..network import Path
from .menu import MenuSegment, PriceMenu
from .quote_fast import quote_heap
from .request import ByteRequest
from .state import NetworkState

#: Volumes below this are treated as zero throughout admission.
EPS = 1e-9


@dataclass
class Contract:
    """An accepted request with its service guarantee.

    Attributes
    ----------
    request:
        The underlying byte request.
    chosen:
        Volume the customer elected to send, ``x_i`` (may exceed the
        guarantee when best-effort volume was requested).
    guaranteed:
        ``g_i = min(x_i, x̄_i)`` — volume Pretium promises to deliver by
        the deadline.
    menu:
        The full quoted menu (used for settlement: delivered volume is
        charged along the cheapest-first prefix).
    marginal_price:
        ``lambda_i``: marginal price at the purchase point; the schedule
        adjuster and price computer use it as the value proxy (§4.2).
    admitted_at:
        Timestep of admission.
    flat_price:
        Set for scavenger-class contracts (§4.4): the per-unit price the
        customer named; every delivered unit is billed at it and no menu
        is involved.
    """

    request: ByteRequest
    chosen: float
    guaranteed: float
    menu: PriceMenu
    marginal_price: float
    admitted_at: int
    flat_price: float | None = None

    @classmethod
    def scavenger(cls, request: ByteRequest, named_price: float,
                  now: int) -> "Contract":
        """A best-effort contract at a customer-named price (§4.4).

        No guarantee, no reservation; the schedule adjuster serves it
        from leftover capacity whenever ``named_price`` covers the
        marginal cost, exactly like best-effort volume.
        """
        if named_price < 0:
            raise ValueError("named price must be nonnegative")
        return cls(request=request, chosen=request.demand, guaranteed=0.0,
                   menu=PriceMenu([]), marginal_price=named_price,
                   admitted_at=now, flat_price=named_price)

    @property
    def rid(self) -> int:
        return self.request.rid

    def payment_for(self, delivered: float) -> float:
        """Price owed for ``delivered`` volume.

        Guaranteed volume is charged along the quoted menu prefix
        (cheapest segments first); best-effort volume at the best-effort
        marginal price.  Undelivered volume is never charged.
        """
        billable = min(delivered, self.chosen)
        if billable <= EPS:
            return 0.0
        if self.flat_price is not None:
            return billable * self.flat_price
        in_guarantee = min(billable, self.guaranteed)
        total = self.menu.price(in_guarantee)
        extra = billable - in_guarantee
        if extra > EPS:
            total += extra * self.menu.best_effort_price
        return total


class RequestAdmission:
    """The RA module: quoting, user contracting, preliminary scheduling.

    ``cache`` is an optional warm menu cache (the admission service's
    :class:`~repro.service.cache.MenuCache`): quoting is a pure function
    of the network state along the involved links, so a cache hit returns
    exactly the menu a fresh greedy would build.  ``quote_budget`` is an
    optional zero-argument callable returning the remaining per-request
    latency budget in seconds (see
    :class:`~repro.faults.resilience.DeadlineBudget`); when it reports an
    exhausted budget, :meth:`quote` raises
    :class:`~repro.faults.resilience.QuoteBudgetExceeded` *before* doing
    any expensive work, which the controller degrades into a
    current-price menu.  Both hooks default to off, so batch simulation
    is unaffected.
    """

    def __init__(self, state: NetworkState, cache=None) -> None:
        self.state = state
        self.cache = cache
        self.quote_budget = None

    # -- quoting --------------------------------------------------------
    def quote(self, request: ByteRequest, now: int) -> PriceMenu:
        """Build the price menu for ``request`` at timestep ``now``.

        Greedy construction: repeatedly take the cheapest (route,
        timestep) pair with remaining capacity, add a menu segment for the
        volume available at that marginal price, and virtually reserve it.
        Stops once the request's full demand is covered (quoting beyond
        the demand would never be purchased).  Marginal prices only rise
        as segments fill, so the menu is convex by construction.

        The greedy itself is :func:`repro.core.quote_fast.quote_heap`.
        A configured warm menu cache is consulted first (hits skip the
        greedy and the budget check entirely); a configured quote budget
        that is already spent raises :class:`QuoteBudgetExceeded`
        instead of quoting.
        """
        cache = self.cache
        if cache is not None:
            cached = cache.get(request, now)
            if cached is not None:
                return self._apply_class_price(request, cached)
        budget = self.quote_budget
        if budget is not None and budget() <= 0.0:
            from ..faults.resilience import QuoteBudgetExceeded
            raise QuoteBudgetExceeded(
                f"request {request.rid}: quote latency budget exhausted "
                "before quoting started")
        menu = quote_heap(self.state, request, now)
        if cache is not None:
            cache.put(request, now, menu)
        return self._apply_class_price(request, menu)

    def quote_degraded(self, request: ByteRequest, now: int) -> PriceMenu:
        """Conservative fallback menu straight off current prices.

        Used when the primary greedy quote is unavailable (an injected or
        genuine fault in the quoting machinery): pick the single route
        whose cheapest in-window timestep is lowest at the *current base
        prices*, then offer one segment per timestep — volume capped at
        the route's residual bottleneck, priced at the base path price
        for that step — sorted by price so the menu stays convex.

        Deliberately simpler than :meth:`quote`: no congested-segment
        split and no intra-quote scratch reservations, so each quoted
        unit may be *underpriced* relative to the primary path but never
        negative, never over-promises capacity (each segment sits at a
        distinct timestep and is bounded by that step's residual), and
        costs one array pass per timestep.
        """
        config = self.state.config
        routes = self.state.paths.routes(request.src, request.dst,
                                         rid=request.rid)
        first = max(request.start, now)
        steps = [t for t in range(first, request.deadline + 1)
                 if t < self.state.n_steps]
        if not routes or not steps:
            return PriceMenu([], best_effort=config.allow_best_effort)

        def path_price(path: Path, t: int) -> float:
            indices = list(path.link_indices())
            return float(self.state.prices[t, indices].sum())

        route = min(routes,
                    key=lambda p: min(path_price(p, t) for t in steps))
        priced = sorted(
            (path_price(route, t), t) for t in steps)
        segments: list[MenuSegment] = []
        covered = 0.0
        for price, t in priced:
            if covered >= request.demand - EPS:
                break
            available = self.state.residual_on_path(route, t)
            if available <= EPS:
                continue
            take = min(available, request.demand - covered)
            segments.append(MenuSegment(take, price, route, t))
            covered += take
        return self._apply_class_price(
            request,
            PriceMenu(segments, best_effort=config.allow_best_effort))

    def _apply_class_price(self, request: ByteRequest,
                           menu: PriceMenu) -> PriceMenu:
        """Scale a quoted menu by the request class's price multiplier.

        Interactive-style classes pay a premium, background classes get a
        discount; the neutral multiplier (1.0) returns the menu object
        untouched, so single-class runs stay bit-identical.  Cached menus
        store *base* prices (the cache key is class-agnostic), so the
        multiplier applies symmetrically to hits and fresh quotes.
        """
        factor = self.state.class_for(request).price_multiplier
        if factor == 1.0:
            return menu
        segments = [MenuSegment(seg.quantity, seg.unit_price * factor,
                                seg.path, seg.timestep)
                    for seg in menu.segments]
        return PriceMenu(segments, best_effort=menu.best_effort)

    # -- contracting -------------------------------------------------------
    def admit(self, request: ByteRequest, menu: PriceMenu, chosen: float,
              now: int) -> Contract | None:
        """Record the customer's choice and reserve its guarantee.

        Returns ``None`` when the customer declines (``chosen == 0``).
        The reserved preliminary schedule covers only the guaranteed part;
        best-effort volume is left to the schedule adjuster.
        """
        if chosen <= EPS:
            return None
        if chosen > request.demand + EPS:
            raise ValueError(f"request {request.rid}: chose {chosen} above "
                             f"demand {request.demand}")
        guaranteed = min(chosen, menu.max_guaranteed)
        marginal = menu.marginal(max(0.0, chosen - EPS))
        contract = Contract(request=request, chosen=chosen,
                            guaranteed=guaranteed, menu=menu,
                            marginal_price=marginal, admitted_at=now)
        for segment, volume in menu.guaranteed_prefix(guaranteed):
            self.state.reserve(request.rid, segment.path, segment.timestep,
                               volume)
        return contract
