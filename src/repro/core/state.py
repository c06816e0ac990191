"""The shared network-state datastructure (paper §4, Figure 3).

All three Pretium modules share one :class:`NetworkState`: per-(link,
timestep) internal prices, the usable capacity after high-pri headroom,
and the current *plan* — which (route, timestep) reservations back each
admitted request's guarantee.  The plan is soft: the schedule adjuster may
rewrite any future part of it, as long as guarantees stay satisfied.
"""

from __future__ import annotations

import numpy as np

from ..network import Path, PathCache, Topology
from .config import PretiumConfig


class NetworkState:
    """Prices, capacities and the reservation plan over the full horizon.

    Arrays are indexed ``[timestep, link_index]``.
    """

    def __init__(self, topology: Topology, n_steps: int,
                 config: PretiumConfig) -> None:
        if n_steps <= 0:
            raise ValueError("n_steps must be positive")
        self.topology = topology
        self.n_steps = n_steps
        self.config = config
        self.paths = PathCache(topology, k=config.route_count,
                               policy=config.routing)

        #: Traffic-class table: name -> TrafficClass.  Installed from the
        #: workload by the controller (see :meth:`set_traffic_classes`);
        #: empty means every request is the neutral default class.
        self.traffic_classes: dict = {}

        usable = np.array([link.capacity for link in topology.links])
        usable = usable * (1.0 - config.highpri_fraction)
        #: Usable capacity per (timestep, link); faults may lower entries.
        self.capacity = np.tile(usable, (n_steps, 1))

        #: Internal price P_{e,t}; updated by the price computer.
        self.prices = np.full((n_steps, topology.num_links),
                              float(config.initial_price))
        # Metered links start with their cost folded in, so the very first
        # window (before any dual computation) is not priced below cost.
        # The marginal cost of a unit levelled over L steps is C_e / L;
        # see PretiumConfig.initial_metered_leveling for the choice of L
        # (per-unit top-k pricing, C_e / k, would overprice spread-out
        # transfers ~W/k-fold and choke the feedback loop before it
        # starts; full-window levelling underprices short windows).
        leveling = config.initial_metered_leveling
        for link in topology.metered_links():
            self.prices[:, link.index] += link.cost_per_unit / leveling

        #: Volume reserved by the plan, per (timestep, link).
        self.reserved = np.zeros((n_steps, topology.num_links))

        #: rid -> {(link_indices, timestep): volume} backing each guarantee.
        self.plan: dict[int, dict[tuple[tuple[int, ...], int], float]] = {}

        #: Per-link monotone version counters, bumped whenever anything a
        #: quote depends on changes on that link (reservations, prices,
        #: capacity).  The admission service's warm menu cache tags each
        #: cached menu with the versions of its involved links; a bumped
        #: link invalidates every cached menu routed over it.  Direct
        #: writes to ``capacity``/``prices``/``reserved`` arrays bypass
        #: this clock — mutate through the methods below instead.
        self.link_versions = np.zeros(topology.num_links, dtype=np.int64)

        #: Monotone clock over *capacity* mutations only (link failures,
        #: high-pri bursts) — unlike ``link_versions`` it ignores
        #: reservation churn.  SAM's quiet-step fast path snapshots it at
        #: solve time: a bumped clock means the LP's capacity rows
        #: changed and the cached plan tail may no longer be feasible.
        self.capacity_version = 0

    # -- traffic classes ----------------------------------------------
    def set_traffic_classes(self, classes) -> None:
        """Install the workload's traffic-class table (name -> spec)."""
        self.traffic_classes = {cls.name: cls for cls in classes or ()}

    def class_for(self, request) -> "object":
        """The :class:`~repro.traffic.classes.TrafficClass` governing a
        request (the neutral default when the table has no entry)."""
        name = getattr(request, "cls", "default")
        cls = self.traffic_classes.get(name)
        if cls is None:
            # Deferred: repro.traffic imports repro.core at package init.
            from ..traffic.classes import DEFAULT_CLASS
            return DEFAULT_CLASS
        return cls

    # -- capacity ------------------------------------------------------
    def residual(self, t: int) -> np.ndarray:
        """Unreserved usable capacity on every link at timestep ``t``."""
        return self.capacity[t] - self.reserved[t]

    def residual_on_path(self, path: Path, t: int) -> float:
        """Bottleneck residual along ``path`` at timestep ``t``."""
        residual = self.residual(t)
        return float(residual[np.asarray(path.link_indices())].min())

    def fail_link(self, src: str, dst: str, start: int,
                  end: int | None = None) -> None:
        """Set a link's usable capacity to ~zero for [start, end) (§4.4).

        The schedule adjuster spreads affected load over other paths and
        times on its next run.
        """
        link = self.topology.link_between(src, dst)
        end = self.n_steps if end is None else end
        self.capacity[start:end, link.index] = 1e-9
        self.link_versions[link.index] += 1
        self.capacity_version += 1
        # Dynamic routing policies (ecmp/flowlet) also route *around* the
        # dead link and re-hash flowlets; kpaths keeps its static sets
        # (refresh is a no-op there) and relies on the zeroed capacity.
        self.paths.refresh(dead=((src, dst),))

    def set_highpri_usage(self, t: int, link_index: int,
                          volume: float) -> None:
        """Reduce usable capacity at (t, e) by an ad-hoc high-pri burst."""
        if not np.isfinite(volume) or volume < 0:
            raise ValueError(f"volume must be finite and nonnegative, got "
                             f"{volume!r}")
        base = self.topology.link(link_index).capacity
        self.capacity[t, link_index] = max(0.0, base - volume)
        self.link_versions[link_index] += 1
        self.capacity_version += 1

    # -- segment pricing (§4.1 short-term adjustment) --------------------
    def price_segments(self, link_index: int, t: int,
                       reserved_override: float | None = None
                       ) -> list[tuple[float, float]]:
        """(available volume, unit price) steps for one link-timestep.

        With short-term adjustment on, the first ``congestion_threshold``
        fraction of capacity sells at the base price and the rest at
        ``congestion_multiplier`` times it — "functionally equivalent to
        splitting each network link into parallel links with different
        prices" (§4.1).  Volume already reserved consumes the cheap
        segment first.
        """
        capacity = float(self.capacity[t, link_index])
        reserved = float(self.reserved[t, link_index]
                         if reserved_override is None else reserved_override)
        price = float(self.prices[t, link_index])
        available = capacity - reserved
        if available <= 1e-12:
            return []
        if not self.config.short_term_adjustment:
            return [(available, price)]
        threshold = self.config.congestion_threshold * capacity
        segments = []
        cheap_left = max(0.0, threshold - reserved)
        if cheap_left > 1e-12:
            segments.append((min(cheap_left, available), price))
        expensive_left = available - cheap_left
        if expensive_left > 1e-12:
            segments.append((expensive_left,
                             price * self.config.congestion_multiplier))
        return segments

    def head_price_grid(self, rows: slice, link_indices, reserved
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised first segments of :meth:`price_segments`.

        For every (timestep, link) in ``rows × link_indices`` (``rows`` a
        slice: a quote's window is contiguous), given the (scratch)
        ``reserved`` grid of the same shape, return two arrays: the
        marginal price of the link's *current* segment and the volume
        available at it.  Exhausted link-steps get availability 0.  This
        is the precomputation behind the heap-based quote: one array pass
        replaces a ``price_segments`` call per (link, timestep).
        """
        capacity = self.capacity[rows, link_indices]
        price = self.prices[rows, link_indices]
        reserved = np.asarray(reserved, dtype=float)
        available = capacity - reserved
        if self.config.short_term_adjustment:
            cheap_left = np.maximum(
                0.0, self.config.congestion_threshold * capacity - reserved)
            in_cheap = cheap_left > 1e-12
            head_price = np.where(
                in_cheap, price, price * self.config.congestion_multiplier)
            head_avail = np.where(in_cheap,
                                  np.minimum(cheap_left, available),
                                  available - cheap_left)
        else:
            head_price = price.copy()
            head_avail = available.copy()
        head_avail[(available <= 1e-12) | (head_avail <= 1e-12)] = 0.0
        return head_price, head_avail

    # -- plan ------------------------------------------------------------
    def reserve(self, rid: int, path: "Path | tuple[int, ...]", t: int,
                volume: float) -> None:
        """Reserve ``volume`` for ``rid`` on a path (or raw link indices)."""
        if volume <= 0:
            return
        indices = path.link_indices() if isinstance(path, Path) else \
            tuple(path)
        for index in indices:
            self.reserved[t, index] += volume
            self.link_versions[index] += 1
        bucket = self.plan.setdefault(rid, {})
        key = (indices, t)
        bucket[key] = bucket.get(key, 0.0) + volume

    def release_future(self, rid: int, from_step: int) -> None:
        """Drop a request's reservations at timesteps >= ``from_step``."""
        bucket = self.plan.get(rid)
        if not bucket:
            return
        for (indices, t), volume in list(bucket.items()):
            if t >= from_step:
                for index in indices:
                    self.reserved[t, index] -= volume
                    self.link_versions[index] += 1
                del bucket[(indices, t)]
        if not bucket:
            self.plan.pop(rid, None)

    def planned_at(self, rid: int, t: int) -> list[tuple[tuple[int, ...],
                                                         float]]:
        """A request's planned (link_indices, volume) entries at ``t``."""
        bucket = self.plan.get(rid, {})
        return [(indices, volume) for (indices, step), volume
                in bucket.items() if step == t and volume > 1e-12]

    # -- price updates -----------------------------------------------------
    def set_prices(self, start: int, prices: np.ndarray) -> None:
        """Install new prices for timesteps ``start..`` (carried over).

        ``prices`` has shape (W, n_links); it is tiled forward so requests
        with deadlines beyond the current window see prices too (§4.3).
        """
        if prices.ndim != 2 or prices.shape[1] != self.topology.num_links:
            raise ValueError("prices must be (W, n_links)")
        window = prices.shape[0]
        if window == 0:
            raise ValueError("prices must cover at least one timestep")
        if not np.isfinite(prices).all():
            raise ValueError("prices must be finite")
        floor = self.config.price_floor
        tiled = np.maximum(prices, floor)
        span = self.n_steps - start
        if span <= 0:
            return
        repeats = -(-span // window)  # ceil division
        incoming = np.tile(tiled, (repeats, 1))[:span]
        changed = np.any(self.prices[start:] != incoming, axis=0)
        self.prices[start:] = incoming
        # A price update invalidates cached menus only on links whose
        # price actually moved; untouched links keep their warm entries.
        self.link_versions[changed] += 1
