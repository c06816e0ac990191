"""Price menus (paper §4.1, Figure 4).

A price menu quotes ``p_i(x)`` — the minimum total price at which ``x``
volume units can be routed within the request's window.  Because the
admission interface fills cheapest (route, timestep) pairs first, the menu
is non-decreasing, convex and piecewise linear; its derivative
``lambda_i(x)`` (the marginal price) is a step function.

A menu is a sequence of :class:`MenuSegment` entries in non-decreasing
unit-price order.  Each segment remembers the (route, timestep) pair it
was priced from, so the chosen prefix can be reserved as the preliminary
schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..network import Path


@dataclass(frozen=True)
class MenuSegment:
    """A block of volume available at one marginal price.

    Attributes
    ----------
    quantity:
        Volume available in this segment.
    unit_price:
        Price per volume unit.
    path:
        Route this volume would be carried on.
    timestep:
        Timestep this volume would be carried at.
    """

    quantity: float
    unit_price: float
    path: Path
    timestep: int

    def __post_init__(self) -> None:
        if self.quantity <= 0:
            raise ValueError("segment quantity must be positive")
        if self.unit_price < 0:
            raise ValueError("segment price must be nonnegative")


class PriceMenu:
    """A convex piecewise-linear price schedule.

    ``guaranteed`` segments make up the guarantee bound ``x̄``; volume
    beyond ``x̄`` is available only best-effort, at the marginal price of
    the last guaranteed segment (§4.1 "Capacity Bound").
    """

    def __init__(self, segments: list[MenuSegment],
                 best_effort: bool = True) -> None:
        for first, second in zip(segments, segments[1:]):
            if first.unit_price > second.unit_price + 1e-9:
                raise ValueError("menu segments must have non-decreasing "
                                 "unit prices")
        self.segments = list(segments)
        self.best_effort = best_effort and bool(segments)

    @property
    def max_guaranteed(self) -> float:
        """The guarantee bound ``x̄``."""
        return sum(segment.quantity for segment in self.segments)

    @property
    def best_effort_price(self) -> float:
        """Marginal price charged for volume beyond ``x̄``."""
        if not self.segments:
            return math.inf
        return self.segments[-1].unit_price

    def price(self, x: float) -> float:
        """Total price ``p(x)`` to route ``x`` units.

        Beyond ``x̄`` the menu extends linearly at the best-effort price
        (infinite if best-effort volume is disabled or nothing exists).
        """
        if x < 0:
            raise ValueError("volume must be nonnegative")
        if x == 0:
            return 0.0
        total = 0.0
        remaining = x
        for segment in self.segments:
            take = min(segment.quantity, remaining)
            total += take * segment.unit_price
            remaining -= take
            if remaining <= 1e-12:
                return total
        if not self.best_effort:
            return math.inf
        return total + remaining * self.best_effort_price

    def marginal(self, x: float) -> float:
        """``lambda(x)``: price of the next unit after ``x`` are bought."""
        if x < 0:
            raise ValueError("volume must be nonnegative")
        cumulative = 0.0
        for segment in self.segments:
            cumulative += segment.quantity
            if x < cumulative - 1e-12:
                return segment.unit_price
        if self.best_effort:
            return self.best_effort_price
        return math.inf

    def best_response(self, value: float, demand: float) -> float:
        """Theorem 5.2: buy while the marginal price is at most ``value``.

        Returns ``min(demand, max{x : lambda(x) <= value})``.
        """
        if demand <= 0:
            return 0.0
        chosen = 0.0
        for segment in self.segments:
            if segment.unit_price > value + 1e-12:
                return min(chosen, demand)
            chosen += segment.quantity
            if chosen >= demand:
                return demand
        if self.best_effort and self.best_effort_price <= value + 1e-12:
            return demand
        return min(chosen, demand)

    def guaranteed_prefix(self, x: float) -> list[tuple[MenuSegment, float]]:
        """The (segment, volume) pairs covering ``min(x, x̄)``.

        This is what the admission interface reserves as the preliminary
        schedule.
        """
        if x < 0:
            raise ValueError("volume must be nonnegative")
        taken = []
        remaining = x
        for segment in self.segments:
            if remaining <= 1e-12:
                break
            take = min(segment.quantity, remaining)
            taken.append((segment, take))
            remaining -= take
        return taken

    def breakpoints(self) -> list[tuple[float, float]]:
        """(cumulative volume, unit price) pairs — Figure 4's curve."""
        points = []
        cumulative = 0.0
        for segment in self.segments:
            cumulative += segment.quantity
            points.append((cumulative, segment.unit_price))
        return points

    def __repr__(self) -> str:
        return (f"PriceMenu({len(self.segments)} segments, "
                f"x_bar={self.max_guaranteed:g})")
