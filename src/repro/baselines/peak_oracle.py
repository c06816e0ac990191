"""Time-of-day pricing with oracle price selection (paper §6.1).

PeakOracle splits the day into a statically chosen *peak* period — the
interval whose offered demand is consistently above the daily average —
and an off-peak period, charging a higher price during peak.  As with
RegionOracle, the two prices are selected in hindsight from a
value-quantile grid by realised welfare.

A request is willing to transmit only at timesteps whose price it can
afford, and is admitted iff at least one such step lies in its window.
Payments charge the step price per byte actually moved at that step.
"""

from __future__ import annotations

import numpy as np

from ..costs import LinkCostModel
from ..sim.engine import RunResult
from ..sim.metrics import total_value
from ..traffic.workload import Workload
from .base import (EPS, OfflineScheme, ScheduleItem, run_result,
                   solve_offline_schedule, value_grid)


def offered_demand_profile(workload: Workload) -> np.ndarray:
    """Mean offered demand per step-of-day.

    Each request's demand is spread uniformly over its window, then
    aggregated per timestep and folded across days.
    """
    per_step = np.zeros(workload.n_steps)
    for request in workload.requests:
        per_step[request.start:request.deadline + 1] += \
            request.demand / request.window_length
    steps_per_day = workload.steps_per_day
    n_days = -(-workload.n_steps // steps_per_day)
    padded = np.zeros(n_days * steps_per_day)
    padded[:workload.n_steps] = per_step
    return padded.reshape(n_days, steps_per_day).mean(axis=0)


def peak_steps_of_day(workload: Workload) -> set[int]:
    """Step-of-day indices whose offered demand exceeds the daily mean."""
    profile = offered_demand_profile(workload)
    return {int(s) for s in np.nonzero(profile > profile.mean())[0]}


class PeakOracle(OfflineScheme):
    """Peak / off-peak pricing, optimal in hindsight."""

    name = "PeakOracle"

    def __init__(self, grid_points: int = 6, route_count: int = 3,
                 topk_fraction: float = 0.1,
                 topk_encoding: str = "cvar",
                 routing: str = "kpaths") -> None:
        if grid_points < 1:
            raise ValueError("grid_points must be positive")
        self.grid_points = grid_points
        self.route_count = route_count
        self.topk_fraction = topk_fraction
        self.topk_encoding = topk_encoding
        self.routing = routing

    def run(self, workload: Workload) -> RunResult:
        peak = peak_steps_of_day(workload)
        grid = value_grid(workload.requests, self.grid_points)
        cost_model = LinkCostModel(workload.topology,
                                   billing_window=workload.steps_per_day)
        best: RunResult | None = None
        best_welfare = -np.inf
        for off_price in grid:
            for peak_price in grid:
                if peak_price < off_price:
                    continue
                candidate = self._run_with_prices(workload, peak, off_price,
                                                  peak_price)
                candidate_welfare = total_value(candidate) - \
                    cost_model.true_cost(candidate.loads)
                if candidate_welfare > best_welfare:
                    best_welfare = candidate_welfare
                    best = candidate
        assert best is not None
        return best

    def _run_with_prices(self, workload: Workload, peak: set[int],
                         off_price: float, peak_price: float) -> RunResult:
        steps_per_day = workload.steps_per_day

        def price_at(t: int) -> float:
            return peak_price if (t % steps_per_day) in peak else off_price

        items = []
        for request in workload.requests:
            allowed = {t for t in request.window
                       if t < workload.n_steps
                       and price_at(t) <= request.value + EPS}
            if allowed:
                items.append(ScheduleItem(request=request, weight=1.0,
                                          cap=request.demand,
                                          allowed_steps=allowed))
        # As with RegionOracle, admitted volume is a commitment: maximise
        # it first, then minimise percentile costs at that volume.
        schedule = solve_offline_schedule(
            workload, items, topk_fraction=self.topk_fraction,
            topk_encoding=self.topk_encoding, include_costs=True,
            objective="bytes_then_cost", route_count=self.route_count,
            routing=self.routing)
        payments = {}
        for rid, series in schedule.per_step.items():
            payments[rid] = float(sum(price_at(t) * volume
                                      for t, volume in enumerate(series)
                                      if volume > EPS))
        chosen = {item.request.rid: item.request.demand for item in items}
        return run_result(workload, self.name, schedule, payments=payments,
                          chosen=chosen,
                          extras={"off_price": off_price,
                                  "peak_price": peak_price,
                                  "peak_steps": sorted(peak)})
