"""Region-based fixed pricing with oracle price selection (paper §6.1).

RegionOracle closely resembles the price sheets in the paper's Table 2:
one price per byte for intra-region transfers and a higher one for
inter-region transfers.  It is an *oracle* because the two prices are
chosen in hindsight — every (intra, inter) pair from a value-quantile grid
is tried, and the pair with the best realised welfare (true values minus
true percentile cost) wins.

For a candidate pair, a request is admitted iff its value covers the
applicable price; admitted requests are then scheduled offline to move as
many bytes as possible net of percentile costs, and each pays the region
price per byte actually delivered.
"""

from __future__ import annotations

import numpy as np

from ..costs import LinkCostModel
from ..network.regions import is_inter_region
from ..sim.engine import RunResult
from ..sim.metrics import total_value
from ..traffic.workload import Workload
from .base import (EPS, OfflineScheme, ScheduleItem, run_result,
                   solve_offline_schedule, value_grid)


class RegionOracle(OfflineScheme):
    """Two fixed prices (intra/inter region), optimal in hindsight."""

    name = "RegionOracle"

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
        grid = value_grid(workload.requests, self.grid_points)
        cost_model = LinkCostModel(workload.topology,
                                   billing_window=workload.steps_per_day)
        best: RunResult | None = None
        best_welfare = -np.inf
        for intra in grid:
            for inter in grid:
                if inter < intra:
                    continue
                candidate = self._run_with_prices(workload, intra, inter)
                candidate_welfare = total_value(candidate) - \
                    cost_model.true_cost(candidate.loads)
                if candidate_welfare > best_welfare:
                    best_welfare = candidate_welfare
                    best = candidate
        assert best is not None
        return best

    def _applicable_price(self, workload: Workload, request, intra: float,
                          inter: float) -> float:
        if is_inter_region(workload.topology, request.src, request.dst):
            return inter
        return intra

    def _run_with_prices(self, workload: Workload, intra: float,
                         inter: float) -> RunResult:
        items = []
        prices = {}
        for request in workload.requests:
            price = self._applicable_price(workload, request, intra, inter)
            if request.value + EPS >= price:
                items.append(ScheduleItem(request=request, weight=1.0,
                                          cap=request.demand))
                prices[request.rid] = price
        # Admission is a commitment: transfer the maximum volume of the
        # admitted requests, then minimise percentile costs at that volume.
        schedule = solve_offline_schedule(
            workload, items, topk_fraction=self.topk_fraction,
            topk_encoding=self.topk_encoding, include_costs=True,
            objective="bytes_then_cost", route_count=self.route_count,
            routing=self.routing)
        payments = {rid: prices[rid] * volume
                    for rid, volume in schedule.delivered.items()}
        chosen = {item.request.rid: item.request.demand for item in items}
        return run_result(workload, self.name, schedule, payments=payments,
                          chosen=chosen,
                          extras={"intra_price": intra, "inter_price": inter})
