"""The offline optimal benchmark (OPT, paper §6.1 baseline 1).

OPT knows every future request *and its true value* and solves the
welfare-maximising LP over the whole horizon, with the same top-k cost
proxy Pretium uses ("an upper bound on the welfare of any TE+pricing
scheme that approximates 95th percentile costs", §6.1).  Every figure that
reports "welfare relative to OPT" divides by this scheme's welfare.

OPT is a planning benchmark, not a market: it charges nothing, so its
profit is not meaningful and is never plotted.
"""

from __future__ import annotations

from ..sim.engine import RunResult
from ..traffic.workload import Workload
from .base import OfflineScheme, ScheduleItem, run_result, \
    solve_offline_schedule


class OfflineOptimal(OfflineScheme):
    """Hindsight welfare maximisation with true values."""

    name = "OPT"

    def __init__(self, route_count: int = 3, topk_fraction: float = 0.1,
                 routing: str = "kpaths") -> None:
        self.route_count = route_count
        self.topk_fraction = topk_fraction
        self.routing = routing

    def run(self, workload: Workload) -> RunResult:
        items = [ScheduleItem(request=r, weight=r.value, cap=r.demand)
                 for r in workload.requests]
        schedule = solve_offline_schedule(
            workload, items, route_count=self.route_count,
            topk_fraction=self.topk_fraction, include_costs=True,
            routing=self.routing)
        return run_result(workload, self.name, schedule,
                          extras={"objective": schedule.objective})
