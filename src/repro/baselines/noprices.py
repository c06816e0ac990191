"""Offline scheduling without prices (NoPrices, paper §6.1 baseline 2).

Mimics state-of-the-art TE schemes that do not use prices: since a
scheduler without payments "cannot credibly learn the customer values",
it is given full information about requests *except* values and maximises
total bytes transferred minus operating cost (value ≡ 1 per unit).  Its
welfare is then evaluated with the *true* values — which is how carrying
worthless traffic at real cost can make the measured welfare negative
(Figure 6).
"""

from __future__ import annotations

from ..sim.engine import RunResult
from ..traffic.workload import Workload
from .base import OfflineScheme, ScheduleItem, run_result, \
    solve_offline_schedule


class NoPrices(OfflineScheme):
    """Throughput-maximising offline TE, blind to values.

    ``mode`` selects how costs enter the scheduling LP:

    - ``"bytes_then_cost"`` (default): bytes are obligations — maximise
      volume first, then minimise the percentile proxy at that volume.
      This is how the deadline-TE systems the baseline mimics behave.
    - ``"cost_blind"``: pure throughput maximisation (costs ignored even
      as a tie-break).
    - ``"weighted"``: the literal single LP ``max bytes - cost``.
    """

    name = "NoPrices"

    MODES = ("bytes_then_cost", "cost_blind", "weighted")

    def __init__(self, route_count: int = 3, topk_fraction: float = 0.1,
                 mode: str = "bytes_then_cost",
                 routing: str = "kpaths") -> None:
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}")
        self.route_count = route_count
        self.topk_fraction = topk_fraction
        self.mode = mode
        self.routing = routing

    def run(self, workload: Workload) -> RunResult:
        items = [ScheduleItem(request=r, weight=1.0, cap=r.demand)
                 for r in workload.requests]
        schedule = solve_offline_schedule(
            workload, items, route_count=self.route_count,
            topk_fraction=self.topk_fraction,
            include_costs=self.mode != "cost_blind",
            objective="weighted" if self.mode == "weighted"
            else "bytes_then_cost", routing=self.routing)
        return run_result(workload, self.name, schedule,
                          extras={"objective": schedule.objective,
                                  "mode": self.mode})
