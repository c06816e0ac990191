"""Shared machinery for the offline baselines (paper §6.1).

All offline schemes reduce to one LP shape: route a set of requests, each
with a per-request volume cap and a per-unit objective weight, over the
whole horizon, subtracting the top-k percentile cost proxy.  The weights
differ (true values for OPT, 1 for NoPrices/oracles), as do the caps and
the per-(request, timestep) availability masks (PeakOracle restricts a
request to the steps it is willing to pay for).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..core.request import ByteRequest
from ..lp import Model
from ..lp.grouping import add_schedule, route_incidence
from ..network import PathCache
from ..sim.engine import RunResult
from ..traffic.workload import Workload

EPS = 1e-9


@dataclass
class ScheduleItem:
    """One request as the offline scheduler sees it.

    ``weight`` is the per-unit objective coefficient; ``cap`` the maximum
    volume to route; ``allowed_steps`` optionally restricts the timesteps
    (``None`` = the request's full window).
    """

    request: ByteRequest
    weight: float
    cap: float
    allowed_steps: Optional[set[int]] = None


@dataclass
class OfflineSchedule:
    """Solution of the offline scheduling LP."""

    loads: np.ndarray                      # (n_steps, n_links)
    delivered: dict[int, float]            # rid -> volume
    per_step: dict[int, np.ndarray]        # rid -> volume per timestep
    objective: float


def solve_offline_schedule(workload: Workload, items: list[ScheduleItem],
                           route_count: int = 3,
                           topk_fraction: float = 0.1,
                           include_costs: bool = True,
                           objective: str = "weighted",
                           routing: str = "kpaths"
                           ) -> OfflineSchedule:
    """Solve the offline routing LP over the full horizon.

    With ``objective="weighted"`` (OPT's semantics):

        maximise  sum_i weight_i * X_irt  -  sum_{e,w} (C_e / k) * topk_e,w

    With ``objective="bytes_then_cost"`` (the TE-baseline semantics:
    admitted transfers are *obligations*): first maximise the weighted
    volume ignoring costs, then — holding that volume optimal — minimise
    the percentile cost proxy.  This is how a deadline-TE scheduler that
    must serve what it admitted behaves; it cannot trade a customer's
    bytes away to save cost.

    Both are subject to per-request caps and per-(link, timestep)
    capacities.  ``routing`` selects the admissible-set policy (see
    :data:`repro.network.ROUTING_POLICIES`), so offline baselines
    optimise over the same route sets an online scheme under the same
    policy would quote over.
    """
    if objective not in ("weighted", "bytes_then_cost"):
        raise ValueError(f"unknown objective {objective!r}")
    paths = PathCache(workload.topology, k=route_count, policy=routing)
    return _solve_offline_schedule_coo(
        workload, items, topk_fraction, include_costs, objective, paths)


def _lexicographic_priority(topology) -> float:
    """Big-M weight making volume dominate cost (``bytes_then_cost``).

    A unit crosses at most a handful of metered links, each with marginal
    proxy cost at most ``C_e`` (k >= 1), so any priority above that keeps
    the volume stage lexicographically first in a single solve.
    """
    max_unit_cost = sum(sorted(
        (link.cost_per_unit for link in topology.metered_links()),
        reverse=True)[:4])
    return 10.0 * max(1.0, max_unit_cost)


def _solve_offline_schedule_coo(workload: Workload,
                                items: list[ScheduleItem],
                                topk_fraction: float,
                                include_costs: bool, objective: str,
                                paths: PathCache) -> OfflineSchedule:
    """Build the offline LP on :func:`~repro.lp.grouping.add_schedule`
    (the order of ``tests/reference/expr_builders.py``) and solve it;
    the gathering, the objective and the schedule are this function's."""
    topology = workload.topology
    n_steps = workload.n_steps
    model = Model(sense="max", name="offline-schedule")

    entries: list[tuple[int, int, np.ndarray]] = []
    counts, caps, weights, incidences = [], [], [], []
    for item in items:
        request = item.request
        if item.cap <= EPS:
            continue
        routes = paths.routes(request.src, request.dst,
                              rid=request.rid)
        steps = np.arange(request.start, min(request.deadline + 1, n_steps))
        if item.allowed_steps is not None:
            steps = steps[[t in item.allowed_steps for t in steps.tolist()]]
        if len(routes) * steps.size == 0:
            continue
        entries.append((request.rid, len(routes), steps))
        counts.append(len(routes) * steps.size)
        caps.append(item.cap)
        weights.append(float(item.weight))
        incidences.append(route_incidence(paths.shape(routes), steps))
    capacity = np.array([link.capacity for link in topology.links])
    lp = add_schedule(
        model, incidences, counts, caps,
        np.broadcast_to(capacity, (n_steps, capacity.size)),
        metered_links=topology.metered_links() if include_costs else (),
        billing=workload.steps_per_day, topk_fraction=topk_fraction)
    groups, costs = lp.groups, lp.costs
    values = np.repeat(weights, counts)

    if not values.any() and not costs.bounds.size:
        return OfflineSchedule(np.zeros((n_steps, topology.num_links)), {},
                               {}, 0.0)

    if objective == "bytes_then_cost" and values.any() and costs.bounds.size:
        # Lexicographic big-M: one solve instead of a (degenerate, slow)
        # two-stage formulation.
        values = values * _lexicographic_priority(topology)
    model.set_objective_coo(np.concatenate([lp.flows, costs.bounds]),
                            np.concatenate([values, costs.weights]))
    solution = model.solve()

    x = solution.x
    loads = np.zeros((n_steps, topology.num_links))
    if groups.n:
        per_pair = np.bincount(groups.rows, weights=x[groups.values],
                               minlength=groups.n)
        loads[groups.steps, groups.links] = per_pair
    delivered: dict[int, float] = {}
    per_step: dict[int, np.ndarray] = {}
    series_by_rid: dict[int, np.ndarray] = {}
    for (rid, n_routes, steps), start in zip(entries, lp.starts.tolist()):
        series = series_by_rid.setdefault(rid, np.zeros(n_steps))
        for r in range(n_routes):
            first = start + r * steps.size
            np.add.at(series, steps, x[first:first + steps.size])
    for rid, series in series_by_rid.items():
        if series.sum() > EPS:
            delivered[rid] = float(series.sum())
            per_step[rid] = series

    return OfflineSchedule(loads=loads, delivered=delivered,
                           per_step=per_step,
                           objective=float(solution.objective))


class OfflineScheme(ABC):
    """An evaluation scheme that computes its whole run in one shot."""

    name: str = "offline"

    @abstractmethod
    def run(self, workload: Workload) -> RunResult:
        """Produce a complete :class:`RunResult` for the workload."""


def run_result(workload: Workload, name: str, schedule: OfflineSchedule,
               payments: dict[int, float] | None = None,
               chosen: dict[int, float] | None = None,
               extras: dict | None = None) -> RunResult:
    """Package an offline schedule in the engine's result format."""
    delivery_log = {
        rid: [(t, float(volume)) for t, volume in enumerate(series)
              if volume > EPS]
        for rid, series in schedule.per_step.items()}
    return RunResult(workload=workload, scheme_name=name,
                     loads=schedule.loads, delivered=dict(schedule.delivered),
                     payments=payments or {},
                     chosen=chosen if chosen is not None
                     else dict(schedule.delivered),
                     extras=extras or {}, delivery_log=delivery_log)


def value_grid(requests, n_points: int = 6) -> list[float]:
    """Candidate prices for the oracle grids: value quantiles.

    The optimal fixed price is always at (just below) some request's
    value, so quantiles of the value distribution cover the search space.
    """
    values = sorted(r.value for r in requests)
    if not values:
        return [0.0]
    if n_points <= 1:
        return [values[len(values) // 2]]
    quantiles = np.linspace(0.0, 1.0, n_points)
    grid = sorted({float(np.quantile(values, q)) for q in quantiles})
    return grid
