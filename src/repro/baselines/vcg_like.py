"""VCG-like spot market (paper §6.1 baseline 5).

Models a demand-driven spot market: customers submit bids equal to their
values; at every timestep each unfinished byte request is converted into
a rate request ``r_i = remaining / steps-to-deadline``, the provider
solves a per-step allocation maximising declared welfare
``sum_i b_i x_i`` (ignoring operating costs), and each served customer is
charged their VCG payment — the externality they impose on the others,
computed by re-solving the step's allocation without them.

As the paper notes, the scheme is myopic (per-step), ignores provider
costs, and is not truthful across steps; it serves as the auction-flavoured
point of comparison for Pretium's pricing approach.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..lp import LE, Model
from ..network import PathCache
from ..sim.engine import RunResult
from ..traffic.workload import Workload
from .base import EPS, OfflineScheme, run_result


class VCGLike(OfflineScheme):
    """Per-timestep spot market with VCG payments."""

    name = "VCGLike"

    def __init__(self, route_count: int = 3,
                 routing: str = "kpaths") -> None:
        self.route_count = route_count
        self.routing = routing

    def run(self, workload: Workload) -> RunResult:
        topology = workload.topology
        paths = PathCache(topology, k=self.route_count,
                          policy=self.routing)
        capacities = np.array([link.capacity for link in topology.links])
        loads = np.zeros((workload.n_steps, topology.num_links))
        delivered: dict[int, float] = defaultdict(float)
        payments: dict[int, float] = defaultdict(float)

        for t in range(workload.n_steps):
            active = [r for r in workload.requests
                      if r.start <= t <= r.deadline
                      and delivered[r.rid] < r.demand - EPS]
            if not active:
                continue
            rates = {r.rid: (r.demand - delivered[r.rid])
                     / (r.deadline - t + 1) for r in active}
            allocation, welfare_all, link_duals = self._step_allocation(
                active, rates, paths, capacities)
            for rid, (volume, link_use) in allocation.items():
                if volume <= EPS:
                    continue
                delivered[rid] += volume
                for index, used in link_use.items():
                    loads[t, index] += used

            # VCG payment: welfare of others without i minus with i.  A
            # winner whose links all have zero congestion duals displaces
            # nobody (removing it cannot help the others), so the
            # externality is zero and the re-solve can be skipped.
            winners = [r for r in active
                       if allocation.get(r.rid, (0.0, {}))[0] > EPS]
            for request in winners:
                used_links = allocation[request.rid][1]
                if all(link_duals.get(index, 0.0) <= EPS
                       for index in used_links):
                    continue
                others = [r for r in active if r.rid != request.rid]
                if others:
                    _, welfare_without, _ = self._step_allocation(
                        others, rates, paths, capacities)
                else:
                    welfare_without = 0.0
                welfare_others_with = welfare_all - request.value * \
                    allocation[request.rid][0]
                payments[request.rid] += max(
                    0.0, welfare_without - welfare_others_with)

        schedule_like = _Schedule(loads, dict(delivered))
        chosen = {r.rid: r.demand for r in workload.requests
                  if delivered.get(r.rid, 0.0) > EPS}
        return run_result(workload, self.name, schedule_like,
                          payments=dict(payments), chosen=chosen)

    def _step_allocation(self, requests, rates, paths: PathCache,
                         capacities: np.ndarray
                         ) -> tuple[dict[int, tuple[float, dict[int, float]]],
                                    float, dict[int, float]]:
        """One spot auction: maximise declared welfare under capacities.

        Returns (per-request allocation with per-link usage, declared
        welfare of the allocation, per-link capacity duals).
        """
        routes = [paths.routes(request.src, request.dst, rid=request.rid)
                  for request in requests]
        # One flow variable per (request, route), in request order; one
        # rate row per request with a route; one capacity row per link,
        # in the order the flows first touch it.
        served = [(request, len(request_routes)) for request, request_routes
                  in zip(requests, routes) if request_routes]
        if not served:
            return {}, 0.0, {}
        counts = [count for _, count in served]
        var_rids = [request.rid for request, count in served
                    for _ in range(count)]
        var_links = [path.link_indices() for request_routes in routes
                     for path in request_routes]
        cap_row: dict[int, int] = {}
        cap_rows, cap_cols = [], []
        for var, links in enumerate(var_links):
            for index in links:
                cap_rows.append(cap_row.setdefault(index, len(cap_row)))
                cap_cols.append(var)

        model = Model(sense="max", name="vcg-step")
        flows = model.add_variables_array(len(var_links), "x", lb=0.0)
        model.add_constraints_coo(
            np.repeat(np.arange(len(served)), counts), flows.indices,
            np.ones(flows.count), LE,
            [rates[request.rid] for request, _ in served], name="rate")
        caps = model.add_constraints_coo(
            cap_rows, cap_cols, np.ones(len(cap_rows)), LE,
            capacities[list(cap_row)], name="cap")
        model.set_objective_coo(flows.indices, np.repeat(
            [request.value for request, _ in served], counts))
        solution = model.solve()

        link_duals = {index: max(0.0, dual) for index, dual
                      in zip(cap_row, solution.dual_array(caps).tolist())}
        allocation: dict[int, tuple[float, dict[int, float]]] = {}
        for rid, links, volume in zip(var_rids, var_links,
                                      solution.value_array(flows).tolist()):
            if volume <= EPS:
                continue
            total, link_use = allocation.get(rid, (0.0, {}))
            for index in links:
                link_use[index] = link_use.get(index, 0.0) + volume
            allocation[rid] = (total + volume, link_use)
        return allocation, float(solution.objective), link_duals


class _Schedule:
    """Duck-typed stand-in for :class:`~repro.baselines.base.OfflineSchedule`."""

    def __init__(self, loads, delivered):
        self.loads = loads
        self.delivered = delivered
        self.per_step = {}
        self.objective = 0.0
