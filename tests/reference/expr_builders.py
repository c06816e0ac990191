"""LP builders ``src/`` once wrote term by term (:mod:`tests.reference.expr`).

- The schedule LPs of SAM, PC and the offline baselines, behind
  ``lp_builder="expr"`` until the knob was deleted: the first link of the
  chain expr == per-window loops (:mod:`tests.reference.lp_builders`) ==
  :mod:`repro.lp.grouping` emitters.  They assemble the emitters' LP
  array for array, but a zero in ``lhs``/``rhs`` may carry the other sign
  (the expression API moves constants across the relation), so the
  suites compare with ``np.array_equal``, not ``same_bytes``.
- VCGLike's per-step auction and Figure 2's Pretium row, which assemble
  to the same bytes as their array ports.

Verbatim, but for reading a plain :class:`~repro.lp.Solution` by index.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.baselines import VCGLike
from repro.baselines import base as offline
from repro.baselines.base import EPS as OFFLINE_EPS
from repro.baselines.base import OfflineSchedule, ScheduleItem, \
    _lexicographic_priority
from repro.core import pretium
from repro.core.admission import EPS, Contract
from repro.core.pricer import PriceComputer
from repro.core.sam import ScheduleAdjuster, Transmission
from repro.experiments.figure2 import EXAMPLE_REQUESTS, ROUTES, ExampleRow
from repro.network import Path, PathCache, figure2_network
from repro.traffic.workload import Workload
from tests.reference.expr import ExprModel as Model
from tests.reference.expr import add_sum_topk, quicksum


class ExprAdjuster(ScheduleAdjuster):
    """``ScheduleAdjuster`` building its LP term by term."""

    def _solve_expr(self, active: list[Contract],
                    delivered: dict[int, float],
                    realized_loads: np.ndarray, now: int,
                    enforce_guarantees: bool) -> list[Transmission]:
        """Reference expression-API builder (differential-test baseline)."""
        state = self.state
        config = state.config
        horizon = min(state.n_steps - 1,
                      max(c.request.deadline for c in active))
        model = Model(sense="max", name=f"sam@{now}")

        # Decision variables per (contract, route, timestep).
        entries: list[tuple[Contract, Path, int, object]] = []
        by_link_step: dict[tuple[int, int], list[object]] = {}
        value_terms = []
        for contract in active:
            request = contract.request
            routes = state.paths.routes(request.src, request.dst,
                                        rid=request.rid)
            first = max(request.start, now)
            remaining_cap = contract.chosen - delivered.get(contract.rid, 0.0)
            cls = state.class_for(request)
            value = contract.marginal_price if cls.weight == 1.0 \
                else cls.weight * contract.marginal_price
            flows = []
            for path in routes:
                for t in range(first, request.deadline + 1):
                    var = model.add_variable(
                        f"x[{contract.rid}]", lb=0.0, ub=remaining_cap)
                    entries.append((contract, path, t, var))
                    flows.append(var)
                    for index in path.link_indices():
                        by_link_step.setdefault((index, t), []).append(var)
                    value_terms.append(value * var)
            if not flows:
                continue
            total = quicksum(flows)
            model.add_constraint(total <= remaining_cap,
                                 name=f"demand[{contract.rid}]")
            if enforce_guarantees:
                need = contract.guaranteed - delivered.get(contract.rid, 0.0)
                if need > EPS:
                    if cls.preemptible:
                        # Same soft guarantee as the COO builder: the
                        # slack's penalty makes reneging strictly worse
                        # than delivering unless the freed capacity is
                        # worth more elsewhere.
                        slack = model.add_variable(
                            f"preempt[{contract.rid}]", lb=0.0)
                        model.add_constraint(
                            quicksum([*flows, slack]) >= need,
                            name=f"guarantee[{contract.rid}]")
                        value_terms.append(
                            -(2.0 * value + config.price_floor) * slack)
                    else:
                        model.add_constraint(
                            total >= need,
                            name=f"guarantee[{contract.rid}]")

        # Capacity per (link, timestep) actually used by any variable, plus
        # a tiny penalty on volume in the congested segment: SAM's LP has
        # many degenerate optima, and without this nudge the solver may
        # bunch traffic into few steps, pushing later arrivals into the
        # doubled-price segments the admission interface quotes from.
        smoothing_terms = []
        smoothing_weight = config.price_floor * 0.1
        for (index, t), variables in by_link_step.items():
            cap = float(state.capacity[t, index])
            model.add_constraint(quicksum(variables) <= cap,
                                 name=f"cap[{index},{t}]")
            if config.short_term_adjustment and smoothing_weight > 0:
                over = model.add_variable(f"over[{index},{t}]", lb=0.0)
                model.add_constraint(
                    over >= quicksum(variables)
                    - config.congestion_threshold * cap)
                smoothing_terms.append(smoothing_weight * over)

        cost_terms = self._cost_proxy_terms(model, by_link_step,
                                            realized_loads, now, horizon)
        cost_terms = cost_terms + smoothing_terms

        model.set_objective(quicksum(value_terms) - quicksum(cost_terms)
                            if cost_terms else quicksum(value_terms))
        solution = self._solve_lp(model, now)

        plan = [Transmission(contract.rid, path.link_indices(), t,
                             float(solution.x[var.index]))
                for contract, path, t, var in entries
                if float(solution.x[var.index]) > EPS]
        return plan

    def _cost_proxy_terms(self, model: Model,
                          by_link_step: dict[tuple[int, int], list[object]],
                          realized_loads: np.ndarray, now: int,
                          horizon: int) -> list[object]:
        """Top-k percentile-cost proxy over every touched billing window.

        For each metered link with decision variables in some billing
        window, build load variables for every step of the window —
        realised past steps become fixed variables — and charge
        ``C_e / k`` per unit of the sum-of-top-k bound.
        """
        state = self.state
        config = state.config
        touched_links = {index for (index, _t) in by_link_step}
        cost_terms = []
        for link in state.topology.metered_links():
            if link.index not in touched_links:
                continue
            window_starts = sorted({
                (t // self.billing_window) * self.billing_window
                for (index, t) in by_link_step if index == link.index})
            for window_start in window_starts:
                window_end = min(window_start + self.billing_window,
                                 state.n_steps)
                length = window_end - window_start
                k = max(1, int(round(config.topk_fraction * length)))
                loads = []
                for t in range(window_start, window_end):
                    flows = by_link_step.get((link.index, t))
                    if t < now:
                        past = float(realized_loads[t, link.index])
                        loads.append(model.add_variable(
                            f"past[{link.index},{t}]", lb=past, ub=past))
                    elif flows:
                        load = model.add_variable(
                            f"load[{link.index},{t}]", lb=0.0)
                        model.add_constraint(load == quicksum(flows))
                        loads.append(load)
                    else:
                        loads.append(model.add_variable(
                            f"zero[{link.index},{t}]", lb=0.0, ub=0.0))
                bound = add_sum_topk(model, loads, k,
                                     name=f"z[{link.index},{window_start}]")
                cost_terms.append((link.cost_per_unit / k) * bound)
        return cost_terms

    _solve_coo = _solve_expr


class ExprPriceComputer(PriceComputer):
    """``PriceComputer`` building its hindsight LP term by term."""

    def _solve_offline_expr(self, contracts: list[Contract],
                            period_start: int, period_end: int
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Reference expression-API builder (differential-test baseline)."""
        state = self.state
        config = state.config
        n_links = state.topology.num_links
        period_len = period_end - period_start
        model = Model(sense="max", name=f"pc@{period_end}")

        by_link_step: dict[tuple[int, int], list] = {}
        value_terms = []
        for contract in contracts:
            request = contract.request
            routes = state.paths.routes(request.src, request.dst,
                                        rid=request.rid)
            first = max(request.start, period_start)
            last = min(request.deadline, period_end - 1)
            flows = []
            for path in routes:
                for t in range(first, last + 1):
                    var = model.add_variable(f"x[{contract.rid}]", lb=0.0)
                    flows.append(var)
                    for index in path.link_indices():
                        by_link_step.setdefault((index, t), []).append(var)
                    value_terms.append(contract.marginal_price * var)
            if flows:
                model.add_constraint(quicksum(flows) <= contract.chosen,
                                     name=f"demand[{contract.rid}]")

        cap_constraints: dict[tuple[int, int], object] = {}
        for (index, t), variables in by_link_step.items():
            cap_constraints[(index, t)] = model.add_constraint(
                quicksum(variables) <= float(state.capacity[t, index]),
                name=f"cap[{index},{t}]")

        # Percentile-cost proxy per billing window intersecting the period.
        # The equality constraint tying each load variable to its flows
        # carries the cost gradient as its dual: at a levelled optimum the
        # top-k subgradient spreads fractionally over tied steps, which the
        # LP dual captures exactly (a hand-rolled "C_e/k on the top-k
        # steps" rule would overprice flat schedules ~W/k-fold).
        load_constraints: dict[tuple[int, int], object] = {}
        cost_terms = []
        for link in state.topology.metered_links():
            steps = [t for (index, t) in by_link_step if index == link.index]
            if not steps:
                continue
            window_starts = sorted({(t // self.billing_window)
                                    * self.billing_window for t in steps})
            for window_start in window_starts:
                window_end = min(window_start + self.billing_window,
                                 state.n_steps)
                length = window_end - window_start
                k = max(1, int(round(config.topk_fraction * length)))
                loads = []
                for t in range(window_start, window_end):
                    flows = by_link_step.get((link.index, t))
                    load = model.add_variable(
                        f"load[{link.index},{t}]", lb=0.0)
                    constraint = model.add_constraint(
                        load == (quicksum(flows) if flows else 0.0))
                    load_constraints[(link.index, t)] = constraint
                    loads.append(load)
                bound = add_sum_topk(model, loads, k,
                                     name=f"z[{link.index},{window_start}]")
                cost_terms.append((link.cost_per_unit / k) * bound)

        model.set_objective(quicksum(value_terms) - quicksum(cost_terms)
                            if cost_terms else quicksum(value_terms))
        solution = self._solve_lp(model, period_end)

        duals = np.zeros((period_len, n_links))
        for (index, t), constraint in cap_constraints.items():
            if period_start <= t < period_end:
                duals[t - period_start, index] = max(
                    0.0, float(solution.duals[constraint.index]))
        # Cost gradients: the equality is written load - flows == 0, so
        # raising its rhs injects phantom load; the objective falls by the
        # marginal cost, i.e. gradient = -dual.
        # Cost gradients are redistributed uniformly within each billing
        # window.  At a levelled optimum the dual is a degenerate vertex:
        # HiGHS may put the whole mass C_e on a few steps and zero on the
        # rest, and menus would then route through the "free" steps,
        # systematically undercharging.  Spreading the window's total
        # gradient mass evenly keeps exact cost recovery for levelled use
        # while closing the free-riding hole.
        covered = np.zeros((period_len, n_links), dtype=bool)
        gradient_mass: dict[tuple[int, int], float] = {}
        window_steps: dict[tuple[int, int], list[int]] = {}
        for (index, t), constraint in load_constraints.items():
            window_start = (t // self.billing_window) * self.billing_window
            key = (index, window_start)
            gradient_mass[key] = gradient_mass.get(key, 0.0) + max(
                0.0, -float(solution.duals[constraint.index]))
            window_steps.setdefault(key, []).append(t)
        # The uniform gradient is additionally capped at the *levelled*
        # marginal cost C_e / L: on a window the LP left idle, every
        # step's first-unit marginal is C_e/k, so the raw mass can reach
        # W * C_e/k and would lock the link out permanently.  The
        # coordinated (levelled) price keeps idle links purchasable; the
        # schedule adjuster levels the resulting aggregate so realised
        # percentile costs track what was charged.
        leveling = self.state.config.initial_metered_leveling
        unit_cost = {link.index: link.cost_per_unit
                     for link in self.state.topology.metered_links()}
        for (index, window_start), mass in gradient_mass.items():
            steps = window_steps[(index, window_start)]
            uniform = min(mass / len(steps), unit_cost[index] / leveling)
            for t in steps:
                if period_start <= t < period_end:
                    duals[t - period_start, index] += uniform
                    covered[t - period_start, index] = True
        return duals, covered

    _solve_offline_coo = _solve_offline_expr


def _solve_offline_schedule_expr(workload: Workload,
                                 items: list[ScheduleItem],
                                 topk_fraction: float,
                                 include_costs: bool, objective: str,
                                 paths: PathCache) -> OfflineSchedule:
    """Reference expression-API builder (differential-test baseline)."""
    topology = workload.topology
    n_steps = workload.n_steps
    model = Model(sense="max", name="offline-schedule")

    by_link_step: dict[tuple[int, int], list] = {}
    per_request_vars: dict[int, list[tuple[int, object]]] = {}
    value_terms = []
    for item in items:
        request = item.request
        if item.cap <= OFFLINE_EPS:
            continue
        routes = paths.routes(request.src, request.dst,
                              rid=request.rid)
        flows = []
        for path in routes:
            for t in range(request.start, min(request.deadline + 1, n_steps)):
                if item.allowed_steps is not None and \
                        t not in item.allowed_steps:
                    continue
                var = model.add_variable(f"x[{request.rid}]", lb=0.0)
                flows.append(var)
                per_request_vars.setdefault(request.rid, []).append((t, var))
                for index in path.link_indices():
                    by_link_step.setdefault((index, t), []).append(var)
                if item.weight:
                    value_terms.append(item.weight * var)
        if flows:
            model.add_constraint(quicksum(flows) <= item.cap,
                                 name=f"cap[{request.rid}]")

    capacities = np.array([link.capacity for link in topology.links])
    for (index, t), variables in by_link_step.items():
        model.add_constraint(quicksum(variables) <= float(capacities[index]),
                             name=f"edge[{index},{t}]")

    value_expr = quicksum(value_terms) if value_terms else None

    cost_terms = []
    if include_costs:
        billing = workload.steps_per_day
        for link in topology.metered_links():
            steps = sorted(t for (index, t) in by_link_step
                           if index == link.index)
            if not steps:
                continue
            window_starts = sorted({(t // billing) * billing for t in steps})
            for window_start in window_starts:
                window_end = min(window_start + billing, n_steps)
                length = window_end - window_start
                k = max(1, int(round(topk_fraction * length)))
                loads = []
                for t in range(window_start, window_end):
                    flows = by_link_step.get((link.index, t))
                    if flows:
                        load = model.add_variable(
                            f"load[{link.index},{t}]", lb=0.0)
                        model.add_constraint(load == quicksum(flows))
                        loads.append(load)
                    else:
                        loads.append(model.add_variable(
                            f"zero[{link.index},{t}]", lb=0.0, ub=0.0))
                bound = add_sum_topk(model, loads, k,
                                     name=f"z[{link.index},{window_start}]")
                cost_terms.append((link.cost_per_unit / k) * bound)

    if value_expr is None and not cost_terms:
        return OfflineSchedule(np.zeros((n_steps, topology.num_links)), {},
                               {}, 0.0)

    if objective == "weighted" or value_expr is None or not cost_terms:
        model.set_objective((value_expr - quicksum(cost_terms))
                            if cost_terms else value_expr)
    else:
        # Lexicographic big-M: one solve instead of a (degenerate, slow)
        # two-stage formulation.
        priority = _lexicographic_priority(topology)
        model.set_objective(priority * value_expr - quicksum(cost_terms))
    solution = model.solve()

    loads = np.zeros((n_steps, topology.num_links))
    delivered: dict[int, float] = {}
    per_step: dict[int, np.ndarray] = {}
    for item in items:
        rid = item.request.rid
        entries = per_request_vars.get(rid, [])
        if not entries:
            continue
        series = np.zeros(n_steps)
        for t, var in entries:
            series[t] += solution.value(var)
        if series.sum() > OFFLINE_EPS:
            delivered[rid] = float(series.sum())
            per_step[rid] = series
    for (index, t), variables in by_link_step.items():
        loads[t, index] = sum(solution.value(v) for v in variables)

    return OfflineSchedule(loads=loads, delivered=delivered,
                           per_step=per_step,
                           objective=float(solution.objective))


class ExprVCGLike(VCGLike):
    """``VCGLike`` building each step's auction term by term."""

    def _step_allocation(self, requests, rates, paths: PathCache,
                         capacities: np.ndarray
                         ) -> tuple[dict[int, tuple[float, dict[int, float]]],
                                    float, dict[int, float]]:
        """One spot auction: maximise declared welfare under capacities.

        Returns (per-request allocation with per-link usage, declared
        welfare of the allocation, per-link capacity duals).
        """
        model = Model(sense="max", name="vcg-step")
        per_request: dict[int, list] = {}
        by_link: dict[int, list] = {}
        var_paths: list[tuple[int, tuple[int, ...], object]] = []
        objective_terms = []
        for request in requests:
            routes = paths.routes(request.src, request.dst,
                                  rid=request.rid)
            flows = []
            for path in routes:
                var = model.add_variable(f"x[{request.rid}]", lb=0.0)
                flows.append(var)
                var_paths.append((request.rid, path.link_indices(), var))
                for index in path.link_indices():
                    by_link.setdefault(index, []).append(var)
                objective_terms.append(request.value * var)
            if flows:
                per_request[request.rid] = flows
                model.add_constraint(quicksum(flows) <= rates[request.rid],
                                     name=f"rate[{request.rid}]")
        if not objective_terms:
            return {}, 0.0, {}
        cap_constraints = {}
        for index, variables in by_link.items():
            cap_constraints[index] = model.add_constraint(
                quicksum(variables) <= float(capacities[index]),
                name=f"cap[{index}]")
        model.set_objective(quicksum(objective_terms))
        solution = model.solve()

        link_duals = {index: max(0.0, solution.dual(con))
                      for index, con in cap_constraints.items()}
        allocation: dict[int, tuple[float, dict[int, float]]] = {}
        for rid, links, var in var_paths:
            volume = solution.value(var)
            if volume <= EPS:
                continue
            total, link_use = allocation.get(rid, (0.0, {}))
            for index in links:
                link_use[index] = link_use.get(index, 0.0) + volume
            allocation[rid] = (total + volume, link_use)
        return allocation, float(solution.objective), link_duals


def expr_pretium_row() -> ExampleRow:
    """Per-(link, timestep) prices support the welfare-optimal schedule."""
    topology = figure2_network()
    model = Model(sense="max", name="fig2-opt")
    flows: dict[int, list] = {}
    by_link_step: dict[tuple[str, str, int], list] = {}
    terms = []
    for rid, _s, _d, value, demand, start, deadline in EXAMPLE_REQUESTS:
        request_flows = []
        for t in range(start, deadline + 1):
            var = model.add_variable(f"x[{rid},{t}]", lb=0.0)
            request_flows.append(var)
            terms.append(value * var)
            for key in ROUTES[rid]:
                by_link_step.setdefault((*key, t), []).append(var)
        flows[rid] = request_flows
        model.add_constraint(quicksum(request_flows) <= demand)
    for (u, v, t), variables in by_link_step.items():
        model.add_constraint(
            quicksum(variables) <= topology.link_between(u, v).capacity)
    model.set_objective(quicksum(terms))
    solution = model.solve()
    units = {rid: sum(solution.value(v) for v in request_flows)
             for rid, request_flows in flows.items()}
    return ExampleRow("pretium", "per (link,time)", units,
                      solution.objective)


@contextmanager
def expr_builders():
    """The expression builders in place of the shared emitters."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pretium, "ScheduleAdjuster", ExprAdjuster)
        patch.setattr(pretium, "PriceComputer", ExprPriceComputer)
        patch.setattr(offline, "_solve_offline_schedule_coo",
                      _solve_offline_schedule_expr)
        yield
