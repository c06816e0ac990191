"""The batched LP builders ``src/`` had before the shared emitters of
:mod:`repro.lp.grouping` (see DESIGN, "LP hot path"): one pair of
``Model`` calls per contract and a Python loop per (metered link, billing
window) emitting load variables, load-coupling rows and the top-k
encoding, in three copies (SAM, PC, the offline baselines).  Kept
verbatim as the oracle the emitters must assemble identical models to;
the only edits are SAM's incidence, which the parent read from a
per-contract skeleton cached across steps and is here a fresh per-route
build over the remaining window (:func:`route_incidence` below), and the
offline builder's signature, which lost the ``route_count`` nothing
read.  The top-k
encoding is :func:`repro.lp.add_sum_topk_coo` itself: the parent's copy
emitted the same rows, and ``tests/lp/test_coo_model.py`` holds the
emitter to the term-by-term encodings of :mod:`tests.reference.expr`.

:func:`route_incidence` is :func:`repro.lp.grouping.route_incidence` as
it was before it read the route shape's compiled template: the per-route
oracle the template must reproduce in value and dtype.
"""

import numpy as np

from repro.baselines.base import EPS as OFFLINE_EPS
from repro.baselines.base import OfflineSchedule, ScheduleItem, \
    _lexicographic_priority
from repro.core.admission import EPS, Contract
from repro.core.pricer import PriceComputer
from repro.core.sam import ScheduleAdjuster, Transmission
from repro.lp import GE, LE, Model, add_sum_topk_coo
from repro.lp import grouping
from repro.network import Path, PathCache
from repro.traffic.workload import Workload


def _concat(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def route_incidence(routes, steps: np.ndarray):
    """(link, timestep, variable) per incidence of a routes x steps grid.

    The grid is route-major — variable ``r * len(steps) + j`` is the flow
    on ``routes[r]`` at ``steps[j]`` — and each variable appears once per
    link of its route.  Variables are relative to the grid's first.
    """
    n = steps.size
    links, entry_steps, variables = [], [], []
    for r, path in enumerate(routes):
        link_indices = np.asarray(path.link_indices())
        links.append(np.tile(link_indices, n))
        entry_steps.append(np.repeat(steps, link_indices.size))
        variables.append(np.repeat(np.arange(r * n, (r + 1) * n),
                                   link_indices.size))
    return _concat(links), _concat(entry_steps), _concat(variables)


class PairGroups(grouping.PairGroups):
    """The parent's per-pair accessors, which the per-window loops used."""

    __slots__ = ("_rank_index",)

    def __init__(self, links, steps, values, n_steps) -> None:
        super().__init__(links, steps, values, n_steps)
        self._rank_index = None

    def members(self, rank: int) -> np.ndarray:
        """Values of the entries in group ``rank`` (original order)."""
        return self._sorted_values[
            self._offsets[rank]:self._offsets[rank + 1]]

    def rank_of(self, link: int, step: int) -> int | None:
        """Group rank of a (link, step) pair, or ``None`` if absent."""
        if self._rank_index is None:
            self._rank_index = {
                (int(link), int(t)): rank
                for rank, (link, t) in enumerate(zip(self.links, self.steps))}
        return self._rank_index.get((link, step))


class ReferenceAdjuster(ScheduleAdjuster):
    """``ScheduleAdjuster`` building its LP the parent's way."""

    def _solve_coo(self, active: list[Contract], delivered: dict[int, float],
                   realized_loads: np.ndarray, now: int,
                   enforce_guarantees: bool) -> list[Transmission]:
        """Array-native twin of :meth:`_solve_expr`.

        Variables and constraints are emitted in exactly the reference
        order (contract flows + demand/guarantee rows, then capacity and
        smoothing rows per first-encountered (link, timestep) pair, then
        the per-window percentile-cost proxy), so HiGHS sees the
        identical LP and returns the identical plan and duals.

        Each contract's incidence is built afresh over its remaining
        window, route by route (:func:`route_incidence`).
        """
        state = self.state
        config = state.config
        model = Model(sense="max", name=f"sam@{now}")

        obj_cols: list[np.ndarray] = []
        obj_vals: list[np.ndarray] = []
        plan_entries: list[tuple[Contract, Path, np.ndarray, np.ndarray]] = []
        inc_links: list[np.ndarray] = []
        inc_steps: list[np.ndarray] = []
        inc_vars: list[np.ndarray] = []
        for contract in active:
            request = contract.request
            routes = state.paths.routes(request.src, request.dst,
                                        rid=request.rid)
            steps = np.arange(max(request.start, now), request.deadline + 1)
            rel_links, rel_steps, rel_vars = route_incidence(routes, steps)
            n_vars = len(routes) * steps.size
            if n_vars == 0:
                continue
            remaining_cap = contract.chosen - delivered.get(contract.rid, 0.0)
            cls = state.class_for(request)
            value = contract.marginal_price if cls.weight == 1.0 \
                else cls.weight * contract.marginal_price
            block = model.add_variables_array(
                n_vars, f"x[{contract.rid}]", lb=0.0, ub=remaining_cap)
            flows = block.indices.reshape(len(routes), steps.size)
            obj_cols.append(flows.ravel())
            obj_vals.append(np.full(n_vars, value))
            for r, path in enumerate(routes):
                plan_entries.append((contract, path, steps, flows[r]))
            inc_links.append(rel_links)
            inc_steps.append(rel_steps)
            inc_vars.append(rel_vars + block.start)
            rows = [np.zeros(n_vars, dtype=np.int64)]
            cols = [flows.ravel()]
            vals = [np.ones(n_vars)]
            senses = [LE]
            rhs = [remaining_cap]
            if enforce_guarantees:
                need = contract.guaranteed - delivered.get(contract.rid, 0.0)
                if need > EPS:
                    rows.append(np.ones(n_vars, dtype=np.int64))
                    cols.append(flows.ravel())
                    vals.append(np.ones(n_vars))
                    senses.append(GE)
                    rhs.append(need)
                    if cls.preemptible:
                        # Soft guarantee: a slack variable lets the LP
                        # renege on a preemptible contract's remaining
                        # guarantee, at a penalty steep enough (twice
                        # the weighted value plus the floor) that it
                        # only pays off when the capacity is worth more
                        # to non-preemptible traffic.
                        slack = model.add_variables_array(
                            1, f"preempt[{contract.rid}]", lb=0.0)
                        rows.append(np.ones(1, dtype=np.int64))
                        cols.append(slack.indices)
                        vals.append(np.ones(1))
                        obj_cols.append(slack.indices)
                        obj_vals.append(np.array(
                            [-(2.0 * value + config.price_floor)]))
            model.add_constraints_coo(
                np.concatenate(rows), np.concatenate(cols),
                np.concatenate(vals), senses, rhs,
                name=f"demand[{contract.rid}]")

        groups = PairGroups(
            np.concatenate(inc_links) if inc_links else np.zeros(0, np.int64),
            np.concatenate(inc_steps) if inc_steps else np.zeros(0, np.int64),
            np.concatenate(inc_vars) if inc_vars else np.zeros(0, np.int64),
            state.n_steps)

        # Capacity per touched (link, timestep) pair, with the smoothing
        # overflow nudge interleaved exactly as the reference builder
        # emits it (see _solve_expr for the rationale).
        caps = state.capacity[groups.steps, groups.links].astype(float)
        smoothing_weight = config.price_floor * 0.1
        smoothing = config.short_term_adjustment and smoothing_weight > 0 \
            and groups.n > 0
        n_entries = groups.rows.size
        if smoothing:
            over = model.add_variables_array(groups.n, "over", lb=0.0)
            rows = np.concatenate([2 * groups.rows, 2 * groups.rows + 1,
                                   2 * np.arange(groups.n) + 1])
            cols = np.concatenate([groups.values, groups.values,
                                   over.indices])
            vals = np.concatenate([np.ones(n_entries), -np.ones(n_entries),
                                   np.ones(groups.n)])
            senses = np.tile(np.array([LE, GE]), groups.n)
            rhs = np.empty(2 * groups.n)
            rhs[0::2] = caps
            rhs[1::2] = -(config.congestion_threshold * caps)
            model.add_constraints_coo(rows, cols, vals, senses, rhs,
                                      name="cap")
            obj_cols.append(over.indices)
            obj_vals.append(np.full(groups.n, -smoothing_weight))
        elif groups.n:
            model.add_constraints_coo(groups.rows, groups.values,
                                      np.ones(n_entries), LE, caps,
                                      name="cap")

        self._cost_proxy_coo(model, groups, realized_loads, now,
                             obj_cols, obj_vals)

        model.set_objective_coo(
            np.concatenate(obj_cols) if obj_cols else np.zeros(0, np.int64),
            np.concatenate(obj_vals) if obj_vals else np.zeros(0))
        solution = self._solve_lp(model, now)

        x = solution.x
        plan = []
        for contract, path, steps, variables in plan_entries:
            volumes = x[variables]
            links = path.link_indices()
            for j in np.nonzero(volumes > EPS)[0]:
                plan.append(Transmission(contract.rid, links,
                                         int(steps[j]), float(volumes[j])))
        return plan

    def _cost_proxy_coo(self, model: Model, groups: PairGroups,
                        realized_loads: np.ndarray, now: int,
                        obj_cols: list[np.ndarray],
                        obj_vals: list[np.ndarray]) -> None:
        """COO twin of :meth:`_cost_proxy_terms` (same emission order)."""
        state = self.state
        config = state.config
        touched_links = set(groups.links.tolist())
        for link in state.topology.metered_links():
            if link.index not in touched_links:
                continue
            link_steps = groups.steps[groups.links == link.index]
            window_starts = sorted({
                (int(t) // self.billing_window) * self.billing_window
                for t in link_steps})
            for window_start in window_starts:
                window_end = min(window_start + self.billing_window,
                                 state.n_steps)
                length = window_end - window_start
                k = max(1, int(round(config.topk_fraction * length)))
                window = np.arange(window_start, window_end)
                ranks = [groups.rank_of(link.index, int(t)) for t in window]
                # Load variables per window step: realised past steps are
                # pinned (lb == ub), steps without flows pinned to zero.
                lbs = np.zeros(length)
                ubs = np.zeros(length)
                past = window < now
                lbs[past] = realized_loads[window[past], link.index]
                ubs[past] = lbs[past]
                flow_steps = np.array([rank is not None for rank in ranks]) \
                    & ~past
                ubs[flow_steps] = np.inf
                loads = model.add_variables_array(
                    length, f"load[{link.index}]", lb=lbs, ub=ubs)
                rows, cols, vals = [], [], []
                row = 0
                for j in np.nonzero(flow_steps)[0]:
                    flows = groups.members(ranks[j])
                    rows.extend([row] * (1 + flows.size))
                    cols.append(loads.start + j)
                    cols.extend(flows.tolist())
                    vals.extend([1.0] + [-1.0] * flows.size)
                    row += 1
                if row:
                    model.add_constraints_coo(
                        rows, cols, vals, "==", np.zeros(row),
                        name=f"load[{link.index}]")
                bound = add_sum_topk_coo(
                    model, loads.indices, k,
                    name=f"z[{link.index},{window_start}]",
                    encoding=config.topk_encoding)
                obj_cols.append(np.array([bound]))
                obj_vals.append(np.array([-(link.cost_per_unit / k)]))


class ReferencePriceComputer(PriceComputer):
    """``PriceComputer`` building its LP the parent's way."""

    def _solve_offline_coo(self, contracts: list[Contract],
                           period_start: int, period_end: int
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Array-native twin of :meth:`_solve_offline_expr` (same
        variable/constraint emission order, so HiGHS returns the same
        degenerate dual vertex)."""
        state = self.state
        config = state.config
        n_links = state.topology.num_links
        period_len = period_end - period_start
        model = Model(sense="max", name=f"pc@{period_end}")

        obj_cols: list[np.ndarray] = []
        obj_vals: list[np.ndarray] = []
        inc_links: list[np.ndarray] = []
        inc_steps: list[np.ndarray] = []
        inc_vars: list[np.ndarray] = []
        for contract in contracts:
            request = contract.request
            routes = state.paths.routes(request.src, request.dst,
                                        rid=request.rid)
            first = max(request.start, period_start)
            last = min(request.deadline, period_end - 1)
            steps = np.arange(first, last + 1)
            n_vars = len(routes) * steps.size
            if n_vars == 0:
                continue
            block = model.add_variables_array(
                n_vars, f"x[{contract.rid}]", lb=0.0)
            flows = block.indices.reshape(len(routes), steps.size)
            obj_cols.append(flows.ravel())
            obj_vals.append(np.full(n_vars, contract.marginal_price))
            for r, path in enumerate(routes):
                link_indices = np.asarray(path.link_indices())
                inc_links.append(np.tile(link_indices, steps.size))
                inc_steps.append(np.repeat(steps, link_indices.size))
                inc_vars.append(np.repeat(flows[r], link_indices.size))
            model.add_constraints_coo(
                np.zeros(n_vars, dtype=np.int64), flows.ravel(),
                np.ones(n_vars), LE, contract.chosen,
                name=f"demand[{contract.rid}]")

        groups = PairGroups(
            np.concatenate(inc_links) if inc_links else np.zeros(0, np.int64),
            np.concatenate(inc_steps) if inc_steps else np.zeros(0, np.int64),
            np.concatenate(inc_vars) if inc_vars else np.zeros(0, np.int64),
            state.n_steps)
        cap_block = None
        if groups.n:
            caps = state.capacity[groups.steps, groups.links].astype(float)
            cap_block = model.add_constraints_coo(
                groups.rows, groups.values, np.ones(groups.rows.size),
                LE, caps, name="cap")

        # Percentile-cost proxy; one load-coupling equality per window
        # step (its dual carries the cost gradient — see the reference
        # builder for why the LP dual, not a top-k rule, is used).
        load_blocks: list[tuple[int, int, np.ndarray, object]] = []
        touched_links = set(groups.links.tolist())
        for link in state.topology.metered_links():
            if link.index not in touched_links:
                continue
            link_steps = groups.steps[groups.links == link.index]
            window_starts = sorted({
                (int(t) // self.billing_window) * self.billing_window
                for t in link_steps})
            for window_start in window_starts:
                window_end = min(window_start + self.billing_window,
                                 state.n_steps)
                length = window_end - window_start
                k = max(1, int(round(config.topk_fraction * length)))
                window = np.arange(window_start, window_end)
                loads = model.add_variables_array(
                    length, f"load[{link.index}]", lb=0.0)
                rows, cols, vals = [], [], []
                for j, t in enumerate(window):
                    rank = groups.rank_of(link.index, int(t))
                    members = groups.members(rank) if rank is not None \
                        else np.zeros(0, np.int64)
                    rows.extend([j] * (1 + members.size))
                    cols.append(loads.start + j)
                    cols.extend(members.tolist())
                    vals.extend([1.0] + [-1.0] * members.size)
                block = model.add_constraints_coo(
                    rows, cols, vals, "==", np.zeros(length),
                    name=f"load[{link.index}]")
                load_blocks.append((link.index, window_start, window, block))
                bound = add_sum_topk_coo(
                    model, loads.indices, k,
                    name=f"z[{link.index},{window_start}]",
                    encoding=config.topk_encoding)
                obj_cols.append(np.array([bound]))
                obj_vals.append(np.array([-(link.cost_per_unit / k)]))

        model.set_objective_coo(
            np.concatenate(obj_cols) if obj_cols else np.zeros(0, np.int64),
            np.concatenate(obj_vals) if obj_vals else np.zeros(0))
        solution = self._solve_lp(model, period_end)

        duals = np.zeros((period_len, n_links))
        if cap_block is not None:
            cap_duals = np.maximum(0.0, solution.dual_array(cap_block))
            in_period = (groups.steps >= period_start) \
                & (groups.steps < period_end)
            duals[groups.steps[in_period] - period_start,
                  groups.links[in_period]] = cap_duals[in_period]
        # Cost gradients, redistributed uniformly per billing window and
        # capped at the levelled marginal cost (same policy and rationale
        # as the reference builder).
        covered = np.zeros((period_len, n_links), dtype=bool)
        leveling = config.initial_metered_leveling
        unit_cost = {link.index: link.cost_per_unit
                     for link in state.topology.metered_links()}
        for index, _window_start, window, block in load_blocks:
            mass = float(np.maximum(
                0.0, -solution.dual_array(block)).sum())
            uniform = min(mass / window.size, unit_cost[index] / leveling)
            sel = (window >= period_start) & (window < period_end)
            duals[window[sel] - period_start, index] += uniform
            covered[window[sel] - period_start, index] = True
        return duals, covered


def _solve_offline_schedule_coo(workload: Workload,
                                items: list[ScheduleItem],
                                topk_fraction: float,
                                topk_encoding: str, include_costs: bool,
                                objective: str,
                                paths: PathCache) -> OfflineSchedule:
    """Array-native twin of :func:`_solve_offline_schedule_expr` (same
    emission order, so the solved schedule is identical)."""
    topology = workload.topology
    n_steps = workload.n_steps
    model = Model(sense="max", name="offline-schedule")

    obj_cols: list[np.ndarray] = []
    obj_vals: list[np.ndarray] = []
    request_entries: list[tuple[int, np.ndarray, np.ndarray]] = []
    inc_links: list[np.ndarray] = []
    inc_steps: list[np.ndarray] = []
    inc_vars: list[np.ndarray] = []
    has_value_terms = False
    n_value_arrays = 0
    for item in items:
        request = item.request
        if item.cap <= OFFLINE_EPS:
            continue
        routes = paths.routes(request.src, request.dst,
                              rid=request.rid)
        steps = np.arange(request.start, min(request.deadline + 1, n_steps))
        if item.allowed_steps is not None:
            steps = steps[[t in item.allowed_steps for t in steps.tolist()]]
        n_vars = len(routes) * steps.size
        if n_vars == 0:
            continue
        block = model.add_variables_array(
            n_vars, f"x[{request.rid}]", lb=0.0)
        flows = block.indices.reshape(len(routes), steps.size)
        if item.weight:
            has_value_terms = True
            n_value_arrays += 1
            obj_cols.append(flows.ravel())
            obj_vals.append(np.full(n_vars, float(item.weight)))
        for r, path in enumerate(routes):
            request_entries.append((request.rid, steps, flows[r]))
            link_indices = np.asarray(path.link_indices())
            inc_links.append(np.tile(link_indices, steps.size))
            inc_steps.append(np.repeat(steps, link_indices.size))
            inc_vars.append(np.repeat(flows[r], link_indices.size))
        model.add_constraints_coo(
            np.zeros(n_vars, dtype=np.int64), flows.ravel(),
            np.ones(n_vars), LE, item.cap, name=f"cap[{request.rid}]")

    groups = PairGroups(
        np.concatenate(inc_links) if inc_links else np.zeros(0, np.int64),
        np.concatenate(inc_steps) if inc_steps else np.zeros(0, np.int64),
        np.concatenate(inc_vars) if inc_vars else np.zeros(0, np.int64),
        n_steps)
    capacities = np.array([link.capacity for link in topology.links])
    if groups.n:
        model.add_constraints_coo(
            groups.rows, groups.values, np.ones(groups.rows.size), LE,
            capacities[groups.links].astype(float), name="edge")

    n_cost_terms = 0
    if include_costs:
        billing = workload.steps_per_day
        touched_links = set(groups.links.tolist())
        for link in topology.metered_links():
            if link.index not in touched_links:
                continue
            link_steps = groups.steps[groups.links == link.index]
            window_starts = sorted({
                (int(t) // billing) * billing for t in link_steps})
            for window_start in window_starts:
                window_end = min(window_start + billing, n_steps)
                length = window_end - window_start
                k = max(1, int(round(topk_fraction * length)))
                window = np.arange(window_start, window_end)
                ranks = [groups.rank_of(link.index, int(t)) for t in window]
                flow_steps = np.array([rank is not None for rank in ranks])
                ubs = np.zeros(length)
                ubs[flow_steps] = np.inf
                loads = model.add_variables_array(
                    length, f"load[{link.index}]", lb=0.0, ub=ubs)
                rows, cols, vals = [], [], []
                row = 0
                for j in np.nonzero(flow_steps)[0]:
                    members = groups.members(ranks[j])
                    rows.extend([row] * (1 + members.size))
                    cols.append(loads.start + j)
                    cols.extend(members.tolist())
                    vals.extend([1.0] + [-1.0] * members.size)
                    row += 1
                if row:
                    model.add_constraints_coo(
                        rows, cols, vals, "==", np.zeros(row),
                        name=f"load[{link.index}]")
                bound = add_sum_topk_coo(
                    model, loads.indices, k,
                    name=f"z[{link.index},{window_start}]",
                    encoding=topk_encoding)
                obj_cols.append(np.array([bound]))
                obj_vals.append(np.array([-(link.cost_per_unit / k)]))
                n_cost_terms += 1

    if not has_value_terms and n_cost_terms == 0:
        return OfflineSchedule(np.zeros((n_steps, topology.num_links)), {},
                               {}, 0.0)

    if objective == "bytes_then_cost" and has_value_terms and n_cost_terms:
        priority = _lexicographic_priority(topology)
        obj_vals = [vals * priority if i < n_value_arrays else vals
                    for i, vals in enumerate(obj_vals)]
    model.set_objective_coo(np.concatenate(obj_cols),
                            np.concatenate(obj_vals))
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
    for rid, steps, variables in request_entries:
        series = series_by_rid.setdefault(rid, np.zeros(n_steps))
        np.add.at(series, steps, x[variables])
    for rid, series in series_by_rid.items():
        if series.sum() > OFFLINE_EPS:
            delivered[rid] = float(series.sum())
            per_step[rid] = series

    return OfflineSchedule(loads=loads, delivered=delivered,
                           per_step=per_step,
                           objective=float(solution.objective))
