"""Schedule adjustment module (SAM, paper §4.2).

Once per timestep SAM re-solves the routing of every unfinished contract
from the current timestep to the last active deadline:

    maximize   sum_i lambda_i * X_irt  -  C(X)
    subject to sum_rt X_irt <= chosen_i - delivered_i      (demand)
               sum_rt X_irt >= guaranteed_i - delivered_i  (guarantee)
               sum_{i,r∋e} X_irt <= c_{e,t}                (capacity)

with the marginal admission price ``lambda_i`` standing in for the private
value, and ``C(X)`` the top-k percentile proxy of §4.2 over each billing
window.  Loads already realised earlier in a billing window enter the
top-k encoding as constants.

Infeasibility can only arise after a network fault shrinks capacity below
outstanding guarantees; SAM then retries without the guarantee constraints
(best effort to minimise reneging — §4.4 notes the likelihood is small).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..faults.resilience import RetryPolicy, resilient_solve
from ..lp import InfeasibleError, Model, session_for
from ..lp.grouping import add_schedule, route_incidence
from ..network import Path
from ..network.paths import RouteShape
from ..telemetry import get_registry, ledger
from .admission import EPS, Contract
from .state import NetworkState

#: Tolerance for "execution followed the plan exactly" in the fast-path
#: precondition (the engine replays the plan's own floats, so matches are
#: normally bit-exact; the tolerance only absorbs alternative engines).
_PLAN_TOLERANCE = 1e-9


@dataclass
class Transmission:
    """One scheduled (request, path, timestep) volume.

    ``links`` is the tuple of link indices along the chosen route.
    """

    rid: int
    links: tuple[int, ...]
    timestep: int
    volume: float


def contract_incidence(shape: RouteShape, start: int, deadline: int, now: int):
    """``(steps, links, entry steps, variables)`` of a contract's flows
    over ``[max(start, now), deadline]``: its routes' shape's template
    over the whole window ``[start, deadline]`` with the elapsed steps
    trimmed, equal to a fresh build over the remaining steps."""
    steps = np.arange(start, deadline + 1)
    links, entry_steps, variables = route_incidence(shape, steps)
    delta = max(now - start, 0)
    if delta == 0:
        return steps, links, entry_steps, variables
    keep = entry_steps >= now
    # Dropping the grid's leading `delta` columns shifts route r's block
    # by delta * r and its in-block offset by delta.
    variables = variables[keep]
    variables -= delta * (variables // steps.size + 1)
    return steps[delta:], links[keep], entry_steps[keep], variables


class ScheduleAdjuster:
    """The SAM module.

    Incremental machinery (both proven equivalent to a cold solve by
    the differential suite, ``tests/core/test_sam_incremental.py``):

    - a persistent :class:`~repro.lp.solver.SolverSession` (per
      ``config.solver_backend``) carries warm-start state across steps;
    - provably-quiet steps are served from the previous plan's tail
      without solving: when no arrival was offered, capacity is
      unchanged and the previous step executed its plan exactly, the
      new LP equals the old one with the executed
      step's variables pinned at their solved values — so the old
      optimum's tail is feasible and optimal for it (a better tail would
      contradict the old optimality), guarantees included.  Any failed
      precondition — the "guarantees may newly bind" cases — falls back
      to the exact solve.
    """

    def __init__(self, state: NetworkState, billing_window: int) -> None:
        if billing_window <= 0:
            raise ValueError("billing window must be positive")
        self.state = state
        self.billing_window = billing_window
        self._session = None
        #: Whether the last :meth:`adjust` was served by the fast path
        #: (the controller skips plan re-installation in that case: the
        #: reservations already are the plan tail).
        self.last_fast_path = False
        self._armed = False
        self._last_step: int | None = None
        self._last_plan: list[Transmission] = []
        self._expected: dict[int, float] = {}
        self._capacity_seen = -1

    def close(self) -> None:
        """Release the persistent solver session (idempotent)."""
        if self._session is not None:
            self._session.close()
            self._session = None

    def adjust(self, contracts: list[Contract],
               delivered: dict[int, float],
               realized_loads: np.ndarray,
               now: int,
               arrivals_since: int | None = None) -> \
            list[Transmission] | None:
        """Re-optimise all open contracts from timestep ``now`` onward.

        ``realized_loads[t, e]`` holds actual per-link volume for t < now.
        ``arrivals_since`` is the number of arrivals *offered* (admitted,
        rejected or scavenger) since the previous adjust — the
        controller's quiet-step signal; ``None`` (direct callers) means
        unknown and disables the fast path.  Returns the full new plan
        (transmissions at ``now`` and later), or ``None`` when there is
        nothing to schedule.
        """
        self.last_fast_path = False
        active = [c for c in contracts
                  if c.request.deadline >= now
                  and delivered.get(c.rid, 0.0) < c.chosen - EPS]
        if not active:
            self._disarm()
            return []

        if arrivals_since == 0:
            if self._fast_path_ok(delivered, now):
                get_registry().counter("sam.fast_path.hits").inc()
                tail = [tx for tx in self._last_plan if tx.timestep >= now]
                self._arm(tail, delivered, now)
                self.last_fast_path = True
                return tail
            get_registry().counter("sam.fast_path.misses").inc()
        self._disarm()

        try:
            plan = self._solve_coo(active, delivered, realized_loads, now,
                                   enforce_guarantees=True)
        except InfeasibleError:
            # A fault broke feasibility of the outstanding guarantees;
            # degrade to best effort rather than dropping the step.  The
            # ledger event is the auditor's waiver for guarantees that
            # consequently go unmet.  A best-effort plan never arms the
            # fast path: the next step must retry with guarantees.
            get_registry().counter("resilience.guarantee_drops.sam").inc()
            ledger.record("GUARANTEES_DROPPED", step=now,
                          n_active=len(active))
            return self._solve_coo(active, delivered, realized_loads, now,
                                   enforce_guarantees=False)
        self._arm(plan, delivered, now)
        return plan

    # -- quiet-step fast path ---------------------------------------------
    def _fast_path_ok(self, delivered: dict[int, float], now: int) -> bool:
        """All preconditions for reusing the previous plan's tail.

        Consecutive (armed step, unchanged capacity, executed-exactly)
        checks are exactly the cases where no guarantee can newly bind:
        the previous solve enforced every guarantee, and nothing the LP
        depends on has changed except the pinned, on-plan past.
        """
        if not self._armed or self._last_step != now - 1:
            return False
        if self.state.capacity_version != self._capacity_seen:
            return False
        expected = self._expected
        for rid in delivered.keys() | expected.keys():
            if abs(delivered.get(rid, 0.0) - expected.get(rid, 0.0)) \
                    > _PLAN_TOLERANCE:
                return False
        return True

    def _arm(self, plan: list[Transmission], delivered: dict[int, float],
             now: int) -> None:
        """Snapshot what the next step must look like for tail reuse."""
        expected = dict(delivered)
        for tx in plan:
            # Accumulated in plan order — the same float additions the
            # engine performs when executing this step.
            if tx.timestep == now:
                expected[tx.rid] = expected.get(tx.rid, 0.0) + tx.volume
        self._last_plan = plan
        self._last_step = now
        self._expected = expected
        self._capacity_seen = self.state.capacity_version
        self._armed = True

    def _disarm(self) -> None:
        self._armed = False
        self._last_plan = []
        self._expected = {}

    def _solve_lp(self, model: Model, now: int):
        """All SAM solves funnel through the resilience layer."""
        if self._session is None:
            self._session = session_for(self.state.config.solver_backend)
        return resilient_solve(
            model, "sam", now,
            policy=RetryPolicy.from_config(self.state.config),
            session=self._session)

    # -- LP construction ---------------------------------------------------
    def _solve_coo(self, active: list[Contract], delivered: dict[int, float],
                   realized_loads: np.ndarray, now: int,
                   enforce_guarantees: bool) -> list[Transmission]:
        """Build and solve the SAM LP over each contract's remaining
        window.

        :func:`~repro.lp.grouping.add_schedule` lays it out in the order
        of ``tests/reference/expr_builders.py``, so HiGHS sees the
        identical LP and returns the identical plan and duals.
        """
        state = self.state
        config = state.config
        model = Model(sense="max", name=f"sam@{now}")

        entries: list[tuple[Contract, list[Path], np.ndarray]] = []
        counts, caps, values, needs, soft, incidences = [], [], [], [], [], []
        for contract in active:
            request = contract.request
            routes = state.paths.routes(request.src, request.dst,
                                        rid=request.rid)
            steps, rel_links, rel_steps, rel_vars = contract_incidence(
                state.paths.shape(routes), request.start, request.deadline,
                now)
            if len(routes) * steps.size == 0:
                continue
            done = delivered.get(contract.rid, 0.0)
            cls = state.class_for(request)
            entries.append((contract, routes, steps))
            counts.append(len(routes) * steps.size)
            caps.append(contract.chosen - done)
            values.append(contract.marginal_price if cls.weight == 1.0
                          else cls.weight * contract.marginal_price)
            # A preemptible contract's guarantee is soft: a slack
            # variable lets the LP renege on what remains of it, at a
            # penalty steep enough (twice the weighted value plus the
            # floor) that it only pays off when the capacity is worth
            # more to non-preemptible traffic.
            need = contract.guaranteed - done
            needs.append(need if enforce_guarantees and need > EPS else 0.0)
            soft.append(cls.preemptible)
            incidences.append((rel_links, rel_steps, rel_vars))

        # A tiny penalty on volume in each pair's congested segment: the
        # LP has many degenerate optima, and without this nudge HiGHS may
        # bunch traffic into few steps, pushing later arrivals into the
        # doubled-price segments the admission interface quotes from.
        smoothing_weight = config.price_floor * 0.1
        smooth = config.short_term_adjustment and smoothing_weight > 0
        lp = add_schedule(
            model, incidences, counts, caps, state.capacity, ub=caps,
            need=needs, soft=soft,
            threshold=config.congestion_threshold if smooth else None,
            metered_links=state.topology.metered_links(),
            billing=self.billing_window, topk_fraction=config.topk_fraction,
            now=now, realized=realized_loads)
        values = np.array(values)
        slacked = lp.slacks >= 0
        model.set_objective_coo(
            np.concatenate([lp.flows, lp.slacks[slacked], lp.over,
                            lp.costs.bounds]),
            np.concatenate([np.repeat(values, counts),
                            -(2.0 * values[slacked] + config.price_floor),
                            np.full(lp.over.size, -smoothing_weight),
                            lp.costs.weights]))
        solution = self._solve_lp(model, now)

        x = solution.x
        plan = []
        for (contract, routes, steps), start in zip(entries,
                                                    lp.starts.tolist()):
            volumes = x[start:start + len(routes) * steps.size] \
                .reshape(len(routes), steps.size)
            for path, route_volumes in zip(routes, volumes):
                links = path.link_indices()
                for j in np.nonzero(route_volumes > EPS)[0]:
                    plan.append(Transmission(contract.rid, links,
                                             int(steps[j]),
                                             float(route_volumes[j])))
        return plan


def transmissions_now(plan: list[Transmission], now: int
                      ) -> list[Transmission]:
    """The subset of a SAM plan scheduled for execution at ``now``."""
    return [tx for tx in plan if tx.timestep == now]


def install_plan(state: NetworkState, plan: list[Transmission],
                 now: int, active_rids: set[int] | None = None) -> None:
    """Replace all future reservations with the SAM plan.

    Reservations at timesteps > ``now`` are dropped for every active
    request (including ones the plan no longer serves) and rewritten from
    the plan, so subsequent price quotes see the adjusted utilisation.
    """
    rids = {tx.rid for tx in plan} | (active_rids or set())
    for rid in rids:
        state.release_future(rid, now + 1)
    for tx in plan:
        if tx.timestep > now:
            state.reserve(tx.rid, tx.links, tx.timestep, tx.volume)
