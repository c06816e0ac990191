"""Price computer (PC, paper §4.3).

At the start of every time window the PC re-derives the internal
per-(link, timestep) prices:

1. gather every contract whose window intersects a *lookback period* of
   length ``T >= W`` ending now;
2. solve the offline welfare LP over that period in hindsight, with the
   marginal admission prices as value proxies and the top-k percentile
   cost proxy;
3. read each (link, timestep) price off the LP: the capacity constraint's
   dual (the congestion price) plus, on metered links, the cost gradient
   ``C_e / k`` for the timesteps that sit in the window's realised top-k
   (the marginal cost of one more unit there);
4. restrict the prices to the *reference window* (the last ``W`` steps)
   and install them for the upcoming window, carried over to later
   windows for requests with far deadlines.

This is the self-correcting loop of §4.3: an underpriced link attracts
traffic, congests, earns a positive dual, and is re-priced upward.
"""

from __future__ import annotations

import numpy as np

from ..faults.resilience import RetryPolicy, resilient_solve
from ..lp import Model, session_for
from ..lp.grouping import add_schedule, route_incidence
from ..telemetry import ledger
from .admission import EPS, Contract
from .state import NetworkState


class PriceComputer:
    """The PC module."""

    def __init__(self, state: NetworkState, billing_window: int) -> None:
        if billing_window <= 0:
            raise ValueError("billing window must be positive")
        self.state = state
        self.billing_window = billing_window
        self._session = None

    def close(self) -> None:
        """Release the persistent solver session (idempotent)."""
        if self._session is not None:
            self._session.close()
            self._session = None

    def _solve_lp(self, model: Model, now: int):
        """All PC solves funnel through the resilience layer.

        The hindsight LP recurs with a near-identical shape every
        window, so the persistent session's warm start pays off on the
        stateful backend; the scipy session is the stateless reference.
        """
        if self._session is None:
            self._session = session_for(self.state.config.solver_backend)
        return resilient_solve(
            model, "pc", now,
            policy=RetryPolicy.from_config(self.state.config),
            session=self._session)

    def update(self, contracts: list[Contract], now: int) -> bool:
        """Recompute prices at window-start ``now``.

        Returns ``False`` (leaving prices unchanged) when there is no
        history yet or no contract overlaps the lookback period.
        """
        config = self.state.config
        window = config.window
        if now < window:
            return False
        period_start = max(0, now - config.lookback)
        period_end = now
        relevant = [c for c in contracts
                    if c.request.start < period_end
                    and c.request.deadline >= period_start
                    and c.chosen > EPS]
        if not relevant:
            return False

        duals, covered = self._solve_offline_coo(relevant, period_start,
                                                 period_end)
        prices = self._effective_prices(duals, covered)

        reference = prices[period_end - window - period_start:
                           period_end - period_start]
        self.state.set_prices(now, reference)
        ledger.record("PRICE_UPDATED", step=now, n_contracts=len(relevant),
                      mean_price=float(reference.mean()))
        return True

    # -- offline hindsight LP ---------------------------------------------
    def _solve_offline_coo(self, contracts: list[Contract],
                           period_start: int, period_end: int
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Welfare LP over the lookback period, from batched COO triplets.

        Returns per-(timestep, link) marginal prices (capacity dual plus
        metered cost gradient) and a boolean mask of the (timestep, link)
        pairs whose cost gradient the LP actually modelled; both arrays
        are ``(period_len, n_links)`` with period-relative rows.

        :func:`~repro.lp.grouping.add_schedule` lays it out in the order
        of ``tests/reference/expr_builders.py``, so HiGHS returns the
        same degenerate dual vertex.
        """
        state = self.state
        config = state.config
        n_links = state.topology.num_links
        period_len = period_end - period_start
        model = Model(sense="max", name=f"pc@{period_end}")

        counts, caps, values, incidences = [], [], [], []
        for contract in contracts:
            request = contract.request
            routes = state.paths.routes(request.src, request.dst,
                                        rid=request.rid)
            steps = np.arange(max(request.start, period_start),
                              min(request.deadline, period_end - 1) + 1)
            if len(routes) * steps.size == 0:
                continue
            counts.append(len(routes) * steps.size)
            caps.append(contract.chosen)
            values.append(contract.marginal_price)
            incidences.append(route_incidence(state.paths.shape(routes),
                                              steps))
        # The equality tying each metered load variable to its flows
        # carries the cost gradient as its dual: at a levelled optimum the
        # top-k subgradient spreads fractionally over tied steps, which the
        # LP dual captures exactly (a hand-rolled "C_e/k on the top-k
        # steps" rule would overprice flat schedules ~W/k-fold).
        lp = add_schedule(
            model, incidences, counts, caps, state.capacity,
            metered_links=state.topology.metered_links(),
            billing=self.billing_window, topk_fraction=config.topk_fraction,
            couple_idle=True)
        groups, costs = lp.groups, lp.costs
        model.set_objective_coo(
            np.concatenate([lp.flows, costs.bounds]),
            np.concatenate([np.repeat(values, counts), costs.weights]))
        solution = self._solve_lp(model, period_end)

        duals = np.zeros((period_len, n_links))
        if lp.capacity is not None:
            cap_duals = np.maximum(0.0, solution.dual_array(lp.capacity))
            in_period = (groups.steps >= period_start) \
                & (groups.steps < period_end)
            duals[groups.steps[in_period] - period_start,
                  groups.links[in_period]] = cap_duals[in_period]
        # Cost gradients (the equality is written load - flows == 0, so
        # gradient = -dual) are redistributed uniformly within each
        # billing window.  At a levelled optimum the dual is a degenerate
        # vertex: HiGHS may put the whole mass C_e on a few steps and zero
        # on the rest, and menus would then route through the "free"
        # steps, systematically undercharging.  Spreading the window's
        # total mass evenly keeps exact cost recovery for levelled use
        # while closing the free-riding hole.  The uniform gradient is
        # additionally capped at the *levelled* marginal cost C_e / L: on
        # a window the LP left idle, every step's first-unit marginal is
        # C_e/k, so the raw mass can reach W * C_e/k and would lock the
        # link out permanently.
        covered = np.zeros((period_len, n_links), dtype=bool)
        leveling = config.initial_metered_leveling
        unit_cost = {link.index: link.cost_per_unit
                     for link in state.topology.metered_links()}
        for index, window_start, length, row in zip(
                costs.links.tolist(), costs.starts.tolist(),
                costs.lengths.tolist(), costs.load_rows.tolist()):
            mass = float(np.maximum(
                0.0, -solution.duals[row:row + length]).sum())
            uniform = min(mass / length, unit_cost[index] / leveling)
            inside = slice(max(window_start - period_start, 0),
                           max(window_start + length - period_start, 0))
            duals[inside, index] += uniform
            covered[inside, index] = True
        return duals, covered

    # -- dual -> price mapping ----------------------------------------------
    def _effective_prices(self, duals: np.ndarray,
                          covered: np.ndarray) -> np.ndarray:
        """Fill cost gradients the LP did not model, apply the floor.

        ``duals`` already contains capacity duals plus LP cost gradients
        for every (timestep, link) the lookback LP touched.  Metered
        link-steps the LP never modelled (no request could use them) fall
        back to the levelled-schedule gradient ``C_e / W``.
        """
        config = self.state.config
        prices = duals.copy()
        leveling = config.initial_metered_leveling
        for link in self.state.topology.metered_links():
            baseline = link.cost_per_unit / leveling
            # Never sell metered capacity below its levelled cost: on
            # windows the lookback LP left idle the gradient dual can be
            # a degenerate zero, and a floor-priced metered link would
            # attract the whole network's traffic at enormous realised
            # percentile cost.
            column = prices[:, link.index]
            prices[:, link.index] = np.maximum(column, baseline)
        return np.maximum(prices, config.price_floor)
