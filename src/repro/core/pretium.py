"""The Pretium controller: RA + SAM + PC wired to the simulation clock.

Implements the online-scheme protocol the simulator drives
(:mod:`repro.sim.engine`):

- ``begin(workload)`` — build the shared :class:`NetworkState`;
- ``window_start(t)`` — run the price computer at window boundaries;
- ``arrival(request, t)`` — quote a menu, let the user model respond,
  admit and reserve the preliminary schedule;
- ``step(t, delivered, loads)`` — run the schedule adjuster and return
  the transmissions to execute at ``t``.

Ablations are configuration, not separate code paths: ``sam_enabled=False``
executes preliminary plans verbatim (Pretium-NoSAM) and a
:class:`~repro.core.users.AllOrNothingUser` models Pretium-NoMenu.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..faults.injector import FaultInjector, get_injector
from ..lp import LPError
from ..telemetry import get_registry, get_tracer, ledger
from ..telemetry.ledger import finite_or_none
from .admission import EPS, Contract, RequestAdmission
from .config import PretiumConfig
from .pricer import PriceComputer
from .request import ByteRequest
from .sam import (ScheduleAdjuster, Transmission, install_plan,
                  transmissions_now)
from .state import NetworkState
from .users import AllOrNothingUser, BestResponseUser, UserModel


class PretiumController:
    """Online Pretium scheme.

    Parameters
    ----------
    config:
        Knobs; when ``None`` a default config is derived from the workload
        at :meth:`begin` (window = one day, lookback = 1.5 windows).
    user_model:
        Customer behaviour; defaults to the Theorem 5.2 best response, or
        all-or-nothing when the config disables menus.
    config_overrides:
        Field overrides applied (via ``dataclasses.replace``) to the
        resolved config at :meth:`begin` — on top of either an explicit
        ``config`` or the workload-derived default.  This is how
        :class:`~repro.options.RunOptions` knobs (``routing``,
        ``solver_backend``, solver budgets) reach a controller without
        callers re-deriving the window/lookback defaults.
    """

    name = "Pretium"

    def __init__(self, config: PretiumConfig | None = None,
                 user_model: UserModel | None = None,
                 config_overrides: dict | None = None) -> None:
        self._config_template = config
        self._config_overrides = dict(config_overrides or {})
        self._user_model = user_model
        self.state: NetworkState | None = None
        self.contracts: list[Contract] = []
        self._by_rid: dict[int, Contract] = {}
        self.menus: dict[int, object] = {}
        self.price_updates: int = 0
        #: Structured degradation events, in order (see _record_degradation).
        self.failure_events: list[dict] = []
        #: Optional warm menu cache (set by the admission service before
        #: :meth:`begin`); bound to the fresh NetworkState at begin time
        #: and handed to the RA so quotes consult it transparently.
        self.menu_cache = None

    # -- protocol ----------------------------------------------------------
    def begin(self, workload) -> None:
        """Initialise state for a workload (fresh per run)."""
        config = self._config_template
        if config is None:
            window = workload.steps_per_day
            config = PretiumConfig(window=window,
                                   lookback=window + window // 2)
        if self._config_overrides:
            config = replace(config, **self._config_overrides)
        self.config = config
        self.user = self._user_model or (
            BestResponseUser() if config.menu_enabled else AllOrNothingUser())
        self.state = NetworkState(workload.topology, workload.n_steps, config)
        self.state.set_traffic_classes(getattr(workload, "classes", ()))
        if config.faults is not None:
            self.injector = FaultInjector.from_spec(config.faults,
                                                    seed=config.fault_seed)
        else:
            # None here means "resolve the process-wide injector at call
            # time", so `run --faults` reaches config-less controllers too.
            self.injector = None
        if self.menu_cache is not None:
            self.menu_cache.bind(self.state)
        self.admission = RequestAdmission(self.state, cache=self.menu_cache)
        self.sam = ScheduleAdjuster(self.state, workload.steps_per_day,
                                    injector=self.injector)
        self.pricer = PriceComputer(self.state, workload.steps_per_day,
                                    injector=self.injector)
        self.contracts = []
        self._by_rid = {}
        self.menus = {}
        self.price_updates = 0
        self.failure_events = []
        self._stale_windows = 0
        self._arrivals_since_step = 0

    def close(self) -> None:
        """Release per-run resources (persistent solver sessions).

        Engines call this when a run ends; safe to call before
        :meth:`begin` and more than once.
        """
        sam = getattr(self, "sam", None)
        if sam is not None:
            sam.close()
        pricer = getattr(self, "pricer", None)
        if pricer is not None:
            pricer.close()

    def _current_injector(self) -> FaultInjector:
        return self.injector if self.injector is not None else get_injector()

    def _record_degradation(self, module: str, step: int,
                            error: BaseException, action: str,
                            rid: int | None = None) -> None:
        """Log one degradation event (structured) and bump its counters."""
        event = {"module": module, "step": step, "action": action,
                 "error": type(error).__name__, "detail": str(error)}
        if rid is not None:
            event["rid"] = rid
        self.failure_events.append(event)
        registry = get_registry()
        registry.counter("resilience.fallbacks").inc()
        registry.counter(f"resilience.fallbacks.{module}").inc()
        # The ledger's DEGRADED event doubles as the auditor's waiver:
        # a guarantee missed after one of these is expected, not silent.
        ledger.record("DEGRADED", rid=rid, step=step, module=module,
                      action=action, error=type(error).__name__,
                      detail=str(error))

    def window_start(self, t: int) -> None:
        """Run the price computer at window boundaries.

        When the offline pricing LP is unavailable (after retries), the
        previous window's prices are retained: every quote stays
        well-defined, at the cost of staleness, which the
        ``resilience.pc.staleness`` gauge (consecutive stale windows)
        makes visible.
        """
        if t % self.config.window == 0:
            registry = get_registry()
            with get_tracer().span("pc.update", step=t) as span:
                try:
                    updated = self.pricer.update(self.contracts, t)
                except LPError as exc:
                    span.set(degraded=True, updated=False)
                    self._stale_windows += 1
                    registry.counter("resilience.stale_windows.pc").inc()
                    registry.gauge("resilience.pc.staleness").set(
                        self._stale_windows)
                    self._record_degradation("pc", t, exc,
                                             action="stale_prices")
                    return
                span.set(updated=updated)
            if updated:
                self.price_updates += 1
                self._stale_windows = 0
                registry.gauge("resilience.pc.staleness").set(0)
                registry.counter("pretium.price_updates").inc()

    def arrival(self, request: ByteRequest, t: int) -> Contract | None:
        """Quote, let the customer respond, admit.

        Scavenger-class requests (§4.4) skip the menu: they name their
        price (modelled as the customer's value) and are served best
        effort by the schedule adjuster whenever leftover capacity makes
        it worthwhile.
        """
        metrics = get_registry()
        # Every *offered* arrival (admitted, rejected or scavenger)
        # breaks the next step's quiet-ness for SAM's fast path.  A
        # rejected arrival leaves the LP unchanged, so counting it is
        # conservative — but it keeps "quiet" a property of the arrival
        # stream alone, so any scenario with arrivals at every step is
        # bit-identical to the cold-solve reference by construction.
        self._arrivals_since_step += 1
        if request.scavenger:
            contract = Contract.scavenger(request, request.value, t)
            self._record_contract(contract)
            metrics.counter("pretium.scavenger").inc()
            ledger.record("ADMITTED", rid=request.rid, step=t,
                          chosen=float(contract.chosen), guaranteed=0.0,
                          marginal_price=finite_or_none(
                              contract.marginal_price),
                          flat_price=float(contract.flat_price))
            return contract
        degraded = False
        with get_tracer().span("ra.quote", step=t, rid=request.rid) as span:
            try:
                self._current_injector().check("ra", t)
                menu = self.admission.quote(request, t)
            except LPError as exc:
                # Quote machinery down: degrade to the conservative
                # current-prices menu rather than rejecting outright.
                span.set(degraded=True)
                degraded = True
                self._record_degradation("ra", t, exc,
                                         action="quote_from_prices",
                                         rid=request.rid)
                menu = self.admission.quote_degraded(request, t)
        if get_tracer().enabled:
            ledger.record(
                "QUOTED", rid=request.rid, step=t, degraded=degraded,
                breakpoints=[[float(volume), float(price)]
                             for volume, price in menu.breakpoints()],
                max_guaranteed=float(menu.max_guaranteed),
                best_effort_price=finite_or_none(menu.best_effort_price))
        self.menus[request.rid] = menu
        chosen = self.user.choose(request, menu)
        contract = self.admission.admit(request, menu, chosen, t)
        if contract is not None:
            self._record_contract(contract)
            metrics.counter("pretium.admitted").inc()
            ledger.record("ADMITTED", rid=request.rid, step=t,
                          chosen=float(contract.chosen),
                          guaranteed=float(contract.guaranteed),
                          marginal_price=finite_or_none(
                              contract.marginal_price),
                          flat_price=None)
        else:
            metrics.counter("pretium.rejected").inc()
            ledger.record("REJECTED", rid=request.rid, step=t)
        return contract

    def step(self, t: int, delivered: dict[int, float],
             loads: np.ndarray) -> list[Transmission]:
        """Transmissions to execute at timestep ``t``.

        If the SAM LP is unavailable even after retries, the step falls
        back to replaying the *last installed feasible plan* (what
        ``state.plan`` holds: the previous SAM plan plus the preliminary
        reservations of requests admitted since), rescaled to each
        contract's outstanding volume — so every pre-fault guarantee
        keeps its capacity backing and the run continues.
        """
        arrivals_since = self._arrivals_since_step
        self._arrivals_since_step = 0
        if self.config.sam_enabled:
            failure = None
            with get_tracer().span("sam.adjust", step=t,
                                   n_contracts=len(self.contracts)) as span:
                try:
                    plan = self.sam.adjust(self.contracts, delivered,
                                           loads, t,
                                           arrivals_since=arrivals_since)
                except LPError as exc:
                    span.set(degraded=True)
                    failure = exc
            if failure is not None:
                self._record_degradation("sam", t, failure,
                                         action="plan_replay")
                return self._planned_step(t, delivered)
            if plan is None:
                plan = []
            if self.sam.last_fast_path:
                # The plan is the previous plan's tail: reservations at
                # t+1.. already equal it entry for entry, so
                # re-installing would only churn link versions (and the
                # service's menu cache) for a no-op rewrite.
                return transmissions_now(plan, t)
            active = {c.rid for c in self.contracts
                      if c.request.deadline >= t}
            install_plan(self.state, plan, t, active_rids=active)
            return transmissions_now(plan, t)
        return self._planned_step(t, delivered)

    # -- plan replay (NoSAM mode and SAM degradation fallback) ---------------
    def _planned_step(self, t: int,
                      delivered: dict[int, float]) -> list[Transmission]:
        """Execute the currently installed plan verbatim at ``t``.

        Volumes are clamped to each contract's outstanding volume and to
        the links' *current* usable capacity: a reservation on a link
        that has since failed (or lost headroom to high-pri traffic)
        cannot physically transmit.  Two callers: the Pretium-NoSAM
        ablation (the plan is the admission-time preliminary schedule,
        clamped volume is simply lost — the point of Figure 11) and the
        SAM degradation fallback (the plan is the last feasible SAM
        schedule, so guarantees keep their backing until the solver
        recovers).
        """
        step_loads = np.zeros(self.state.topology.num_links)
        capacity = self.state.capacity[t]
        transmissions = []
        for contract in self.contracts:
            if contract.request.deadline < t:
                continue
            remaining = contract.chosen - delivered.get(contract.rid, 0.0)
            if remaining <= EPS:
                continue
            for links, volume in self.state.planned_at(contract.rid, t):
                headroom = min(capacity[index] - step_loads[index]
                               for index in links)
                take = min(volume, remaining, max(0.0, headroom))
                if take > EPS:
                    transmissions.append(
                        Transmission(contract.rid, links, t, take))
                    remaining -= take
                    for index in links:
                        step_loads[index] += take
        return transmissions

    def _record_contract(self, contract: Contract) -> None:
        self.contracts.append(contract)
        # First contract wins, as a scan of ``contracts`` would find it.
        self._by_rid.setdefault(contract.rid, contract)

    # -- introspection -------------------------------------------------------
    def contract_for(self, rid: int) -> Contract | None:
        return self._by_rid.get(rid)

    def price_series(self, src: str, dst: str) -> np.ndarray:
        """Internal price over time on the direct link src->dst (Fig 7a)."""
        link = self.state.topology.link_between(src, dst)
        return self.state.prices[:, link.index].copy()
