"""The synchronous admission-engine core: live arrivals into the step loop.

:class:`AdmissionEngine` drives :class:`repro.sim.engine.Engine`, the
step loop batch :func:`~repro.sim.engine.simulate` drives, with arrivals
pushed in by callers one at a time — so a replayed stream's
:class:`~repro.sim.engine.RunResult` and ledger are bit-identical to
``simulate()``'s.  It adds only what a service needs: an
:class:`AdmissionDecision` per arrival, price checks
(:meth:`AdmissionEngine.quote_only`), the warm menu cache and protocol
checks (:class:`ServiceStateError`).  The asyncio layer
(:mod:`repro.service.service`) adds batching, backpressure and latency
budgets on top.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from ..options import ServiceOptions
from ..sim.engine import Engine, RunResult
# Not called here: benchmarks/e2e/shims.TARGETS patches both names in
# this module by name, so they stay importable from it.
from ..sim.engine import apply_transmissions, settle_contracts  # noqa: F401
from ..telemetry import get_registry
from ..traffic.workload import Workload
from .cache import MenuCache


class ServiceStateError(RuntimeError):
    """The engine was driven out of protocol (not started, time moved
    backwards, past the horizon, after a failed step, ...)."""


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one streamed arrival.

    ``admitted`` is the decision the differential tests compare against
    batch simulation; ``chosen``/``guaranteed`` carry the contract terms
    (0.0 for rejections); ``degraded`` marks a decision made from a
    degraded (current-price or budget-expired) quote.
    """

    rid: int
    step: int
    admitted: bool
    chosen: float = 0.0
    guaranteed: float = 0.0
    degraded: bool = False


@dataclass(frozen=True)
class QuoteSnapshot:
    """A price check: the quoted menu's shape, with no admission."""

    rid: int
    step: int
    breakpoints: tuple[tuple[float, float], ...]
    max_guaranteed: float
    cached: bool


class AdmissionEngine:
    """Streams live arrivals through an online scheme, continuously.

    Parameters
    ----------
    scheme:
        An online scheme (the Pretium controller or an ablation) — any
        object implementing the simulator protocol (``begin`` /
        ``window_start`` / ``arrival`` / ``step`` / ``contracts``).
    workload:
        The header of the world the service prices (topology, horizon,
        traffic classes, ...), usually the scenario's workload.  Its
        requests are not pre-loaded: streamed ones are appended to the
        engine's own copy, so ``summarize()`` works on the result.
    options:
        :class:`~repro.options.ServiceOptions`; only ``cache_size`` (warm
        menu cache, 0 = cold quoting) matters here.
    link_kills:
        Scheduled link failures (``RunOptions.link_kills`` grammar),
        applied as the clock reaches them.

    A non-LP exception escaping a step (a
    :class:`~repro.sim.engine.CapacityViolation`, a scheme bug) fails
    the engine: it propagates once, and every later call raises
    :class:`ServiceStateError` chained to it.
    """

    def __init__(self, scheme, workload: Workload, *,
                 options: ServiceOptions | None = None,
                 link_kills: str | None = None) -> None:
        self.scheme = scheme
        self.options = options or ServiceOptions()
        self.workload = replace(workload, requests=[])
        self.decisions: list[AdmissionDecision] = []
        self._run = Engine(scheme, self.workload, link_kills)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "AdmissionEngine":
        """Initialise the scheme and enter timestep 0."""
        run = self._run
        if run.t >= 0 or run.error is not None:
            raise ServiceStateError("engine already started")
        if self.options.cache_size > 0 and hasattr(self.scheme,
                                                   "menu_cache"):
            self.scheme.menu_cache = MenuCache(self.options.cache_size)
        run.start()
        return self

    def advance_to(self, step: int) -> None:
        """Run the clock forward so ``step`` is accepting arrivals.

        Every intermediate step executes its SAM tick (and PC tick at
        window boundaries) with no arrivals, exactly as batch simulation
        would for an arrival-free step.
        """
        self._check_live()
        if step < self._run.t:
            raise ServiceStateError(
                f"time cannot move backwards (at {self._run.t}, "
                f"asked {step})")
        if step >= self.workload.n_steps:
            raise ServiceStateError(
                f"step {step} is past the service horizon "
                f"({self.workload.n_steps} steps)")
        self._run.advance_to(step)

    # -- streamed operations -------------------------------------------------
    def admit(self, request, step: int | None = None) -> AdmissionDecision:
        """Quote, contract and (maybe) admit one streamed arrival.

        ``step`` defaults to ``request.arrival``; the clock is advanced
        there first.  A submission that arrives behind the clock (its
        step already ticked past) is served at the current step — late,
        but never out of order.
        """
        t = self._clock_for(request, step)
        if request.deadline >= self.workload.n_steps:
            raise ValueError(
                f"request {request.rid}: deadline {request.deadline} is "
                f"past the service horizon ({self.workload.n_steps} steps)")
        self.workload.requests.append(request)
        scheme, registry = self.scheme, get_registry()
        events_before = len(getattr(scheme, "failure_events", ()))
        contract = self._run.arrive(request)
        registry.histogram("service.quote_ms").observe(
            self._run.runtimes.ra[-1] * 1e3)
        if contract is None and hasattr(scheme, "contract_for"):
            contract = scheme.contract_for(request.rid)
        degraded = len(getattr(scheme, "failure_events", ())) > events_before
        admitted = contract is not None
        decision = AdmissionDecision(
            rid=request.rid, step=t, admitted=admitted,
            chosen=float(contract.chosen) if admitted else 0.0,
            guaranteed=float(contract.guaranteed) if admitted else 0.0,
            degraded=degraded)
        registry.counter("service.admitted" if admitted
                         else "service.rejected").inc()
        self.decisions.append(decision)
        return decision

    def quote_only(self, request, step: int | None = None) -> QuoteSnapshot:
        """A price check: quote the menu without contracting anything.

        Pure with respect to admission state — quoting works on scratch
        reservations — so price checks can be issued freely (and
        repeatedly: identical checks hit the warm menu cache).  Requires
        a scheme exposing its RA module (the Pretium family).
        """
        admission = getattr(self.scheme, "admission", None)
        if admission is None:
            raise ServiceStateError(
                f"scheme {self._run.scheme_name!r} has no admission "
                "interface to price-check against")
        t = self._clock_for(request, step)
        registry = get_registry()
        cache = getattr(admission, "cache", None)
        cached = cache is not None and MenuCache.key(request, t) in cache
        began = time.perf_counter()
        menu = admission.quote(request, t)
        registry.histogram("service.quote_ms").observe(
            (time.perf_counter() - began) * 1e3)
        registry.counter("service.price_checks").inc()
        return QuoteSnapshot(
            rid=request.rid, step=t,
            breakpoints=tuple(menu.breakpoints()),
            max_guaranteed=float(menu.max_guaranteed), cached=cached)

    # -- completion ----------------------------------------------------------
    def finish(self) -> RunResult:
        """Run out the horizon, settle every contract, close the books.

        Idempotent: a finished engine returns its result again."""
        if self._run.result is not None:
            return self._run.result
        self._check_live()
        return self._run.finish()

    # -- internal ------------------------------------------------------------
    def _check_live(self) -> None:
        run = self._run
        if run.error is not None:
            raise ServiceStateError(f"engine failed at step {run.t}: "
                                    f"{run.error!r}") from run.error
        if run.t < 0:
            raise ServiceStateError("engine not started")
        if run.result is not None:
            raise ServiceStateError("engine finished; not accepting work")

    def _clock_for(self, request, step: int | None) -> int:
        self._check_live()
        step = request.arrival if step is None else step
        if step > self._run.t:
            self.advance_to(step)
        return self._run.t
