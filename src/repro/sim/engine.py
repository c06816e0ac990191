"""The online step loop (paper §6.1 methodology), shared by batch and service.

:class:`Engine` drives an *online scheme* — any object with the protocol:

- ``begin(workload)``: reset state for a run;
- ``window_start(t)``: called at every timestep before arrivals (schemes
  decide themselves whether ``t`` is a window boundary);
- ``arrival(request, t)``: called once per request at its arrival step;
- ``step(t, delivered, loads)``: returns the
  :class:`~repro.core.sam.Transmission` list to execute at ``t``;
- optional ``contracts``: admitted :class:`~repro.core.admission.Contract`
  objects, used for settlement.

The engine owns the ground truth — realised per-(timestep, link) loads,
per-request delivered volume, payments — applies scheduled link kills,
enforces capacity on every step, writes the request ledger and records
per-module runtimes (Table 4).  It is the only step loop; two drivers
feed it: :func:`simulate` replays a workload's request list, and
:class:`repro.service.engine.AdmissionEngine` streams live arrivals in.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from ..core.admission import EPS
from ..faults.links import LinkKillSchedule
from ..lp import LPError
from ..options import RunOptions, run_context
from ..telemetry import Tracer, get_registry, get_tracer, ledger
from ..traffic.workload import Workload

#: Relative capacity tolerance: LP solutions may overshoot by solver
#: tolerance; anything past this is a scheme bug and raises.
CAPACITY_SLACK = 1e-6

#: Times off-boundary ``window_start`` calls without tracing them.
_UNTRACED = Tracer()


class CapacityViolation(RuntimeError):
    """A scheme scheduled more volume than a link can carry."""


@dataclass(frozen=True)
class FailureEvent:
    """One LP failure that escaped a scheme at a module boundary.

    The engine records these instead of crashing the run (the scheduler
    is on the critical path; see DESIGN.md §"Failure model"): the failed
    call is skipped — prices stay stale, the arrival goes unadmitted, or
    the step transmits nothing — and the simulation continues.
    """

    module: str          # "ra" | "sam" | "pc"
    step: int
    error: str           # exception class name
    detail: str
    rid: int | None = None


@dataclass
class RunResult:
    """Everything a metric needs about one simulation run."""

    workload: Workload
    scheme_name: str
    loads: np.ndarray
    delivered: dict[int, float]
    payments: dict[int, float]
    chosen: dict[int, float]
    extras: dict = field(default_factory=dict)
    #: rid -> [(timestep, volume)] in execution order; lets analyses ask
    #: "how much had been delivered by step T" (the §5 deviation study).
    delivery_log: dict[int, list[tuple[int, float]]] = field(
        default_factory=dict)

    def delivered_by(self, rid: int, deadline: int) -> float:
        """Volume delivered to ``rid`` at timesteps <= ``deadline``."""
        return sum(volume for t, volume in self.delivery_log.get(rid, [])
                   if t <= deadline)

    @property
    def total_delivered(self) -> float:
        return sum(self.delivered.values())

    @property
    def total_payments(self) -> float:
        return sum(self.payments.values())


@dataclass
class ModuleRuntimes:
    """Wall-clock samples per Pretium module (Table 4)."""

    ra: list[float] = field(default_factory=list)
    sam: list[float] = field(default_factory=list)
    pc: list[float] = field(default_factory=list)

    def summary(self) -> dict[str, dict[str, float]]:
        """Median and 95th percentile per module, in seconds."""
        out = {}
        for label, samples in (("RA", self.ra), ("SAM", self.sam),
                               ("PC", self.pc)):
            if samples:
                arr = np.asarray(samples)
                out[label] = {"median": float(np.median(arr)),
                              "p95": float(np.percentile(arr, 95)),
                              "count": len(samples)}
        return out


def simulate(scheme, workload: Workload,
             options: RunOptions | None = None) -> RunResult:
    """Run ``scheme`` online over ``workload`` and settle payments.

    ``options`` scopes the run environment (fault injector, telemetry
    trace) and supplies the link-kill schedule.  The scheme is already
    built, so config-mapped fields (``routing`` etc.) do not apply here
    — use :func:`repro.experiments.runner.run_scheme` (or
    :func:`repro.api.run`) for those.
    """
    with run_context(options):
        engine = Engine(scheme, workload,
                        link_kills=getattr(options, "link_kills", None))
        engine.start()
        # Stable: requests arriving at the same step keep list order.
        for request in sorted(workload.requests, key=attrgetter("arrival")):
            if request.arrival > engine.t:
                engine.advance_to(request.arrival)
            engine.arrive(request)
        return engine.finish()


class Engine:
    """One online run of ``scheme`` over ``workload``'s world, step by step.

    Drivers call :meth:`start`, then any interleaving of
    :meth:`advance_to` and :meth:`arrive`, then :meth:`finish`.  Arrivals
    land in the current step's *arrivals phase*: after its link kills and
    ``window_start(t)``, before ``step(t)`` and its transmissions.  An
    ``LPError`` becomes a :class:`FailureEvent`; any other exception is
    kept in :attr:`error` and re-raised, and no driver may run a step of
    a failed engine again (DESIGN "Engine boundaries").
    """

    def __init__(self, scheme, workload: Workload,
                 link_kills: str | None = None) -> None:
        self.scheme = scheme
        self.workload = workload
        self.link_kills = None
        if link_kills is not None:
            # Checked here, before RUN_STARTED or any step runs.
            self.link_kills = LinkKillSchedule.from_spec(link_kills)
            self.link_kills.check(workload)
        self.scheme_name = getattr(scheme, "name", type(scheme).__name__)
        self.t = -1               # the step accepting arrivals; -1 = unstarted
        self.error: BaseException | None = None
        self.result: RunResult | None = None
        self._run_span = None

    def start(self) -> None:
        """Initialise the scheme and enter timestep 0."""
        scheme, workload = self.scheme, self.workload
        self.tracer = tracer = get_tracer()
        try:
            scheme.begin(workload)
            n_links = workload.topology.num_links
            self.loads = np.zeros((workload.n_steps, n_links))
            self.delivered: dict[int, float] = defaultdict(float)
            self.delivery_log: dict[int, list[tuple[int, float]]] = \
                defaultdict(list)
            self.runtimes = ModuleRuntimes()
            self.failures: list[FailureEvent] = []
            self.state = state = getattr(scheme, "state", None)
            self.capacity = state.capacity if state is not None else np.tile(
                [link.capacity for link in workload.topology.links],
                (workload.n_steps, 1))
            config = getattr(scheme, "config", None)
            self.window = getattr(config, "window", None) or \
                workload.steps_per_day
            # ALLOCATED events are priced off these (unpriced without a state).
            self.prices = None if state is None else state.prices
            # ARRIVED events carry the preemptible flag (audit waivers).
            self.class_table = {cls.name: cls for cls in workload.classes}
            if tracer.enabled:
                # The auditor checks conservation against the capacity grid
                # as of run start (faults only lower it: an upper bound).
                ledger.record("RUN_STARTED", scheme=self.scheme_name,
                              n_steps=workload.n_steps, n_links=n_links,
                              n_requests=workload.n_requests,
                              capacity=np.asarray(self.capacity).tolist())
            self._run_span = tracer.span(
                "run", scheme=self.scheme_name, n_steps=workload.n_steps,
                n_requests=workload.n_requests).__enter__()
            self._enter_step(0)
        except BaseException as exc:
            self._fail(exc)
            raise

    def advance_to(self, step: int) -> None:
        """Run the clock forward so ``step`` is accepting arrivals; every
        step passed executes its SAM tick (and PC tick at window
        boundaries) with no further arrivals."""
        try:
            while self.t < step:
                self._leave_step()
                self._enter_step(self.t + 1)
        except BaseException as exc:
            self._fail(exc)
            raise

    def arrive(self, request):
        """Hand ``request`` to the scheme at the current step; returns what
        ``scheme.arrival`` returned (``None`` after an LP failure).

        ``extras["runtimes"].ra`` gets one sample per call, timed around
        ``scheme.arrival`` alone.
        """
        t, tracer = self.t, self.tracer
        try:
            if tracer.enabled:
                cls = str(getattr(request, "cls", "default"))
                ledger.record("ARRIVED", rid=request.rid, step=t,
                              src=request.src, dst=request.dst,
                              demand=float(request.demand),
                              value=float(request.value),
                              start=int(request.start),
                              deadline=int(request.deadline),
                              scavenger=bool(request.scavenger), cls=cls,
                              preemptible=bool(getattr(
                                  self.class_table.get(cls), "preemptible",
                                  False)))
            with tracer.span("ra", step=t, rid=request.rid) as span:
                try:
                    contract = self.scheme.arrival(request, t)
                except LPError as exc:
                    contract = None
                    span.set(degraded=True, error=type(exc).__name__)
                    self._record_failure("ra", exc, rid=request.rid)
        except BaseException as exc:
            self._fail(exc)
            raise
        self.runtimes.ra.append(span.duration)
        return contract

    def finish(self) -> RunResult:
        """Run out the horizon, settle every contract, close the books."""
        scheme, workload, tracer = self.scheme, self.workload, self.tracer
        self.advance_to(workload.n_steps - 1)
        try:
            self._leave_step()
            payments = settle_contracts(scheme, self.delivered,
                                        emit=tracer.enabled)
            chosen = {c.rid: c.chosen
                      for c in getattr(scheme, "contracts", [])}
            delivered_total = float(sum(self.delivered.values()))
            self._run_span.set(delivered=delivered_total,
                               n_contracts=len(chosen),
                               n_failures=len(self.failures),
                               n_requests=workload.n_requests)
            if tracer.enabled:
                ledger.record("RUN_ENDED", delivered_total=delivered_total,
                              payments_total=float(sum(payments.values())),
                              n_contracts=len(chosen),
                              n_failures=len(self.failures))
            self._run_span.__exit__(None, None, None)
            self._run_span = None
            # End-of-run lifecycle: schemes holding per-run resources (the
            # persistent solver sessions of SAM/PC) release them here.
            close = getattr(scheme, "close", None)
            if close is not None:
                close()
        except BaseException as exc:
            self._fail(exc)
            raise
        extras = {"runtimes": self.runtimes}
        if self.failures:
            extras["failures"] = self.failures
        degradation = getattr(scheme, "failure_events", None)
        if degradation:
            extras["degradation"] = list(degradation)
        if self.state is not None:
            extras["prices"] = self.state.prices.copy()
        self.result = RunResult(
            workload=workload, scheme_name=self.scheme_name,
            loads=self.loads, delivered=dict(self.delivered),
            payments=payments, chosen=chosen, extras=extras,
            delivery_log=dict(self.delivery_log))
        return self.result

    def _fail(self, exc: BaseException) -> None:
        """Keep ``exc`` as the engine's failure; close the run span with it."""
        self.error = self.error or exc
        if self._run_span is not None:
            self._run_span.__exit__(type(exc), exc, exc.__traceback__)
            self._run_span = None

    # -- the per-step state machine -----------------------------------------
    def _enter_step(self, t: int) -> None:
        scheme, tracer = self.scheme, self.tracer
        self.t = t
        if self.link_kills is not None and self.state is not None:
            # Scheduled outages land before PC/RA/SAM see the step, so
            # this step's decisions already face the dead link (and
            # dynamic routing policies have re-hashed).
            for kill in self.link_kills.apply(self.state, t):
                if tracer.enabled:
                    ledger.record("LINK_KILLED", step=t, src=kill.src,
                                  dst=kill.dst, end=kill.end)
        # An LP error at a module boundary costs that one call (stale
        # prices / unadmitted arrival / idle step), never the run.
        # Off-boundary calls are cheap no-ops for every scheme; tracing or
        # sampling them would only dilute the PC samples.
        boundary = t % self.window == 0
        with (tracer if boundary else _UNTRACED).span("pc", step=t) as span:
            try:
                scheme.window_start(t)
            except LPError as exc:
                span.set(degraded=True, error=type(exc).__name__)
                self._record_failure("pc", exc)
        if boundary and span.duration > 0:
            self.runtimes.pc.append(span.duration)

    def _leave_step(self) -> None:
        t, tracer = self.t, self.tracer
        with tracer.span("sam", step=t) as span:
            try:
                transmissions = self.scheme.step(t, dict(self.delivered),
                                                 self.loads)
            except LPError as exc:
                span.set(degraded=True, error=type(exc).__name__)
                self._record_failure("sam", exc)
                transmissions = []
            span.set(n_transmissions=len(transmissions))
        self.runtimes.sam.append(span.duration)
        # Called through the module global: the repo benchmark's timing
        # shims patch it here by name.
        apply_transmissions(transmissions, t, self.loads, self.delivered,
                            self.capacity, self.delivery_log,
                            prices=self.prices, emit=tracer.enabled)

    def _record_failure(self, module: str, exc: BaseException,
                        rid: int | None = None) -> None:
        """Append a structured failure event and bump the engine counters."""
        t, error = self.t, type(exc).__name__
        self.failures.append(FailureEvent(module, t, error, str(exc), rid))
        registry = get_registry()
        registry.counter("engine.failures").inc()
        registry.counter(f"engine.failures.{module}").inc()
        if self.tracer.enabled:
            self.tracer.emit({"type": "engine_failure", "ts": time.time(),
                              "module": module, "step": t, "rid": rid,
                              "error": error})


def apply_transmissions(transmissions, t: int, loads: np.ndarray,
           delivered: dict[int, float], capacity: np.ndarray,
           delivery_log: dict[int, list[tuple[int, float]]],
           prices: np.ndarray | None = None, emit: bool = False) -> None:
    """Execute one step's transmissions, enforcing link capacities.

    With ``emit`` set, every executed transmission leaves an ALLOCATED
    ledger event carrying its bytes, route and (when ``prices`` is
    given) the current per-unit path price — the ground-truth record the
    invariant auditor replays.
    """
    for tx in transmissions:
        if tx.timestep != t:
            raise CapacityViolation(
                f"transmission for step {tx.timestep} executed at {t}")
        if tx.volume <= EPS:
            continue
        # Checked before anything is added, so a violation names the
        # link, step, load and capacity and leaves this tx unapplied.
        for index in tx.links:
            new_load = loads[t, index] + tx.volume
            cap = capacity[t, index]
            if new_load > cap * (1.0 + CAPACITY_SLACK) + 1e-7:
                raise CapacityViolation(
                    f"request {tx.rid}: link {index} at step {t}: "
                    f"load {new_load:.6f} exceeds capacity {cap:.6f} "
                    f"(adding volume {tx.volume:.6f})")
        for index in tx.links:
            loads[t, index] += tx.volume
        delivered[tx.rid] += tx.volume
        delivery_log[tx.rid].append((t, tx.volume))
        if emit:
            unit_price = None if prices is None else \
                float(prices[t, list(tx.links)].sum())
            ledger.record("ALLOCATED", rid=tx.rid, step=t,
                          bytes=float(tx.volume),
                          route=[int(index) for index in tx.links],
                          price=unit_price)


def settle_contracts(scheme, delivered: dict[int, float],
            emit: bool = False) -> dict[int, float]:
    """Charge each contract for what was actually delivered.

    With ``emit`` set, each contract's settlement (delivered bytes and
    the payment owed, plus the contract terms settlement was computed
    from) is recorded as a SETTLED ledger event.
    """
    payments: dict[int, float] = {}
    for contract in getattr(scheme, "contracts", []):
        volume = delivered.get(contract.rid, 0.0)
        payment = contract.payment_for(volume)
        payments[contract.rid] = payment
        if emit:
            flat = contract.flat_price
            ledger.record("SETTLED", rid=contract.rid,
                          delivered=float(volume), payment=float(payment),
                          chosen=float(contract.chosen),
                          guaranteed=float(contract.guaranteed),
                          flat_price=None if flat is None else float(flat))
    return payments
