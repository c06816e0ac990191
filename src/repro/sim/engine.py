"""Online discrete-time simulation engine (paper §6.1 methodology).

The engine replays a :class:`~repro.traffic.workload.Workload` against an
*online scheme* — any object with the protocol:

- ``begin(workload)``: reset state for a run;
- ``window_start(t)``: called at every timestep before arrivals (schemes
  decide themselves whether ``t`` is a window boundary);
- ``arrival(request, t)``: called once per request at its arrival step;
- ``step(t, delivered, loads)``: returns the
  :class:`~repro.core.sam.Transmission` list to execute at ``t``;
- optional ``contracts``: admitted :class:`~repro.core.admission.Contract`
  objects, used for settlement.

The engine owns the ground truth: realised per-(timestep, link) loads,
per-request delivered volume, and — at the end — payments.  It enforces
capacity feasibility on every step and records per-module wall-clock
runtimes (Table 4).
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..core.admission import EPS
from ..lp import LPError
from ..options import RunOptions, run_context
from ..telemetry import get_registry, get_tracer, ledger
from ..traffic.workload import Workload

#: Relative capacity tolerance: LP solutions may overshoot by solver
#: tolerance; anything past this is a scheme bug and raises.
CAPACITY_SLACK = 1e-6


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

    def request_by_id(self, rid: int):
        for request in self.workload.requests:
            if request.rid == rid:
                return request
        raise KeyError(rid)

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

    Per-module timing (Table 4) is captured through telemetry spans
    named ``ra``/``sam``/``pc``: with a tracer configured the spans land
    in the trace; either way their durations populate the
    :class:`ModuleRuntimes` summary in ``extras["runtimes"]``.

    ``options`` scopes the run environment (fault injector, telemetry
    trace) for this run; see :class:`~repro.options.RunOptions`.  The
    scheme is already constructed by the time the engine sees it, so
    config-mapped option fields (``routing`` etc.) do not apply here
    — build the scheme through :func:`repro.experiments.runner.run_scheme`
    (or :func:`repro.api.run`) for those.
    """
    link_kills = None
    if options is not None and options.link_kills is not None:
        from ..faults.links import LinkKillSchedule
        link_kills = LinkKillSchedule.from_spec(options.link_kills)
    if options is not None:
        with run_context(options):
            return _simulate(scheme, workload, link_kills)
    return _simulate(scheme, workload, link_kills)


def _simulate(scheme, workload: Workload,
              link_kills=None) -> RunResult:
    scheme_name = getattr(scheme, "name", type(scheme).__name__)
    tracer = get_tracer()
    scheme.begin(workload)
    n_links = workload.topology.num_links
    loads = np.zeros((workload.n_steps, n_links))
    delivered: dict[int, float] = defaultdict(float)
    runtimes = ModuleRuntimes()

    delivery_log: dict[int, list[tuple[int, float]]] = defaultdict(list)

    arrivals: dict[int, list] = defaultdict(list)
    for request in workload.requests:
        arrivals[request.arrival].append(request)

    capacity = capacity_view(scheme, workload)
    window = window_of(scheme, workload)
    state = getattr(scheme, "state", None)
    #: Per-(t, link) prices for pricing ALLOCATED ledger events; schemes
    #: without a NetworkState get unpriced allocations.
    prices = state.prices if state is not None else None

    failures: list[FailureEvent] = []

    #: name -> TrafficClass for the workload's declared classes; lets
    #: ARRIVED events carry the preemptible flag the auditor waives
    #: soft-guarantee misses on.
    class_table = {cls.name: cls
                   for cls in getattr(workload, "classes", ())}

    if tracer.enabled:
        # The ground truth the invariant auditor replays against: the
        # usable-capacity grid as of run start (faults only lower it, so
        # conservation vs this grid stays a valid upper bound).
        ledger.record("RUN_STARTED", scheme=scheme_name,
                      n_steps=workload.n_steps, n_links=n_links,
                      n_requests=workload.n_requests,
                      capacity=np.asarray(capacity).tolist())

    with tracer.span("run", scheme=scheme_name, n_steps=workload.n_steps,
                     n_requests=workload.n_requests) as run_span:
        for t in range(workload.n_steps):
            if link_kills is not None and state is not None:
                # Scheduled outages land before PC/RA/SAM see the step,
                # so this step's decisions already face the dead link
                # (and dynamic routing policies have re-hashed).
                for kill in link_kills.apply(state, t):
                    if tracer.enabled:
                        ledger.record("LINK_KILLED", step=t,
                                      src=kill.src, dst=kill.dst,
                                      end=kill.end)
            # LP errors are caught at every module boundary: a scheme
            # without its own resilience layer loses that one call
            # (stale prices / unadmitted arrival / idle step) but the
            # run completes and the failure is recorded structurally.
            if t % window == 0:
                with tracer.span("pc", step=t) as span:
                    try:
                        scheme.window_start(t)
                    except LPError as exc:
                        span.set(degraded=True, error=type(exc).__name__)
                        record_failure(failures, "pc", t, exc)
                if span.duration > 0:
                    runtimes.pc.append(span.duration)
            else:
                # Off-boundary calls are cheap no-ops for every scheme;
                # timing them would only dilute the PC samples.
                try:
                    scheme.window_start(t)
                except LPError as exc:
                    record_failure(failures, "pc", t, exc)

            for request in arrivals.get(t, []):
                if tracer.enabled:
                    ledger.record("ARRIVED", rid=request.rid, step=t,
                                  src=request.src, dst=request.dst,
                                  demand=float(request.demand),
                                  value=float(request.value),
                                  start=int(request.start),
                                  deadline=int(request.deadline),
                                  scavenger=bool(request.scavenger),
                                  cls=(cls_name := str(getattr(
                                      request, "cls", "default"))),
                                  preemptible=bool(getattr(
                                      class_table.get(cls_name),
                                      "preemptible", False)))
                with tracer.span("ra", step=t, rid=request.rid) as span:
                    try:
                        scheme.arrival(request, t)
                    except LPError as exc:
                        span.set(degraded=True, error=type(exc).__name__)
                        record_failure(failures, "ra", t, exc,
                                        rid=request.rid)
                runtimes.ra.append(span.duration)

            with tracer.span("sam", step=t) as span:
                try:
                    transmissions = scheme.step(t, dict(delivered), loads)
                except LPError as exc:
                    span.set(degraded=True, error=type(exc).__name__)
                    record_failure(failures, "sam", t, exc)
                    transmissions = []
                span.set(n_transmissions=len(transmissions))
            runtimes.sam.append(span.duration)

            apply_transmissions(transmissions, t, loads, delivered, capacity,
                   delivery_log, prices=prices, emit=tracer.enabled)

        payments = settle_contracts(scheme, delivered, emit=tracer.enabled)
        chosen = {c.rid: c.chosen for c in getattr(scheme, "contracts", [])}
        run_span.set(delivered=float(sum(delivered.values())),
                     n_contracts=len(chosen), n_failures=len(failures))
        if tracer.enabled:
            ledger.record("RUN_ENDED",
                          delivered_total=float(sum(delivered.values())),
                          payments_total=float(sum(payments.values())),
                          n_contracts=len(chosen),
                          n_failures=len(failures))

    # End-of-run lifecycle: schemes holding per-run resources (the
    # persistent solver sessions of SAM/PC) release them here.
    close = getattr(scheme, "close", None)
    if close is not None:
        close()

    extras = {"runtimes": runtimes}
    if failures:
        extras["failures"] = failures
    degradation = getattr(scheme, "failure_events", None)
    if degradation:
        extras["degradation"] = list(degradation)
    if state is not None:
        extras["prices"] = state.prices.copy()
    return RunResult(workload=workload,
                     scheme_name=scheme_name,
                     loads=loads, delivered=dict(delivered),
                     payments=payments, chosen=chosen, extras=extras,
                     delivery_log=dict(delivery_log))


def record_failure(failures: list[FailureEvent], module: str, t: int,
                    exc: BaseException, rid: int | None = None) -> None:
    """Append a structured failure event and bump the engine counters."""
    failures.append(FailureEvent(module=module, step=t,
                                 error=type(exc).__name__,
                                 detail=str(exc), rid=rid))
    registry = get_registry()
    registry.counter("engine.failures").inc()
    registry.counter(f"engine.failures.{module}").inc()
    tracer = get_tracer()
    if tracer.enabled:
        tracer.emit({"type": "engine_failure", "ts": time.time(),
                     "module": module, "step": t, "rid": rid,
                     "error": type(exc).__name__})


def window_of(scheme, workload: Workload) -> int:
    config = getattr(scheme, "config", None)
    return getattr(config, "window", workload.steps_per_day) or \
        workload.steps_per_day


def capacity_view(scheme, workload: Workload) -> np.ndarray:
    """Per-(t, link) usable capacity to validate transmissions against."""
    state = getattr(scheme, "state", None)
    if state is not None:
        return state.capacity
    caps = np.array([link.capacity for link in workload.topology.links])
    return np.tile(caps, (workload.n_steps, 1))


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
        _check_capacity(tx, t, loads, capacity)
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


def _check_capacity(tx, t: int, loads: np.ndarray,
                    capacity: np.ndarray) -> None:
    """Raise :class:`CapacityViolation` if ``tx`` overfills any of its
    links at step ``t``; the message names the link, step, resulting
    load and capacity so a scheme bug is diagnosable from the error."""
    for index in tx.links:
        new_load = loads[t, index] + tx.volume
        cap = capacity[t, index]
        if new_load > cap * (1.0 + CAPACITY_SLACK) + 1e-7:
            raise CapacityViolation(
                f"request {tx.rid}: link {index} at step {t}: "
                f"load {new_load:.6f} exceeds capacity {cap:.6f} "
                f"(adding volume {tx.volume:.6f})")


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
