"""The asyncio admission service: a live front door for the engine.

:class:`AdmissionService` wraps an :class:`~repro.service.engine.AdmissionEngine`
in a long-lived event loop running on its own thread, giving the
deterministic core the operational properties a live service needs:

- **thread-safe submission** — :meth:`submit` / :meth:`price_check` can
  be called from any thread; work crosses into the loop via
  ``call_soon_threadsafe`` and results come back as
  :class:`concurrent.futures.Future` objects;
- **micro-batched admission** — after picking up a submission the loop
  lingers ``options.batch_window`` seconds (up to ``options.batch_max``
  items) collecting the rest of an arrival burst, then admits the whole
  batch between SAM/PC ticks.  Batching changes *latency*, never
  *decisions*: submissions are processed strictly in arrival order, so a
  replayed trace admits identically to batch :func:`~repro.sim.engine.simulate`;
- **backpressure** — at most ``options.max_pending`` submissions may be
  in flight; beyond that :meth:`submit` blocks (or fails fast with
  :class:`ServiceOverloaded` when ``wait=False``);
- **per-request deadline budgets** — with ``options.quote_deadline`` set,
  each submission carries a :class:`~repro.faults.resilience.DeadlineBudget`
  started at enqueue time.  A submission whose budget is spent (queueing
  included) before quoting starts degrades to the current-price menu via
  the controller's existing resilience path — it is answered late and
  conservatively, but the loop never blocks on it and the books still
  balance (the degradation leaves a DEGRADED ledger event, the auditor's
  waiver).

Every quote's end-to-end latency (enqueue → decision) lands in the
``service.latency_ms`` histogram, split into its two components:
``service.queue_ms`` (enqueue → processing start, the micro-batch
queueing wait) and ``service.service_ms`` (processing start → decision,
the actual quoting work).  Queue depth, batch sizes and overload
rejections are tracked alongside (``service.*`` metrics).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from dataclasses import dataclass, field

from ..faults.resilience import DeadlineBudget
from ..options import ServiceOptions
from ..telemetry import get_registry
from .engine import AdmissionEngine


class ServiceClosed(RuntimeError):
    """The service is not running (never started, stopping, or stopped)."""


class ServiceOverloaded(RuntimeError):
    """Backpressure bound hit and the caller asked not to wait."""


#: Queue sentinel: everything enqueued before it is processed first.
_STOP = object()


@dataclass
class _Submission:
    """One unit of work crossing the thread boundary into the loop."""

    kind: str                    # "admit" | "quote"
    request: object
    step: int | None
    future: concurrent.futures.Future
    budget: DeadlineBudget | None
    enqueued: float = field(default_factory=time.perf_counter)


class AdmissionService:
    """Long-lived admission front door over a deterministic engine.

    Usage::

        engine = AdmissionEngine(scheme, scenario.workload)
        with AdmissionService(engine) as svc:
            decision = svc.submit(request).result()
            quote = svc.price_check(request).result()
        result = svc.result        # the settled RunResult

    The engine must not be started by the caller: the service starts it
    on the loop thread so *all* engine state lives on one thread and the
    core never needs a lock.  A step that fails the engine (a scheme bug,
    a :class:`~repro.sim.engine.CapacityViolation`) fails the submission
    that ran it; later submissions get
    :class:`~repro.service.engine.ServiceStateError` and :meth:`stop`
    raises it, chained to the original error.
    """

    def __init__(self, engine: AdmissionEngine,
                 options: ServiceOptions | None = None) -> None:
        self.engine = engine
        self.options = options or engine.options
        self.result = None
        self.metrics_server = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue | None = None
        self._ready = threading.Event()
        self._closed = False
        self._startup_error: BaseException | None = None
        self._fatal_error: BaseException | None = None
        self._pending = threading.BoundedSemaphore(self.options.max_pending)
        self._depth = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "AdmissionService":
        if self._thread is not None:
            raise ServiceClosed("service already started")
        self._thread = threading.Thread(target=self._run_loop,
                                        name="repro-admission-service",
                                        daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        if self.options.metrics_port is not None:
            from ..telemetry.live import LiveMetricsServer, SLOTracker
            deadline = self.options.quote_deadline
            slo = SLOTracker(
                get_registry(),
                quote_deadline_ms=None if deadline is None
                else deadline * 1e3)
            try:
                self.metrics_server = LiveMetricsServer(
                    get_registry(), port=self.options.metrics_port,
                    slo=slo).start()
            except BaseException:
                # The loop is already running; tear it down cleanly
                # rather than leaking a serving thread behind a failed
                # metrics bind.
                self.stop()
                raise
        return self

    def stop(self):
        """Drain the queue, run out the horizon, settle, return the
        :class:`~repro.sim.engine.RunResult`.  Idempotent."""
        if self._thread is None:
            raise ServiceClosed("service was never started")
        if not self._closed:
            self._closed = True
            # Everything submitted before the sentinel is still answered.
            self._from_any_thread(self._queue.put_nowait, _STOP)
        self._thread.join()
        if self.metrics_server is not None:
            self.metrics_server.stop()
            self.metrics_server = None
        if self._fatal_error is not None:
            raise self._fatal_error
        return self.result

    def __enter__(self) -> "AdmissionService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return (self._thread is not None and self._thread.is_alive()
                and not self._closed)

    # -- submission (any thread) ---------------------------------------------
    def submit(self, request, step: int | None = None, *,
               wait: bool = True,
               timeout: float | None = None) -> concurrent.futures.Future:
        """Enqueue one arrival; the future resolves to its
        :class:`~repro.service.engine.AdmissionDecision`.

        ``step`` defaults to ``request.arrival``.  When the service is at
        its ``max_pending`` bound, blocks until a slot frees (bounded by
        ``timeout``) — or raises :class:`ServiceOverloaded` immediately
        with ``wait=False``.
        """
        return self._enqueue("admit", request, step, wait, timeout)

    def price_check(self, request,
                    step: int | None = None, *, wait: bool = True,
                    timeout: float | None = None) -> concurrent.futures.Future:
        """Enqueue a price check; the future resolves to a
        :class:`~repro.service.engine.QuoteSnapshot`.  Nothing is
        admitted or reserved."""
        return self._enqueue("quote", request, step, wait, timeout)

    def _enqueue(self, kind: str, request, step, wait: bool,
                 timeout: float | None) -> concurrent.futures.Future:
        if self._closed or self._thread is None or not self._thread.is_alive():
            raise ServiceClosed("service is not accepting submissions")
        if wait:
            # timeout=None means wait indefinitely (unlike Lock,
            # Semaphore.acquire treats a negative timeout as expired).
            acquired = self._pending.acquire(timeout=timeout)
        else:
            acquired = self._pending.acquire(blocking=False)
        if not acquired:
            get_registry().counter("service.overloaded").inc()
            raise ServiceOverloaded(
                f"{self.options.max_pending} submissions already pending")
        deadline = self.options.quote_deadline
        budget = None if deadline is None else \
            DeadlineBudget(started=time.perf_counter(), budget=deadline)
        sub = _Submission(kind=kind, request=request, step=step,
                          future=concurrent.futures.Future(), budget=budget)
        try:
            self._from_any_thread(self._queue.put_nowait, sub)
        except BaseException:
            self._pending.release()
            raise
        return sub.future

    def _from_any_thread(self, fn, *args) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            raise ServiceClosed("service loop is gone")
        loop.call_soon_threadsafe(fn, *args)

    # -- the loop (service thread) -------------------------------------------
    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 — surfaced to stop()
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()
            else:
                self._fatal_error = exc

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        try:
            self.engine.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        registry = get_registry()
        stopping = False
        while not stopping:
            first = await self._queue.get()
            if first is _STOP:
                break
            batch = [first]
            stopping = await self._fill_batch(batch)
            registry.histogram("service.batch_size").observe(len(batch))
            registry.gauge("service.queue_depth").set(self._queue.qsize())
            for sub in batch:
                self._process(sub)
        self.result = self.engine.finish()

    async def _fill_batch(self, batch: list) -> bool:
        """Collect the rest of an arrival burst; True if STOP was seen.

        With a batch window, lingers up to ``batch_window`` seconds for
        stragglers; without one, only drains submissions that are
        already queued.  FIFO order is preserved either way — batching
        amortises tick overhead, it never reorders arrivals.
        """
        options, queue = self.options, self._queue
        if options.batch_window > 0:
            deadline = self._loop.time() + options.batch_window
            while len(batch) < options.batch_max:
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    break
                try:
                    item = await asyncio.wait_for(queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
                if item is _STOP:
                    return True
                batch.append(item)
        else:
            while len(batch) < options.batch_max:
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is _STOP:
                    return True
                batch.append(item)
        return False

    def _process(self, sub: _Submission) -> None:
        """Answer one submission on the loop thread; never raises."""
        registry = get_registry()
        engine = self.engine
        admission = getattr(engine.scheme, "admission", None)
        started = time.perf_counter()
        try:
            if sub.kind == "admit":
                if admission is not None and sub.budget is not None:
                    # The budget keeps burning while queued: a submission
                    # that waited past its deadline degrades instead of
                    # stealing loop time from the ones behind it.
                    admission.quote_budget = sub.budget.remaining
                try:
                    outcome = engine.admit(sub.request, sub.step)
                finally:
                    if admission is not None:
                        admission.quote_budget = None
                if outcome.degraded:
                    registry.counter("service.degraded").inc()
            else:
                outcome = engine.quote_only(sub.request, sub.step)
            done = time.perf_counter()
            # End-to-end latency plus its split: time spent waiting in
            # the queue/micro-batch vs time spent actually quoting.
            registry.histogram("service.latency_ms").observe(
                (done - sub.enqueued) * 1e3)
            registry.histogram("service.queue_ms").observe(
                (started - sub.enqueued) * 1e3)
            registry.histogram("service.service_ms").observe(
                (done - started) * 1e3)
            sub.future.set_result(outcome)
        except BaseException as exc:  # noqa: BLE001 — belongs to the caller
            registry.counter("service.errors").inc()
            sub.future.set_exception(exc)
        finally:
            self._pending.release()
