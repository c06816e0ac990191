"""The admission service: a live front door for the engine.

:class:`AdmissionService` wraps an :class:`~repro.service.engine.AdmissionEngine`
in one long-lived owner thread that blocks on a
:class:`queue.SimpleQueue`, giving the deterministic core the
operational properties a live service needs:

- **thread-safe submission** — :meth:`submit` / :meth:`price_check` can
  be called from any thread; work crosses to the owner thread through
  the queue and results come back as
  :class:`concurrent.futures.Future` objects;
- **micro-batched admission** — after picking up a submission the owner
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
  conservatively, but the owner thread never blocks on it and the books
  still balance (the degradation leaves a DEGRADED ledger event, the
  auditor's waiver).

Every quote's end-to-end latency (enqueue → decision) lands in the
``service.latency_ms`` histogram, split into its two components:
``service.queue_ms`` (enqueue → processing start, the micro-batch
queueing wait) and ``service.service_ms`` (processing start → decision,
the actual quoting work).  Queue depth, batch sizes and overload
rejections are tracked alongside (``service.*`` metrics).
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from queue import Empty, SimpleQueue

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
    """One unit of work crossing the thread boundary to the owner."""

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
    on the owner thread so *all* engine state lives on one thread and the
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
        self._thread: threading.Thread | None = None
        self._queue: SimpleQueue = SimpleQueue()
        self._ready = threading.Event()
        #: Guards ``_closed`` and every put, so nothing lands behind STOP.
        self._lock = threading.Lock()
        self._closed = True             # until start(), and once stopping
        self._startup_error: BaseException | None = None
        self._fatal_error: BaseException | None = None
        self._pending = threading.BoundedSemaphore(self.options.max_pending)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "AdmissionService":
        if self._thread is not None:
            raise ServiceClosed("service already started")
        self._closed = False
        self._thread = threading.Thread(target=self._run_loop,
                                        name="repro-admission-service",
                                        daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def stop(self):
        """Drain the queue, run out the horizon, settle, return the
        :class:`~repro.sim.engine.RunResult`.  Idempotent."""
        if self._thread is None:
            raise ServiceClosed("service was never started")
        with self._lock:
            if not self._closed:
                self._closed = True
                # Everything submitted before the sentinel is still answered.
                self._queue.put(_STOP)
        self._thread.join()
        if self._fatal_error is not None:
            raise self._fatal_error
        return self.result

    def __enter__(self) -> "AdmissionService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return not self._closed

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
        with self._lock:    # checked here: stop() may run while we wait
            if not self._closed:
                self._queue.put(sub)
                return sub.future
        self._pending.release()
        raise ServiceClosed("service is not accepting submissions")

    # -- the owner thread ----------------------------------------------------
    def _run_loop(self) -> None:
        batch: deque[_Submission] = deque()   # off the queue, not yet answered
        try:
            self.engine.start()
            self._ready.set()
            registry, queue = get_registry(), self._queue
            stopping = False
            while not stopping:
                first = queue.get()
                if first is _STOP:
                    break
                batch.append(first)
                stopping = self._fill_batch(batch)
                registry.histogram("service.batch_size").observe(len(batch))
                registry.gauge("service.queue_depth").set(queue.qsize())
                while batch:
                    self._process(batch.popleft())
            self.result = self.engine.finish()
        except BaseException as exc:  # noqa: BLE001 — for start()/stop()
            if self._ready.is_set():
                self._fatal_error = exc
            else:
                self._startup_error = exc
        finally:
            self._refuse_unanswered(batch)
            self._ready.set()

    def _fill_batch(self, batch: deque) -> bool:
        """Collect the rest of an arrival burst; True if STOP was seen.

        Lingers for stragglers until ``batch_window`` seconds after the
        first pickup; past that (or with no window) only drains
        submissions that are already queued.  FIFO order is preserved
        either way — batching amortises tick overhead, it never reorders
        arrivals.
        """
        options, queue = self.options, self._queue
        deadline = time.monotonic() + options.batch_window
        while len(batch) < options.batch_max:
            remaining = deadline - time.monotonic()
            try:
                item = (queue.get(timeout=remaining) if remaining > 0
                        else queue.get_nowait())
            except Empty:
                return False
            if item is _STOP:
                return True
            batch.append(item)
        return False

    def _refuse_unanswered(self, batch: deque) -> None:
        """Close the service as the owner thread leaves, for any reason,
        then fail the batch in hand and whatever is still queued."""
        with self._lock:
            self._closed = True
        while not self._queue.empty():      # no put can follow the close
            batch.append(self._queue.get_nowait())
        for sub in batch:
            if sub is not _STOP:
                if sub.future.set_running_or_notify_cancel():
                    sub.future.set_exception(
                        ServiceClosed("service stopped before answering"))
                self._pending.release()

    def _process(self, sub: _Submission) -> None:
        """Answer one submission on the owner thread; never raises."""
        if not sub.future.set_running_or_notify_cancel():
            self._pending.release()      # cancelled by its caller while queued
            return
        registry = get_registry()
        engine = self.engine
        admission = getattr(engine.scheme, "admission", None)
        started = time.perf_counter()
        try:
            if sub.kind == "admit":
                if admission is not None and sub.budget is not None:
                    # The budget keeps burning while queued: a submission
                    # that waited past its deadline degrades instead of
                    # stealing owner time from the ones behind it.
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
