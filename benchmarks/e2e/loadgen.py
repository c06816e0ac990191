"""The harness's own open-loop load generator.

Independent customers do not wait for each other, so the stream is sent
on a schedule — customer ``n`` is due at ``t0 + n / rate`` — whatever
the service does, and every latency is taken **from the due time**, so a
stall is charged to each request it delayed and not only to the one that
was being served.  How late the single sender thread itself ran is
reported beside the latencies.  ``repro.service.loadgen`` cannot stand in
for this: it times from enqueue and reads process-global histograms.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep


#: A future that has not completed this long after the last send never
#: will (the service loop is gone); the request counts as failed.
ANSWER_TIMEOUT_S = 60.0


@dataclass
class Phase:
    """What one replay of the stream offered and what came back.

    ``admit_ms`` / ``quote_ms`` hold the latencies of the operations that
    were answered; a failed one has none and so misses every limit.
    """

    rate: float                       # customers per second; 0 = unpaced
    customers: int = 0
    operations: int = 0               # admissions plus price checks offered
    sent: int = 0                     # ... of which the service accepted
    answered: int = 0                 # futures that completed with a result
    failed: int = 0                   # refused, raised, or never answered
    degraded: int = 0
    admit_ms: list[float] = field(default_factory=list)
    quote_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    depth_half: int = 0               # operations in flight, half-way
    depth_end: int = 0                # ... and when the sender finished
    depth_max: int = 0
    send_s: float = 0.0               # first due time -> last send

    def backlog_grew(self, tick_s: float) -> bool:
        """In flight at the end beyond half-way's plus one tick's arrivals.

        A SAM or PC tick blocks the loop, so up to ``rate * tick_s``
        customers' operations may be waiting behind one without the
        service falling behind.
        """
        per_customer = self.sent / max(1, self.customers)
        return self.depth_end > (self.depth_half
                                 + self.rate * tick_s * per_customer)


def replay(service, customers, rate: float) -> Phase:
    """Send every customer's operations in order; wait for all answers.

    ``customers`` is a list of operation lists, each operation a
    ``("admit" | "quote", request)`` pair; a customer's operations go out
    back to back at its due time.  ``rate`` 0 sends as fast as the
    service's ``max_pending`` bound lets the sender go.  The sending runs
    on one thread of its own; this call returns once it has finished and
    every future has completed.
    """
    n_ops = sum(len(ops) for ops in customers)
    phase = Phase(rate=rate, customers=len(customers), operations=n_ops)
    latency: list[float | None] = [None] * n_ops
    kinds: list[str] = [""] * n_ops
    done = threading.Semaphore(0)
    counters = {"answered": 0, "failed": 0, "degraded": 0}

    def on_done(index, due):
        def callback(future):
            # Runs on the service's loop thread, the only writer.
            if future.exception() is not None:
                counters["failed"] += 1
            else:
                latency[index] = (perf_counter() - due) * 1e3
                counters["answered"] += 1
                if getattr(future.result(), "degraded", False):
                    counters["degraded"] += 1
            done.release()
        return callback

    def send():
        index = 0
        half = len(customers) // 2
        t0 = perf_counter() + 0.01
        for n, ops in enumerate(customers):
            if rate > 0:
                due = t0 + n / rate
                wait = due - perf_counter()
                if wait > 0:
                    sleep(wait)
                phase.late_ms.append((perf_counter() - due) * 1e3)
            else:
                due = perf_counter()
            for kind, request in ops:
                kinds[index] = kind
                call = service.submit if kind == "admit" else service.price_check
                try:
                    call(request).add_done_callback(on_done(index, due))
                    phase.sent += 1
                except Exception:  # noqa: BLE001 — a refused send is a failed request
                    done.release()
                index += 1
            depth = phase.sent - counters["answered"] - counters["failed"]
            phase.depth_max = max(phase.depth_max, depth)
            if n == half:
                phase.depth_half = depth
        phase.depth_end = phase.sent - counters["answered"] - counters["failed"]
        phase.send_s = perf_counter() - t0

    sender = threading.Thread(target=send, name="e2e-loadgen")
    sender.start()
    sender.join()
    for _ in range(n_ops):
        if not done.acquire(timeout=ANSWER_TIMEOUT_S):
            break  # the loop died; what never answered counts as failed
    phase.answered = counters["answered"]
    phase.failed = n_ops - phase.answered
    phase.degraded = counters["degraded"]
    for kind, value in zip(kinds, latency):
        if value is not None:
            (phase.admit_ms if kind == "admit" else phase.quote_ms).append(value)
    return phase
