"""Synthetic open-loop load generation against a live admission service.

:func:`generate_load` replays a scenario's workload as a live arrival
stream.  Independent customers do not wait for each other, so the
stream is sent on a schedule — customer ``n`` is due at
``t0 + n / rate`` — whatever the service does, and every latency is
taken **from that due time**: a stall is charged to each request it
delayed, including the time the sender itself spent blocked on the
service's ``max_pending`` bound, and not only to the request being
served.  Each request is optionally preceded by ``price_checks``
advisory quote probes for the same request, which is what live
customers comparing windows would do — and what makes the warm menu
cache earn its keep.

The returned :class:`LoadReport` is built from this replay's own
samples only.  The service's ``service.latency_ms`` / ``queue_ms`` /
``service_ms`` histograms (enqueue → decision, and its queueing vs
quoting split) stay on the metrics registry and ``/metrics``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .service import AdmissionService


@dataclass
class LoadReport:
    """What one replay offered and what came back."""

    offered: int = 0
    answered: int = 0
    admitted: int = 0
    rejected: int = 0
    degraded: int = 0
    errors: int = 0
    price_checks: int = 0
    wall_s: float = 0.0
    #: Admission latency from due time: count, p50, p95, p99, max (ms).
    latency_ms: dict[str, float] = field(default_factory=dict)
    #: The same for the advisory price checks.
    price_check_ms: dict[str, float] = field(default_factory=dict)
    #: How late the sender ran against its schedule, p99 (paced runs).
    late_p99_ms: float = 0.0
    #: Answered admissions plus price checks per second of ``wall_s``.
    quotes_per_s: float = math.nan


def _quantiles(samples: list[float]) -> dict[str, float]:
    if not samples:
        return {}
    p50, p95, p99 = np.percentile(samples, (50, 95, 99))
    return {"count": len(samples), "p50": float(p50), "p95": float(p95),
            "p99": float(p99), "max": max(samples)}


def generate_load(service: AdmissionService, requests, *,
                  rate: float = 0.0, price_checks: int = 0) -> LoadReport:
    """Offer ``requests`` to ``service`` open-loop; gather the outcomes.

    Parameters
    ----------
    service:
        A started :class:`AdmissionService`.
    requests:
        Iterable of :class:`~repro.core.request.ByteRequest`, replayed
        in order at each request's own ``arrival`` step.
    rate:
        Offered load in customers/second of wall-clock; ``0`` sends as
        fast as the backpressure bound admits (closed only by
        ``max_pending``), each customer due when it is sent.
    price_checks:
        Advisory quote probes issued for each request before its
        admission — re-quoting the same request, so all but the first
        are warm-cache candidates.
    """
    requests = list(requests)
    report = LoadReport(offered=len(requests),
                        price_checks=price_checks * len(requests))
    samples: dict[str, list[float]] = {"admit": [], "quote": []}
    landed = threading.Semaphore(0)

    def timed(kind: str, due: float):
        def record(future) -> None:
            # Runs on the service's owner thread as the answer lands.
            if future.exception() is None:
                samples[kind].append((time.perf_counter() - due) * 1e3)
            landed.release()
        return record

    futures = []
    late: list[float] = []
    began = time.perf_counter()
    for n, request in enumerate(requests):
        if rate > 0:
            due = began + n / rate
            lag = due - time.perf_counter()
            if lag > 0:
                time.sleep(lag)
            late.append((time.perf_counter() - due) * 1e3)
        else:
            due = time.perf_counter()
        for kind in ("quote",) * price_checks + ("admit",):
            send = service.submit if kind == "admit" else service.price_check
            future = send(request)
            future.add_done_callback(timed(kind, due))
            futures.append((kind, future))
    for _ in futures:
        landed.acquire()
    report.wall_s = time.perf_counter() - began

    for kind, future in futures:
        if future.exception() is not None:
            report.errors += 1
            continue
        if kind != "admit":
            continue
        outcome = future.result()
        report.answered += 1
        if outcome.admitted:
            report.admitted += 1
        else:
            report.rejected += 1
        if outcome.degraded:
            report.degraded += 1
    if report.wall_s > 0:
        report.quotes_per_s = (report.answered + report.price_checks) \
            / report.wall_s
    report.latency_ms = _quantiles(samples["admit"])
    report.price_check_ms = _quantiles(samples["quote"])
    if late:
        report.late_p99_ms = float(np.percentile(late, 99))
    return report
