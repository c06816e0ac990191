"""Live operations plane: HTTP metrics endpoint, snapshot ring, SLOs.

Everything before this module was post-hoc — traces are analysed after a
run ends.  A live :class:`~repro.service.AdmissionService` or a
multi-hour campaign needs visibility *while it serves*; this module
provides it with stdlib only:

- :class:`LiveMetricsServer` — a tiny threaded HTTP server exposing the
  process's :class:`~repro.telemetry.registry.MetricsRegistry` as

  - ``GET /metrics`` — Prometheus text exposition (the same renderer
    ``telemetry export --format prometheus`` uses), scrape it with any
    Prometheus-compatible collector;
  - ``GET /healthz`` — liveness JSON (status, uptime, SLO ok-bit);
  - ``GET /snapshot`` — full JSON view: current snapshot + kinds, the
    SLO objective status, and the snapshotter's recent history ring.

- :class:`Snapshotter` — a daemon thread sampling the registry every
  ``period`` seconds into a bounded ring, giving scrapes a short time
  series (rates can be derived client-side) without unbounded memory.

- :class:`SLOTracker` — evaluates the service-level objectives the
  paper's "timely transfers" promise implies: quote-latency p99 against
  the configured quote deadline, error-budget burn rate, and the
  degraded-step rate.  Surfaced in ``/snapshot``, ``/healthz`` and the
  campaign report.

The server binds ``127.0.0.1`` by default and is explicitly opt-in
(``ServiceOptions.metrics_port`` / ``serve --metrics-port`` /
``run_campaign(metrics_port=...)``); port 0 picks an ephemeral port,
which the tests use.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque

from .export import prometheus_exposition
from .registry import MetricsRegistry, get_registry

__all__ = ["LiveMetricsServer", "SLOTracker", "Snapshotter"]


def _resolve(registry: MetricsRegistry | None) -> MetricsRegistry:
    """``registry``, or the process registry current at call time."""
    return registry if registry is not None else get_registry()


class SLOTracker:
    """Evaluate service-level objectives against a metrics registry.

    Three objectives, all derived from metrics the service and engine
    already record (reads never *create* metrics — an objective whose
    inputs are absent reports ``None`` and does not count against
    ``ok``):

    - **quote latency** — p99 of ``latency_metric`` (milliseconds) must
      stay at or under ``quote_deadline_ms``; the paper's promise is a
      bounded quote turnaround, so this is the headline objective.
    - **error budget** — the fraction of answered requests that failed
      (``error_metrics``) may burn at most ``1 - availability_target``;
      ``burn`` is the observed bad fraction over the allowed fraction,
      so burn > 1 means the budget is being spent faster than earned.
    - **degraded rate** — fraction of answers served on a degraded path
      (``degraded_metrics``) must stay at or under ``degraded_target``.
    """

    def __init__(self, registry: MetricsRegistry | None = None, *,
                 quote_deadline_ms: float | None = None,
                 availability_target: float = 0.999,
                 degraded_target: float = 0.05,
                 latency_metric: str = "service.latency_ms",
                 total_metrics=("service.admitted", "service.rejected"),
                 error_metrics=("service.errors", "service.overloaded"),
                 degraded_metrics=("service.degraded",)) -> None:
        if not 0.0 < availability_target < 1.0:
            raise ValueError("availability_target must be in (0, 1)")
        self.registry = registry
        self.quote_deadline_ms = quote_deadline_ms
        self.availability_target = availability_target
        self.degraded_target = degraded_target
        self.latency_metric = latency_metric
        self.total_metrics = tuple(total_metrics)
        self.error_metrics = tuple(error_metrics)
        self.degraded_metrics = tuple(degraded_metrics)

    def _count(self, registry: MetricsRegistry, names) -> int:
        # Membership-checked reads: asking the registry for an absent
        # counter would create it and pollute the fleet view.
        return sum(registry.counter(name).value
                   for name in names if name in registry)

    def status(self) -> dict:
        """The current objective evaluation as a JSON-friendly dict.

        ``ok`` is true while every *evaluable* objective is met;
        objectives with no data yet are reported with ``ok: None`` and
        do not trip the overall bit.
        """
        registry = _resolve(self.registry)
        objectives = {}

        latency = None
        if self.latency_metric in registry:
            hist = registry.histogram(self.latency_metric)
            if hist.count:
                p99 = hist.quantile(0.99)
                ok = (None if self.quote_deadline_ms is None
                      else p99 <= self.quote_deadline_ms)
                latency = {"p99_ms": p99, "count": hist.count,
                           "target_ms": self.quote_deadline_ms, "ok": ok}
        objectives["quote_latency"] = latency

        answered = self._count(registry, self.total_metrics)
        errors = self._count(registry, self.error_metrics)
        total = answered + errors
        budget = None
        if total:
            bad_rate = errors / total
            allowed = 1.0 - self.availability_target
            burn = bad_rate / allowed
            budget = {"bad_rate": bad_rate, "burn": burn,
                      "target": self.availability_target,
                      "ok": burn <= 1.0}
        objectives["error_budget"] = budget

        degraded = None
        if total:
            rate = self._count(registry, self.degraded_metrics) / total
            degraded = {"rate": rate, "target": self.degraded_target,
                        "ok": rate <= self.degraded_target}
        objectives["degraded"] = degraded

        evaluated = [obj["ok"] for obj in objectives.values()
                     if obj is not None and obj["ok"] is not None]
        return {"ok": all(evaluated) if evaluated else True,
                "objectives": objectives}


class Snapshotter:
    """Sample a registry into a bounded ring on a daemon thread.

    Each sample is ``{"ts": <unix time>, "metrics": <snapshot>}``; the
    ring holds the most recent ``capacity`` samples, so the ``/snapshot``
    endpoint can show a short time series (and clients can derive rates)
    at a fixed memory cost.  ``period <= 0`` disables sampling entirely
    (:meth:`start` is a no-op) — the live endpoints still work, they
    just carry an empty history.
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 period: float = 1.0, capacity: int = 300) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.registry = registry
        self.period = period
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> dict:
        """Take one sample now and append it to the ring."""
        entry = {"ts": time.time(), "metrics": _resolve(self.registry).snapshot()}
        self._ring.append(entry)
        return entry

    def history(self) -> list[dict]:
        """The ring's samples, oldest first."""
        return list(self._ring)

    def start(self) -> "Snapshotter":
        if self.period <= 0 or self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="metrics-snapshotter")
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            self.sample()


class LiveMetricsServer:
    """Threaded HTTP exporter for a process's metrics registry.

    Stdlib only (:class:`~http.server.ThreadingHTTPServer` with daemon
    handler threads).  Construction does not bind; :meth:`start` does,
    and raises ``OSError`` if the port is taken.  ``port=0`` binds an
    ephemeral port — read the bound one back from :attr:`port` /
    :attr:`url`.  An attached :class:`SLOTracker` enriches ``/healthz``
    and ``/snapshot``; an attached :class:`Snapshotter` (created
    automatically when ``snapshot_period > 0``) contributes the history
    ring.
    """

    def __init__(self, registry: MetricsRegistry | None = None, *,
                 port: int = 0, host: str = "127.0.0.1",
                 slo: SLOTracker | None = None,
                 snapshot_period: float = 1.0,
                 history: int = 300) -> None:
        self.registry = registry
        self.host = host
        self._requested_port = port
        self.slo = slo
        self.snapshotter = Snapshotter(registry, period=snapshot_period,
                                       capacity=history)
        self._httpd = None
        self._thread: threading.Thread | None = None
        self._started = 0.0

    # -- lifecycle -----------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port (the requested one before :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "LiveMetricsServer":
        if self._httpd is not None:
            return self
        # Imported here: only a process that serves metrics pays for it.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                server._handle(self)

            def log_message(self, *args) -> None:  # quiet by design
                pass

        httpd = ThreadingHTTPServer((self.host, self._requested_port),
                                    Handler)
        httpd.daemon_threads = True
        self._httpd = httpd
        self._started = time.time()
        self.snapshotter.start()
        self._thread = threading.Thread(target=httpd.serve_forever,
                                        daemon=True, name="metrics-http")
        self._thread.start()
        return self

    def stop(self) -> None:
        self.snapshotter.stop()
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "LiveMetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request handling ----------------------------------------------------
    def _handle(self, request) -> None:
        path = request.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                registry = _resolve(self.registry)
                body = prometheus_exposition(registry.snapshot(),
                                             registry.kinds())
                self._respond(request, 200, body,
                              "text/plain; version=0.0.4; charset=utf-8")
            elif path == "/healthz":
                payload = {"status": "ok",
                           "uptime_s": time.time() - self._started,
                           "metrics": len(_resolve(self.registry))}
                if self.slo is not None:
                    payload["slo_ok"] = self.slo.status()["ok"]
                self._respond_json(request, 200, payload)
            elif path == "/snapshot":
                registry = _resolve(self.registry)
                payload = {"ts": time.time(),
                           "metrics": registry.snapshot(),
                           "kinds": registry.kinds(),
                           "history": self.snapshotter.history()}
                if self.slo is not None:
                    payload["slo"] = self.slo.status()
                self._respond_json(request, 200, payload)
            else:
                self._respond_json(request, 404, {
                    "error": f"unknown path {path!r}",
                    "paths": ["/metrics", "/healthz", "/snapshot"]})
        except BrokenPipeError:  # scraper went away mid-response
            pass

    @staticmethod
    def _respond(request, code: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        request.send_response(code)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(data)))
        request.end_headers()
        request.wfile.write(data)

    def _respond_json(self, request, code: int, payload: dict) -> None:
        self._respond(request, code, json.dumps(payload),
                      "application/json; charset=utf-8")
