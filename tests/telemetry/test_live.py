"""Tests for the live operations plane: SLOs, snapshot ring, HTTP
endpoints — plus the end-to-end scrape of a running AdmissionService."""

import json
import threading
import time
import urllib.request

import pytest

from repro.telemetry import (LiveMetricsServer, MetricsRegistry,
                             SLOTracker, Snapshotter)


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode("utf-8"))


# -- SLOTracker ---------------------------------------------------------------

def test_slo_all_unevaluable_is_ok():
    status = SLOTracker(MetricsRegistry()).status()
    assert status["ok"] is True
    assert status["objectives"] == {"quote_latency": None,
                                    "error_budget": None, "degraded": None}


def test_slo_reads_never_create_metrics():
    registry = MetricsRegistry()
    SLOTracker(registry).status()
    assert len(registry) == 0


def test_slo_quote_latency_against_deadline():
    registry = MetricsRegistry()
    for value in (5.0, 5.0, 5.0, 50.0):
        registry.histogram("service.latency_ms").observe(value)
    good = SLOTracker(registry, quote_deadline_ms=100.0).status()
    assert good["objectives"]["quote_latency"]["ok"] is True
    bad = SLOTracker(registry, quote_deadline_ms=10.0).status()
    latency = bad["objectives"]["quote_latency"]
    assert latency["ok"] is False and latency["count"] == 4
    assert bad["ok"] is False
    # Without a deadline there is no target: observed but not judged.
    free = SLOTracker(registry).status()
    assert free["objectives"]["quote_latency"]["ok"] is None
    assert free["ok"] is True


def test_slo_error_budget_burn():
    registry = MetricsRegistry()
    registry.counter("service.admitted").inc(98)
    registry.counter("service.errors").inc(2)
    # 2% bad with 99.9% target -> burn 20x.
    status = SLOTracker(registry).status()
    budget = status["objectives"]["error_budget"]
    assert budget["bad_rate"] == pytest.approx(0.02)
    assert budget["burn"] == pytest.approx(20.0)
    assert budget["ok"] is False
    # A 90% target makes the same traffic fit in budget.
    relaxed = SLOTracker(registry, availability_target=0.90).status()
    assert relaxed["objectives"]["error_budget"]["ok"] is True


def test_slo_degraded_rate():
    registry = MetricsRegistry()
    registry.counter("service.admitted").inc(90)
    registry.counter("service.rejected").inc(10)
    registry.counter("service.degraded").inc(20)
    status = SLOTracker(registry).status()
    assert status["objectives"]["degraded"]["rate"] == pytest.approx(0.2)
    assert status["objectives"]["degraded"]["ok"] is False


def test_slo_rejects_silly_availability():
    with pytest.raises(ValueError):
        SLOTracker(MetricsRegistry(), availability_target=1.0)


# -- Snapshotter --------------------------------------------------------------

def test_snapshotter_ring_is_bounded_and_ordered():
    registry = MetricsRegistry()
    snapshotter = Snapshotter(registry, period=0, capacity=3)
    for i in range(5):
        registry.counter("ticks").inc()
        snapshotter.sample()
    history = snapshotter.history()
    assert len(history) == 3
    assert [entry["metrics"]["ticks"] for entry in history] == [3, 4, 5]
    assert history[0]["ts"] <= history[-1]["ts"]


def test_snapshotter_zero_period_never_starts_a_thread():
    snapshotter = Snapshotter(MetricsRegistry(), period=0)
    assert snapshotter.start() is snapshotter
    assert snapshotter._thread is None
    snapshotter.stop()


# -- LiveMetricsServer --------------------------------------------------------

@pytest.fixture
def server():
    registry = MetricsRegistry()
    registry.counter("pretium.admitted").inc(7)
    registry.gauge("load").set(0.5)
    registry.histogram("service.latency_ms").observe(3.0)
    slo = SLOTracker(registry, quote_deadline_ms=100.0)
    with LiveMetricsServer(registry, port=0, slo=slo,
                           snapshot_period=0) as live:
        yield live


def test_metrics_endpoint_serves_prometheus_text(server):
    status, content_type, body = _get(server.url + "/metrics")
    assert status == 200
    assert content_type.startswith("text/plain")
    assert "version=0.0.4" in content_type
    assert "# TYPE pretium_admitted counter" in body
    assert "pretium_admitted 7" in body
    assert "service_latency_ms_count 1" in body


def test_healthz_reports_uptime_and_slo(server):
    status, content_type, body = _get(server.url + "/healthz")
    assert status == 200 and content_type.startswith("application/json")
    payload = json.loads(body)
    assert payload["status"] == "ok"
    assert payload["uptime_s"] >= 0
    assert payload["metrics"] == 3
    assert payload["slo_ok"] is True


def test_snapshot_endpoint_serves_metrics_kinds_slo(server):
    payload = json.loads(_get(server.url + "/snapshot")[2])
    assert payload["metrics"]["pretium.admitted"] == 7
    assert payload["kinds"]["load"] == "gauge"
    assert payload["slo"]["ok"] is True
    assert payload["history"] == []  # snapshot_period=0: no ring


def test_unknown_path_404_lists_routes(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(server.url + "/nope")
    assert err.value.code == 404
    assert "/metrics" in json.loads(err.value.read().decode())["paths"]


def test_ephemeral_port_and_idempotent_lifecycle():
    live = LiveMetricsServer(MetricsRegistry(), port=0, snapshot_period=0)
    assert not live.running
    live.start()
    try:
        assert live.running and live.port > 0
        assert live.start() is live  # second start is a no-op
    finally:
        live.stop()
        live.stop()  # idempotent
    assert not live.running


def test_bind_conflict_raises_oserror():
    first = LiveMetricsServer(MetricsRegistry(), port=0,
                              snapshot_period=0).start()
    try:
        with pytest.raises(OSError):
            LiveMetricsServer(MetricsRegistry(), port=first.port,
                              snapshot_period=0).start()
    finally:
        first.stop()


# -- the acceptance path: scrape a live service under load --------------------

@pytest.mark.slow
def test_scrape_admission_service_mid_run_and_reconcile(tmp_path,
                                                       monkeypatch):
    """Start the service with a metrics port, drive the open-loop load
    generator through it, scrape /metrics and /snapshot WHILE it runs,
    and reconcile the scraped counters with the final summarize()."""
    import functools

    import repro
    from repro.service import generate_load
    from repro.telemetry import live as live_module
    from repro.telemetry import use_registry

    # A fast history ring, so the replay outlasts the first sample.
    monkeypatch.setattr(live_module, "LiveMetricsServer", functools.partial(
        live_module.LiveMetricsServer, snapshot_period=0.05))

    with use_registry() as registry:
        scenario = repro.ScenarioSpec.of("tiny").build(seed=0)
        requests = sorted(scenario.workload.requests,
                          key=lambda r: (r.arrival, r.rid))
        service_options = repro.ServiceOptions(
            metrics_port=0, quote_deadline=5.0)
        mid_run: list[dict] = []

        with repro.serve("Pretium", scenario,
                         service_options=service_options) as svc:
            live = svc.service.metrics_server
            assert live is not None and live.running

            def scrape_while_serving():
                body = _get(live.url + "/metrics")[2]
                snapshot = json.loads(_get(live.url + "/snapshot")[2])
                mid_run.append({"prom": body, "snapshot": snapshot})

            scraper = threading.Thread(target=scrape_while_serving)
            scraper.start()
            report = generate_load(svc.service, requests, price_checks=1)
            scraper.join()

            # The snapshotter samples one full period after start, so a
            # replay shorter than that leaves the ring empty: wait
            # (bounded) for the first sample rather than for a slow run.
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and not json.loads(
                    _get(live.url + "/snapshot")[2])["history"]:
                time.sleep(0.01)

            # A final scrape after the load drains but with the service
            # (and its exporter) still up: totals must be settled.
            final = json.loads(_get(live.url + "/snapshot")[2])
            final_prom = _get(live.url + "/metrics")[2]
            summary = svc.summary()
        assert svc.service.metrics_server is None  # stop() tore it down

        # Mid-run scrape succeeded and was a real Prometheus page.
        assert mid_run and "# TYPE" in mid_run[0]["prom"]

        # Admission counters reconcile exactly with the load report and
        # the run summary: every answered request was counted once.
        metrics = final["metrics"]
        assert metrics["service.admitted"] == report.admitted
        assert metrics["service.rejected"] == report.rejected
        assert report.answered == summary["n_requests"]
        assert f"service_admitted {report.admitted}" in final_prom

        # The quote-latency histogram saw every quote (admissions plus
        # price checks) and its summary shape is fully populated.
        latency = metrics["service.latency_ms"]
        assert latency["count"] == report.answered + report.price_checks
        assert latency["p50"] <= latency["p99"] <= latency["max"]

        # The SLO block is present and evaluable: the quote-latency
        # objective has the configured deadline as its target.
        slo = final["slo"]
        quote = slo["objectives"]["quote_latency"]
        assert quote is not None
        assert quote["target_ms"] == pytest.approx(5000.0)
        assert slo["objectives"]["error_budget"] is not None

        # The snapshotter's ring accumulated history during the run.
        assert final["history"], "snapshot ring stayed empty"

        # The served registry was the run-scoped one, rolled up into the
        # outer scope on exit by run_context.
        assert registry.counter("service.admitted").value == report.admitted
