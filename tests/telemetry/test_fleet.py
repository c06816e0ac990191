"""Tests for fleet-wide metric aggregation across sweep shards."""

import json

from repro.telemetry import (MetricsRegistry, fleet_registry,
                             fleet_registry_from_cells)


class FakeCell:
    def __init__(self, worker, metrics):
        self.worker = worker
        self.metrics = metrics


def _worker_dump(admitted, latency, rss):
    registry = MetricsRegistry()
    registry.counter("pretium.admitted").inc(admitted)
    for value in latency:
        registry.histogram("service.latency_ms").observe(value)
    registry.gauge("worker.peak_rss_mb").set(rss)
    # Through JSON, as the sweep pool's pickled results effectively are.
    return json.loads(json.dumps(registry.dump()))


def test_fleet_registry_from_cells_merges_every_shard():
    cells = [FakeCell(0, _worker_dump(2, [1.0, 2.0], 100.0)),
             FakeCell(1, _worker_dump(3, [4.0], 250.0)),
             FakeCell(None, {})]  # a failed cell carries no metrics
    fleet = fleet_registry_from_cells(cells)
    snapshot = fleet.snapshot()
    assert snapshot["pretium.admitted"] == 5
    assert snapshot["service.latency_ms"]["count"] == 3
    assert snapshot["service.latency_ms"]["max"] == 4.0
    assert snapshot["worker.peak_rss_mb[worker=0]"] == 100.0
    assert snapshot["worker.peak_rss_mb[worker=1]"] == 250.0


def test_fleet_registry_from_trace_events():
    events = [
        {"type": "run_started"},
        {"type": "metrics", "worker": 0,
         "states": _worker_dump(1, [1.0], 50.0)},
        {"type": "metrics", "worker": 1,
         "states": _worker_dump(4, [], 60.0)},
    ]
    fleet = fleet_registry(events)
    assert fleet.counter("pretium.admitted").value == 5
    assert fleet.snapshot()["worker.peak_rss_mb[worker=1]"] == 60.0


def test_fleet_registry_none_without_states():
    assert fleet_registry([{"type": "run_started"}]) is None
