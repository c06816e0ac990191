"""Tests for counters, gauges and the streaming histogram."""

import json
import math

import numpy as np
import pytest

from repro.telemetry import (Counter, Gauge, Histogram, MetricsRegistry,
                             get_registry, set_registry)


def test_counter_increments():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter().inc(-1)


def test_gauge_set_and_inc():
    gauge = Gauge()
    gauge.set(10.0)
    gauge.inc(2.5)
    assert gauge.value == pytest.approx(12.5)


def test_histogram_empty():
    hist = Histogram()
    assert math.isnan(hist.quantile(0.5))
    assert hist.summary() == {"count": 0, "sum": 0.0}


def test_histogram_tracks_exact_extremes_and_sum():
    hist = Histogram()
    for value in (0.5, 2.0, 8.0):
        hist.observe(value)
    assert hist.count == 3
    assert hist.min == 0.5
    assert hist.max == 8.0
    assert hist.total == pytest.approx(10.5)
    assert hist.quantile(0.0) == 0.5
    assert hist.quantile(1.0) == 8.0


def test_histogram_quantiles_bounded_relative_error():
    rng = np.random.default_rng(0)
    samples = rng.lognormal(mean=-7.0, sigma=1.0, size=5000)
    hist = Histogram(growth=1.05)
    for value in samples:
        hist.observe(value)
    for q in (0.50, 0.95, 0.99):
        exact = float(np.quantile(samples, q))
        estimate = hist.quantile(q)
        assert estimate == pytest.approx(exact, rel=0.06), q


def test_histogram_rejects_negative_samples():
    with pytest.raises(ValueError):
        Histogram().observe(-1.0)


def test_histogram_without_storing_samples():
    """The whole point: memory stays bounded however many observations."""
    hist = Histogram(growth=1.05)
    for i in range(100_000):
        hist.observe(1e-6 * (1 + (i % 1000)))
    assert hist.count == 100_000
    assert len(hist._buckets) < 500


def test_registry_get_or_create_and_snapshot():
    registry = MetricsRegistry()
    registry.counter("admitted").inc(3)
    registry.gauge("load").set(0.7)
    registry.histogram("ra").observe(0.5)
    assert registry.counter("admitted") is registry.counter("admitted")
    snapshot = registry.snapshot()
    assert snapshot["admitted"] == 3
    assert snapshot["load"] == pytest.approx(0.7)
    assert snapshot["ra"]["count"] == 1
    json.dumps(snapshot)  # must be JSON-serialisable as-is


def test_registry_rejects_kind_change():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_process_registry_swap_and_restore():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        assert get_registry() is fresh
    finally:
        set_registry(previous)
    assert get_registry() is previous


def test_histogram_state_merge_is_bucket_exact():
    """Merging shard states equals observing every sample in one
    histogram — the property fleet aggregation rests on."""
    rng = np.random.default_rng(1)
    samples = rng.lognormal(mean=-4.0, sigma=1.5, size=2000)
    whole = Histogram(growth=1.05)
    parts = [Histogram(growth=1.05) for _ in range(3)]
    for i, value in enumerate(samples):
        whole.observe(value)
        parts[i % 3].observe(value)
    merged = Histogram(growth=1.05)
    for part in parts:
        # Through JSON: worker shards cross a process boundary.
        merged.merge_state(json.loads(json.dumps(part.state())))
    assert merged.count == whole.count
    assert merged.total == pytest.approx(whole.total)
    assert merged.min == whole.min and merged.max == whole.max
    assert merged.state()["buckets"] == whole.state()["buckets"]
    for q in (0.5, 0.95, 0.99):
        assert merged.quantile(q) == whole.quantile(q)


def test_histogram_merge_rejects_mismatched_buckets():
    a, b = Histogram(growth=1.05), Histogram(growth=1.10)
    b.observe(1.0)
    with pytest.raises(ValueError):
        a.merge_state(b.state())


def test_histogram_merge_empty_state_is_noop():
    hist = Histogram()
    hist.observe(2.0)
    hist.merge_state(Histogram().state())
    assert hist.count == 1 and hist.min == 2.0


def test_registry_dump_merge_counters_sum_gauges_scope():
    worker_a, worker_b = MetricsRegistry(), MetricsRegistry()
    worker_a.counter("admitted").inc(3)
    worker_b.counter("admitted").inc(4)
    worker_a.gauge("rss_mb").set(100.0)
    worker_b.gauge("rss_mb").set(200.0)
    worker_a.histogram("lat_ms").observe(1.0)
    worker_b.histogram("lat_ms").observe(4.0)
    fleet = MetricsRegistry()
    fleet.merge_dump(json.loads(json.dumps(worker_a.dump())), worker=0)
    fleet.merge_dump(json.loads(json.dumps(worker_b.dump())), worker=1)
    snapshot = fleet.snapshot()
    # Counters sum across the fleet; gauges stay per-worker (a mean of
    # point-in-time values would mean nothing); histograms merge.
    assert snapshot["admitted"] == 7
    assert snapshot["rss_mb[worker=0]"] == 100.0
    assert snapshot["rss_mb[worker=1]"] == 200.0
    assert "rss_mb" not in snapshot
    assert snapshot["lat_ms"]["count"] == 2
    assert snapshot["lat_ms"]["max"] == 4.0


def test_registry_merge_dump_without_worker_keeps_gauge_name():
    fleet = MetricsRegistry()
    source = MetricsRegistry()
    source.gauge("load").set(0.5)
    fleet.merge_dump(source.dump())
    assert fleet.snapshot()["load"] == 0.5


def test_metrics_are_thread_safe_under_contention():
    """No lost updates: the exact-count contract the live scrape
    endpoint and the fleet merge both rely on."""
    import threading

    registry = MetricsRegistry()
    n_threads, n_ops = 8, 5_000

    def hammer():
        counter = registry.counter("hits")
        hist = registry.histogram("lat_ms")
        for i in range(n_ops):
            counter.inc()
            hist.observe(0.5 + (i % 17))

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert registry.counter("hits").value == n_threads * n_ops
    assert registry.histogram("lat_ms").count == n_threads * n_ops


def test_run_context_rolls_metrics_up_to_outer_registry():
    """A scoped run's metrics land in the enclosing registry on exit,
    so sweep cells and campaigns see nested runs' counters."""
    from repro.options import RunOptions, run_context
    from repro.telemetry import use_registry

    with use_registry() as outer:
        with run_context(RunOptions()):
            get_registry().counter("inner.admitted").inc(5)
            get_registry().histogram("inner.ms").observe(2.0)
        assert get_registry() is outer
        assert outer.counter("inner.admitted").value == 5
        assert outer.histogram("inner.ms").count == 1


def test_use_registry_restores_on_raise():
    from repro.telemetry import use_registry

    baseline = get_registry()
    with pytest.raises(RuntimeError):
        with use_registry() as outer:
            assert get_registry() is outer
            with pytest.raises(ValueError):
                with use_registry() as inner:
                    assert get_registry() is inner
                    raise ValueError("inner block dies")
            # The inner context must restore the outer registry even
            # though its block raised.
            assert get_registry() is outer
            raise RuntimeError("outer block dies")
    assert get_registry() is baseline
