"""Perf micro-benchmark: metrics hot-path cost and lock contention.

Every admission decision touches the metrics registry several times
(latency histograms, admit/reject counters), so the per-op cost of
``Counter.inc`` / ``Histogram.observe`` is genuine hot-path overhead —
and since the live ``/metrics`` endpoint scrapes from other threads,
each metric carries a lock.  This bench measures that lock's price:

- **uncontended** — one thread hammering a private counter/histogram
  (the sweep-worker steady state);
- **contended** — ``n_threads`` threads hammering the *same* metric
  (the worst case: service loop + snapshotter + scraper all active).

Recorded ops/sec land in ``benchmarks/results/bench_perf_metrics.json``
(the repo benchmark, ``benchmarks/e2e``, has no row for lock
contention); ``contention_slowdown`` is the uncontended/contended ratio
for the counter.  Correctness is asserted —
the contended counter must equal exactly ``n_threads * n_ops`` (the
whole point of the lock).

Timings are recorded, never gated (CI fails on crash, not slowness).
Scale with ``BENCH_PERF_SCALE=small|medium`` (CI uses ``small``).
"""

import os
import threading
import time

from repro.telemetry import MetricsRegistry

SCALES = {
    "small": dict(n_ops=20_000, n_threads=4),
    "medium": dict(n_ops=100_000, n_threads=4),
}


def _hammer_counter(counter, n_ops, barrier=None):
    if barrier is not None:
        barrier.wait()
    inc = counter.inc
    for _ in range(n_ops):
        inc()


def _hammer_histogram(hist, n_ops, barrier=None):
    if barrier is not None:
        barrier.wait()
    observe = hist.observe
    for i in range(n_ops):
        observe(0.1 + (i & 1023))


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _contended(make_worker, metric, n_ops, n_threads):
    """Wall time for n_threads all hammering one metric concurrently."""
    barrier = threading.Barrier(n_threads + 1)
    threads = [threading.Thread(target=make_worker,
                                args=(metric, n_ops, barrier))
               for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def bench_perf_metrics(benchmark, record):
    scale_name = os.environ.get("BENCH_PERF_SCALE", "medium")
    scale = SCALES[scale_name]
    n_ops, n_threads = scale["n_ops"], scale["n_threads"]
    registry = MetricsRegistry()

    def run():
        out = {}
        counter = registry.counter("bench.uncontended")
        out["counter_s"] = _timed(_hammer_counter, counter, n_ops)
        hist = registry.histogram("bench.uncontended_ms")
        out["histogram_s"] = _timed(_hammer_histogram, hist, n_ops)
        shared = registry.counter("bench.contended")
        out["contended_counter_s"] = _contended(
            _hammer_counter, shared, n_ops, n_threads)
        assert shared.value == n_threads * n_ops, \
            "lost updates under contention"
        shared_hist = registry.histogram("bench.contended_ms")
        out["contended_histogram_s"] = _contended(
            _hammer_histogram, shared_hist, n_ops, n_threads)
        assert shared_hist.count == n_threads * n_ops, \
            "lost observations under contention"
        return out

    timings = benchmark.pedantic(run, rounds=1, iterations=1)

    counter_per_s = n_ops / timings["counter_s"]
    contended_per_s = (n_threads * n_ops) / timings["contended_counter_s"]
    result = {
        "scale": scale_name,
        "n_ops": n_ops,
        "n_threads": n_threads,
        "counter_ops_per_s": counter_per_s,
        "histogram_ops_per_s": n_ops / timings["histogram_s"],
        "contended_counter_ops_per_s": contended_per_s,
        "contended_histogram_ops_per_s":
            (n_threads * n_ops) / timings["contended_histogram_s"],
        "contention_slowdown": counter_per_s / contended_per_s,
    }
    record(result)
    print(f"\nmetrics ({scale_name}, {n_ops} ops, {n_threads} threads): "
          f"counter {result['counter_ops_per_s']:.0f} op/s "
          f"(contended {result['contended_counter_ops_per_s']:.0f}), "
          f"histogram {result['histogram_ops_per_s']:.0f} op/s "
          f"(contended {result['contended_histogram_ops_per_s']:.0f}), "
          f"{result['contention_slowdown']:.1f}x contention slowdown")
