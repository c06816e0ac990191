"""Metrics primitives: counters, gauges and streaming histograms.

The histogram is log-bucketed (geometric bucket bounds), so quantiles
come out with bounded *relative* error — about ``sqrt(growth) - 1`` —
without storing samples.  That keeps per-observation cost at one dict
increment no matter how long a run is, which is what lets the simulation
engine feed every module invocation through it.

All three metric kinds are **thread-safe**: the live admission service
mutates them from its owner thread while submitter threads bump
backpressure counters.  Each metric carries its own small lock (no
global registry lock on the hot path); the contention micro-bench
(``benchmarks/bench_perf_metrics.py``) pins the overhead at nanoseconds
per operation.

Metrics are also **mergeable**: :meth:`MetricsRegistry.dump` serialises
a registry into a JSON-friendly state (histograms keep their raw bucket
counts, not just summaries) and :meth:`MetricsRegistry.merge_dump` folds
such a state into another registry — counters sum, histograms merge
bucket-by-bucket, gauges land per-worker.  This is how sweep workers
ship their per-cell metrics back to the parent, which aggregates them
into one fleet-wide registry.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager


class Counter:
    """A monotonically increasing count (admissions, rejections, ...)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self.value += n


class Gauge:
    """A point-in-time value (active contracts, current price level)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, delta: float = 1.0) -> None:
        with self._lock:
            self.value += delta


class Histogram:
    """Streaming quantiles over positive samples (runtimes, LP sizes).

    Values are assigned to geometric buckets ``[g**i, g**(i+1))``; a
    quantile query walks the buckets and returns the geometric midpoint
    of the one holding the requested rank.  With the default growth of
    1.05 the answer is within ~2.5% (relative) of the exact quantile.
    Exact ``min``/``max``/``sum`` are tracked on the side; values at or
    below ``min_value`` share one underflow bucket.
    """

    __slots__ = ("growth", "min_value", "_log_growth", "_buckets", "count",
                 "total", "min", "max", "_lock")

    def __init__(self, growth: float = 1.05, min_value: float = 1e-9) -> None:
        if growth <= 1.0:
            raise ValueError("growth factor must be > 1")
        self.growth = growth
        self.min_value = min_value
        self._log_growth = math.log(growth)
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0:
            raise ValueError(f"histogram samples must be >= 0, got {value}")
        index = self._index(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)
            self._buckets[index] = self._buckets.get(index, 0) + 1

    def quantile(self, q: float) -> float:
        """The q-th quantile (0 <= q <= 1); NaN on an empty histogram."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if self.count == 0:
            return math.nan
        if q == 0.0:
            return self.min
        rank = q * self.count
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return min(max(self._midpoint(index), self.min), self.max)
        return self.max

    def summary(self) -> dict[str, float]:
        """Count, sum, exact extremes and p50/p95/p99 estimates."""
        with self._lock:
            if self.count == 0:
                return {"count": 0, "sum": 0.0}
            return {"count": self.count, "sum": self.total,
                    "min": self.min, "max": self.max,
                    "p50": self._quantile_locked(0.50),
                    "p95": self._quantile_locked(0.95),
                    "p99": self._quantile_locked(0.99)}

    # -- mergeable state ----------------------------------------------------
    def state(self) -> dict:
        """Full JSON-friendly state: raw buckets plus exact side-stats.

        Unlike :meth:`summary` this loses nothing — a histogram rebuilt
        from its state answers every quantile identically, and two
        states merge exactly (bucket-wise), which is what lets sweep
        workers ship histograms back to the parent for fleet-wide
        aggregation.  Bucket keys are strings so the state survives a
        JSON round-trip unchanged.
        """
        with self._lock:
            return {"growth": self.growth, "min_value": self.min_value,
                    "buckets": {str(i): n for i, n in self._buckets.items()},
                    "count": self.count, "sum": self.total,
                    "min": None if self.count == 0 else self.min,
                    "max": None if self.count == 0 else self.max}

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Merging is exact: bucket counts add, so the merged quantiles are
        identical to observing the union of both sample streams.  The
        bucket layouts must match (same ``growth`` and ``min_value``);
        merging an empty state is a no-op.
        """
        if not state or not state.get("count"):
            return
        growth = float(state.get("growth", self.growth))
        min_value = float(state.get("min_value", self.min_value))
        if not (math.isclose(growth, self.growth)
                and math.isclose(min_value, self.min_value)):
            raise ValueError(
                f"cannot merge histograms with different bucket layouts: "
                f"growth {growth} vs {self.growth}, min_value {min_value} "
                f"vs {self.min_value}")
        with self._lock:
            for key, n in state.get("buckets", {}).items():
                index = int(key)
                self._buckets[index] = self._buckets.get(index, 0) + int(n)
            self.count += int(state["count"])
            self.total += float(state.get("sum", 0.0))
            if state.get("min") is not None:
                self.min = min(self.min, float(state["min"]))
            if state.get("max") is not None:
                self.max = max(self.max, float(state["max"]))

    # -- internal ----------------------------------------------------------
    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return -(2 ** 31)  # shared underflow bucket
        return math.floor(math.log(value / self.min_value)
                          / self._log_growth)

    def _midpoint(self, index: int) -> float:
        if index == -(2 ** 31):
            return self.min_value
        lo = self.min_value * self.growth ** index
        return lo * math.sqrt(self.growth)


#: Gauge-name suffix carrying a worker label after a fleet merge:
#: ``service.queue_depth[worker=4242]``.  The Prometheus exporter turns
#: it back into a proper ``{worker="4242"}`` label.
def worker_scoped(name: str, worker) -> str:
    return f"{name}[worker={worker}]"


class MetricsRegistry:
    """Named metrics, created on first use.

    ``registry.counter("pretium.admitted").inc()`` is the whole API: the
    registry get-or-creates, so instrumented code never checks whether a
    metric exists.  A name is permanently bound to its first kind —
    asking for it as another kind raises.

    Creation is guarded by a registry lock (two threads racing on the
    same first use get the same metric object); established metrics are
    looked up lock-free off the dict.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, **kwargs) -> Histogram:
        return self._get(name, Histogram, **kwargs)

    def snapshot(self) -> dict:
        """JSON-friendly view of every metric, sorted by name."""
        out = {}
        for name, metric in self._items():
            if isinstance(metric, Histogram):
                out[name] = metric.summary()
            else:
                out[name] = metric.value
        return out

    def kinds(self) -> dict[str, str]:
        """Metric kind (``counter``/``gauge``/``histogram``) by name.

        Snapshot values alone cannot distinguish a counter from a gauge;
        exporters that care about types (Prometheus exposition) read
        this map, which the tracer stores alongside the snapshot.
        """
        return {name: type(metric).__name__.lower()
                for name, metric in self._items()}

    # -- fleet merge --------------------------------------------------------
    def dump(self) -> dict:
        """The registry's full mergeable state, grouped by metric kind.

        Histograms keep their raw bucket counts (see
        :meth:`Histogram.state`), so dumps merge exactly.  The result is
        JSON-friendly end to end — sweep workers attach it to their
        :class:`~repro.experiments.sweep.CellResult` and tracers embed
        it in the trace's ``metrics`` event.
        """
        out = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, metric in self._items():
            if isinstance(metric, Counter):
                out["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.value
            else:
                out["histograms"][name] = metric.state()
        return out

    def merge_dump(self, dump: dict, worker=None) -> None:
        """Fold a :meth:`dump` into this registry.

        Counters sum, histograms merge bucket-by-bucket (both exact —
        a fleet of workers merged serially equals one serial run), and
        gauges are point-in-time per process, so with ``worker`` set
        they land under a worker-scoped name
        (``name[worker=<id>]``) instead of overwriting each other.
        """
        for name, value in dump.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in dump.get("gauges", {}).items():
            target = name if worker is None else worker_scoped(name, worker)
            self.gauge(target).set(value)
        for name, state in dump.get("histograms", {}).items():
            self.histogram(name).merge_state(state)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def _items(self) -> list[tuple[str, object]]:
        """A sorted, stable copy of the metric map (safe to iterate
        while other threads create metrics)."""
        with self._lock:
            return sorted(self._metrics.items())

    def _get(self, name: str, kind: type, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = kind(**kwargs)
                    self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TypeError(f"metric {name!r} is a "
                            f"{type(metric).__name__}, not a {kind.__name__}")
        return metric


#: Process-wide registry used by instrumented modules (cheap, always on).
_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one for ``None``); returns the
    previous registry so tests can restore it."""
    global _registry
    previous = _registry
    _registry = registry if registry is not None else MetricsRegistry()
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry | None = None):
    """Scope a registry (fresh by default) as process-wide for a block.

    Yields the installed registry; instrumented code that calls
    :func:`get_registry` inside the block lands its metrics there, which
    is how CLI runs and tests isolate per-run counters.
    """
    previous = set_registry(registry)
    try:
        yield get_registry()
    finally:
        set_registry(previous)
