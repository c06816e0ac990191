"""Structured tracing, metrics, request ledger and solver instrumentation.

The observability layer for the whole stack (see DESIGN.md
§"Observability plane"):

- :class:`MetricsRegistry` — counters, gauges and streaming histograms
  (p50/p95/p99 without storing samples);
- :class:`Tracer` / :func:`get_tracer` — nesting spans with wall-clock
  timestamps and structured attributes; disabled (no sinks) by default,
  in which case a span costs two ``perf_counter`` calls and nothing else;
- :class:`TraceWriter` / :class:`InMemoryCollector` — JSONL file and
  in-memory event sinks; :func:`iter_trace` streams a file back one
  event at a time and :func:`read_trace` loads it whole (both skip
  torn/corrupt lines with a warning);
- :mod:`~repro.telemetry.ledger` — the event-sourced per-request
  lifecycle ledger (ARRIVED → QUOTED → ADMITTED → ALLOCATED →
  SETTLED) and its :class:`Ledger` replay view;
- :mod:`~repro.telemetry.audit` — the invariant auditor: byte
  conservation, guarantee compliance, menu convexity and
  revenue/welfare reconciliation as structured :class:`Finding` records,
  in one streaming pass whose memory grows with requests, not events;
- :mod:`~repro.telemetry.export` — Chrome/Perfetto ``trace_event``
  JSON, Prometheus text exposition, and per-request timelines;
- :mod:`~repro.telemetry.report` — aggregate a trace into the
  per-module runtime table behind the paper's Table 4;
- :mod:`~repro.telemetry.fleet` — merge per-worker registry dumps from
  sweep cells or trace shards into one fleet-wide registry (counters
  sum, histograms merge by bucket, gauges per-worker), the view a
  campaign report's fleet metrics and SLO table are computed from;
- :mod:`~repro.telemetry.profile` — span-tree self-time attribution and
  collapsed-stack flamegraph export (``telemetry flame``).

Instrumented call sites: :func:`repro.lp.solver.solve_model` emits
``lp.solve`` spans (LP size, status, iterations); the simulation engine
emits ``run``, ``ra``, ``sam`` and ``pc`` spans plus the ground-truth
ledger events (ARRIVED, ALLOCATED, SETTLED, RUN_*); the Pretium
controller emits QUOTED/ADMITTED/REJECTED/DEGRADED and counts
admissions, rejections, scavenger contracts and price updates in the
process registry; SAM and the price computer emit GUARANTEES_DROPPED
and PRICE_UPDATED.
"""

from .audit import Finding, audit_events, audit_trace, unwaived
from .export import (chrome_trace, chrome_trace_json, prometheus_exposition,
                     prometheus_text, timeline)
from .fleet import fleet_registry, fleet_registry_from_cells, fleet_snapshot
from .ledger import Ledger, RequestHistory, ledger_events
from .profile import (collapsed_stacks, flame_report, self_time_table,
                      span_nodes)
from .registry import (Counter, Gauge, Histogram, MetricsRegistry,
                       get_registry, set_registry, use_registry)
from .report import aggregate_spans, metrics_table, module_runtimes, \
    report_trace, runtime_table
from .sinks import (InMemoryCollector, TagSink, TraceWriter, iter_trace,
                    merge_traces, read_trace)
from .trace import Span, Tracer, get_tracer, set_tracer, use_tracer

__all__ = [
    "Counter", "Finding", "Gauge", "Histogram", "InMemoryCollector", "Ledger",
    "MetricsRegistry", "RequestHistory", "Span", "TagSink", "TraceWriter",
    "Tracer",
    "aggregate_spans", "audit_events", "audit_trace", "chrome_trace",
    "chrome_trace_json", "collapsed_stacks", "flame_report", "fleet_registry",
    "fleet_registry_from_cells", "fleet_snapshot", "get_registry",
    "get_tracer", "iter_trace", "ledger_events", "merge_traces",
    "metrics_table", "module_runtimes", "prometheus_exposition",
    "prometheus_text", "read_trace", "report_trace", "runtime_table",
    "self_time_table", "set_registry", "set_tracer", "span_nodes", "timeline",
    "unwaived", "use_registry", "use_tracer",
]
