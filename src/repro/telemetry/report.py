"""Aggregate a trace into per-module runtime statistics.

This is the query that turns the general event stream back into the
paper's Table 4: group span events by name, compute count / total /
median / p95 / max durations, and render them as a fixed-width table.
The engine's module spans are named ``ra``, ``sam`` and ``pc``, so those
rows correspond one-to-one with the ``ModuleRuntimes.summary()`` records
the Table 4 benchmark prints.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

import numpy as np

from .sinks import read_trace

#: Engine module spans, in the order Table 4 lists them.
MODULE_SPANS = ("ra", "sam", "pc")


def aggregate_spans(events: list[dict]) -> dict[str, dict[str, float]]:
    """Per-span-name duration statistics from a list of trace events.

    Spans without a duration (a crashed run's trace can carry events
    whose end was never written) are skipped rather than crashing the
    aggregation — a partial trace should still report what it has.
    """
    durations: dict[str, list[float]] = {}
    for event in events:
        if event.get("type") != "span":
            continue
        duration = event.get("duration")
        if duration is None:
            continue
        durations.setdefault(event["name"], []).append(float(duration))
    out = {}
    for name, samples in durations.items():
        arr = np.asarray(samples)
        out[name] = {"count": len(samples), "total": float(arr.sum()),
                     "median": float(np.median(arr)),
                     "p95": float(np.percentile(arr, 95)),
                     "max": float(arr.max())}
    return out


def runtime_table(events: list[dict]) -> str:
    """Human-readable per-module runtime table for a trace.

    Module spans (``ra``, ``sam``, ``pc``) lead in Table 4 order; every
    other span name (``lp.solve``, ``scheme.run``, ...) follows
    alphabetically, so nothing recorded is hidden.
    """
    stats = aggregate_spans(events)
    ordered = [n for n in MODULE_SPANS if n in stats]
    ordered += sorted(n for n in stats if n not in MODULE_SPANS)
    rows = []
    for name in ordered:
        row = stats[name]
        rows.append([name, row["count"], f"{row['median']:.6f}",
                     f"{row['p95']:.6f}", f"{row['max']:.6f}",
                     f"{row['total']:.6f}"])
    return format_table(
        ["span", "count", "median_s", "p95_s", "max_s", "total_s"], rows)


def metric_rows(snapshot: dict) -> list[list]:
    """One ``[metric, value]`` row per entry of a registry snapshot.

    Scalars render as they are (floats with ``g``); a histogram summary
    renders as its count, p50 and p99, and an empty one is left out.
    """
    rows = []
    for name in sorted(snapshot):
        value = snapshot[name]
        if isinstance(value, dict):  # histogram summary
            if value.get("count"):
                rows.append([name, f"count={value['count']} "
                                   f"p50={value['p50']:.4g} "
                                   f"p99={value['p99']:.4g}"])
        elif isinstance(value, float):
            rows.append([name, f"{value:g}"])
        else:
            rows.append([name, value])
    return rows


def metrics_table(events: list[dict]) -> str | None:
    """Metric table from the trace's metrics snapshot(s).

    ``run --telemetry`` ends a trace with a ``metrics`` event holding the
    run's registry snapshot (admissions, fault injections, resilience
    retries/fallbacks, stale-price windows, ...).  A merged sweep trace
    carries one metrics event per cell; those are fleet-merged first —
    counters sum, histograms merge by bucket, gauges stay per-worker —
    so the table covers the whole pool.  Returns ``None`` when the trace
    carries no metrics event.
    """
    from .fleet import fleet_snapshot

    snapshot = fleet_snapshot(events)
    if not snapshot:
        return None
    return format_table(["metric", "value"], metric_rows(snapshot))


def trace_events(trace) -> tuple[str, list[dict]]:
    """``(label, events)`` for a JSONL trace path or already-read events."""
    if isinstance(trace, (str, Path)):
        return str(trace), read_trace(trace)
    return "trace", list(trace)


def report_trace(trace) -> str:
    """Render a trace (a JSONL path or loaded events) as its runtime
    (and, when it carries a metrics snapshot, metrics) tables — the
    ``telemetry report`` output.  Raises ``ValueError`` on a span-free
    trace, as :func:`~repro.telemetry.profile.flame_report` does."""
    label, events = trace_events(trace)
    if not any(e.get("type") == "span" for e in events):
        raise ValueError(f"no span events in {label} — run with "
                         "--telemetry to record spans")
    out = runtime_table(events)
    metrics = metrics_table(events)
    if metrics is not None:
        out += "\n\n" + metrics
    return out


def format_table(headers: list[str], rows: Iterable[Iterable]) -> str:
    """Fixed-width table with a header rule."""
    str_rows = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()

    out = [line(headers), line("-" * w for w in widths)]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def format_cell(cell) -> str:
    """One table cell as text: floats to three decimals (integral above
    1000), ``None`` (a missing value) as ``-``."""
    if cell is None:
        return "-"
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "nan"
        if abs(cell) >= 1000:
            return f"{cell:.0f}"
        return f"{cell:.3f}"
    return str(cell)
