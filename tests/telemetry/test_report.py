"""Tests for trace aggregation: the Table 4 query over the event stream."""

import numpy as np
import pytest

from repro.telemetry import (MetricsRegistry, aggregate_spans, report_trace,
                             runtime_table)


def span(name, duration):
    return {"type": "span", "name": name, "span_id": 1, "parent_id": 0,
            "ts": 0.0, "duration": duration, "attrs": {}}


def make_events():
    events = [span("ra", d) for d in (0.1, 0.2, 0.3, 0.4)]
    events += [span("sam", d) for d in (1.0, 3.0)]
    events += [span("pc", 5.0), span("lp.solve", 0.5)]
    events.append({"type": "metrics", "ts": 0.0, "metrics": {}})
    return events


def test_aggregate_spans_stats():
    stats = aggregate_spans(make_events())
    assert stats["ra"]["count"] == 4
    assert stats["ra"]["median"] == pytest.approx(0.25)
    assert stats["ra"]["total"] == pytest.approx(1.0)
    assert stats["ra"]["max"] == pytest.approx(0.4)
    assert stats["sam"]["p95"] == pytest.approx(
        float(np.percentile([1.0, 3.0], 95)))
    assert stats["pc"]["count"] == 1
    assert "lp.solve" in stats


def test_runtime_table_orders_modules_first():
    table = runtime_table(make_events())
    lines = table.splitlines()
    assert lines[0].split()[:2] == ["span", "count"]
    first_columns = [line.split()[0] for line in lines[2:]]
    assert first_columns == ["ra", "sam", "pc", "lp.solve"]


def test_report_trace_from_file(tmp_path):
    import json
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in make_events()))
    out = report_trace(path)
    assert "ra" in out and "lp.solve" in out


def test_report_trace_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="no span events in .*empty.jsonl"):
        report_trace(path)


def test_aggregate_spans_skips_missing_durations():
    """A crashed run's trace can carry span events whose end (and thus
    duration) was never written; aggregation reports what it has."""
    events = [span("ra", 0.1), span("ra", 0.3)]
    headless = span("sam", 0.0)
    del headless["duration"]
    torn = span("pc", None)
    events += [headless, torn]
    stats = aggregate_spans(events)
    assert stats["ra"]["count"] == 2
    assert "sam" not in stats
    assert "pc" not in stats


def test_metrics_table_gauges_only():
    from repro.telemetry.report import metrics_table
    registry = MetricsRegistry()
    registry.gauge("resilience.pc.staleness").set(2.0)
    registry.gauge("load").set(0.5)
    events = [{"type": "metrics", "metrics": registry.snapshot(),
               "states": registry.dump()}]
    table = metrics_table(events)
    lines = table.splitlines()
    assert lines[0].split() == ["metric", "value"]
    assert any("resilience.pc.staleness" in line and "2" in line
               for line in lines)


def test_metrics_table_absent_without_metrics_event():
    from repro.telemetry.report import metrics_table
    assert metrics_table([span("ra", 0.1)]) is None


def test_report_handles_deep_nesting():
    """Spans nested deeper than two levels aggregate by name as usual."""
    events = []
    parent = None
    for depth, name in enumerate(["run", "sam", "lp.solve", "lp.solve"]):
        events.append({"type": "span", "name": name, "span_id": depth + 1,
                       "parent_id": parent, "ts": 0.0,
                       "duration": 0.1 * (depth + 1), "attrs": {}})
        parent = depth + 1
    stats = aggregate_spans(events)
    assert stats["lp.solve"]["count"] == 2
    assert stats["lp.solve"]["total"] == pytest.approx(0.7)
    table = runtime_table(events)
    assert "run" in table and "lp.solve" in table
