"""Tests for JSONL trace writing/reading and the in-memory collector."""

import numpy as np
import pytest

from repro.telemetry import (InMemoryCollector, TraceWriter, Tracer,
                             iter_trace, merge_traces, read_trace)


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(sinks=[TraceWriter(path)])
    with tracer.span("outer", scheme="Pretium"):
        with tracer.span("inner", step=2):
            pass
    tracer.close()

    events = read_trace(path)
    assert [e["name"] for e in events] == ["inner", "outer"]
    inner, outer = events
    assert inner["parent_id"] == outer["span_id"]
    assert inner["attrs"] == {"step": 2}
    assert outer["attrs"] == {"scheme": "Pretium"}


def test_writer_coerces_numpy_attrs(tmp_path):
    path = tmp_path / "trace.jsonl"
    with TraceWriter(path) as writer:
        writer.emit({"type": "span", "n": np.int64(3),
                     "x": np.float64(0.5), "arr": np.arange(2)})
    (event,) = read_trace(path)
    assert event == {"type": "span", "n": 3, "x": 0.5, "arr": [0, 1]}


def test_writer_rejects_unserialisable_event(tmp_path):
    with TraceWriter(tmp_path / "trace.jsonl") as writer:
        with pytest.raises(TypeError, match="cannot serialise"):
            writer.emit({"bad": object()})


def test_writer_refuses_after_close(tmp_path):
    writer = TraceWriter(tmp_path / "trace.jsonl")
    writer.close()
    writer.close()  # idempotent
    with pytest.raises(ValueError):
        writer.emit({"type": "span"})


def test_collector_filters_by_name():
    collector = InMemoryCollector()
    tracer = Tracer(sinks=[collector])
    with tracer.span("ra"):
        pass
    with tracer.span("sam"):
        pass
    tracer.emit({"type": "metrics", "metrics": {}})
    assert len(collector.spans()) == 2
    assert len(collector.spans("ra")) == 1
    collector.clear()
    assert collector.events == []


def test_read_trace_skips_blank_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"type":"span","name":"ra"}\n\n{"type":"metrics"}\n')
    events = read_trace(path)
    assert [e["type"] for e in events] == ["span", "metrics"]


def test_read_trace_skips_corrupt_middle_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"type":"span","name":"ra"}\n'
                    'garbage not json\n'
                    '{"type":"metrics"}\n')
    with pytest.warns(UserWarning, match="corrupt trace line 2"):
        events = read_trace(path)
    assert [e["type"] for e in events] == ["span", "metrics"]


def test_read_trace_recovers_torn_final_line(tmp_path):
    """A run killed mid-write leaves a torn last line; every intact
    event before it must still be readable (chaos CI relies on this)."""
    path = tmp_path / "trace.jsonl"
    intact = '{"type":"span","name":"ra","duration":0.1}\n'
    torn = '{"type":"ledger","event":"ALLOCATED","rid":7,"byt'
    path.write_text(intact * 3 + torn)
    with pytest.warns(UserWarning, match="corrupt trace line 4"):
        events = read_trace(path)
    assert len(events) == 3
    assert all(e["name"] == "ra" for e in events)


def test_read_trace_strict_mode_raises(tmp_path):
    import json

    path = tmp_path / "trace.jsonl"
    path.write_text('{"ok":1}\nnot json\n')
    with pytest.raises(json.JSONDecodeError):
        read_trace(path, strict=True)


def test_iter_trace_yields_one_event_at_a_time(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"type":"span"}\n{"type":"metrics"}\n')
    events = iter_trace(path)
    assert next(events) == {"type": "span"}
    assert list(events) == [{"type": "metrics"}]


def test_non_object_lines_are_corrupt(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"type":"span"}\n1\n[2]\n"three"\nnull\n')
    with pytest.warns(UserWarning, match="corrupt trace line") as caught:
        assert read_trace(path) == [{"type": "span"}]
    assert [str(w.message).split(" in ")[0] for w in caught] == [
        f"skipping corrupt trace line {n}" for n in (2, 3, 4, 5)]
    with pytest.raises(ValueError, match="expected a JSON object"):
        read_trace(path, strict=True)


def test_merge_copies_intact_lines_verbatim(tmp_path):
    import json

    shards = []
    for cell in range(2):
        shard = tmp_path / f"cell-{cell}.jsonl"
        with TraceWriter(shard) as writer:
            for step in range(3):
                writer.emit({"type": "ledger", "event": "ALLOCATED",
                             "rid": step, "bytes": 0.1 * step,
                             "route": [cell, step], "cell": cell,
                             "note": "ünïcode"})
        shards.append(shard)
    with shards[0].open("a") as handle:
        handle.write('{"type":"ledger","event":"ALLO')      # torn tail
    out = tmp_path / "merged.jsonl"
    with pytest.warns(UserWarning, match="corrupt trace line 4"):
        assert merge_traces(shards, out) == 6
    intact = [line for shard in shards
              for line in shard.read_text().splitlines()
              if line.endswith("}")]
    assert out.read_text() == "".join(line + "\n" for line in intact)
    # ... which is what re-encoding every event would write
    with pytest.warns(UserWarning):
        events = [event for shard in shards for event in read_trace(shard)]
    assert out.read_text() == "".join(
        json.dumps(event, separators=(",", ":")) + "\n" for event in events)
