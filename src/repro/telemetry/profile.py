"""Span-tree profiling: self-time attribution and flamegraph export.

:mod:`~repro.telemetry.report` answers *how long does each span take*;
this module answers *where inside the tree the time actually goes*.  A
span's recorded duration includes everything nested under it — a
``scheme.run`` span covers every ``ra``/``sam``/``pc`` call it made — so
totals double-count along ancestor chains.  Here each span is charged
only its **self time** (duration minus the sum of its direct children,
clamped at zero against clock jitter), which partitions the run's wall
clock exactly once across the tree.

Two renderings:

- :func:`collapsed_stacks` — the collapsed-stack text format
  (``root;child;leaf <microseconds>``) that ``flamegraph.pl``,
  ``inferno-flamegraph`` and speedscope consume directly, exported by
  the ``telemetry flame`` CLI;
- :func:`self_time_table` — a fixed-width table ranking span names by
  self time with their share of the total.

Merged sweep traces interleave many runs' spans with clashing ids; span
trees are rebuilt per ``(cell, worker)`` shard (the tags
:class:`~repro.telemetry.sinks.TagSink` stamps on each event) and their
stacks summed, so one flamegraph covers the whole fleet.
"""

from __future__ import annotations

from .report import format_table, trace_events

__all__ = ["collapsed_stacks", "flame_report", "self_time_table",
           "span_nodes"]


def span_nodes(events) -> list[dict]:
    """Span events annotated with tree structure and self time.

    Returns one node per span event: ``{"name", "duration", "self",
    "stack"}`` where ``stack`` is the ``;``-joined names from the root
    to the span and ``self`` is duration minus direct children's
    durations (clamped ≥ 0).  Spans whose parent id never appears (a
    truncated trace, or the engine's top-level spans) root their own
    stacks.  Events from different sweep shards never link: trees are
    rebuilt per ``(cell, worker)`` tag pair.
    """
    shards: dict[tuple, dict[int, dict]] = {}
    for event in events:
        if event.get("type") != "span":
            continue
        duration = event.get("duration")
        span_id = event.get("span_id")
        if duration is None or not span_id:
            continue
        shard = (event.get("cell"), event.get("worker"))
        # Re-emitted ids within one shard (two runs merged without tags)
        # keep the last occurrence; tagged sweep traces never collide.
        shards.setdefault(shard, {})[span_id] = {
            "name": str(event.get("name", "?")),
            "duration": float(duration),
            "parent_id": event.get("parent_id") or 0,
            "child_time": 0.0,
        }
    for spans in shards.values():
        for span in spans.values():
            parent = spans.get(span["parent_id"])
            if parent is not None:
                parent["child_time"] += span["duration"]
    nodes = []
    for spans in shards.values():
        for span_id, span in spans.items():
            stack = [span["name"]]
            seen = {span_id}
            parent_id = span["parent_id"]
            parent = spans.get(parent_id)
            while parent is not None and parent_id not in seen:
                seen.add(parent_id)
                stack.append(parent["name"])
                parent_id = parent["parent_id"]
                parent = spans.get(parent_id)
            nodes.append({"name": span["name"],
                          "duration": span["duration"],
                          "self": max(0.0, span["duration"]
                                      - span["child_time"]),
                          "stack": ";".join(reversed(stack))})
    return nodes


def collapsed_stacks(events) -> str:
    """The trace's span tree in collapsed-stack flamegraph format.

    One line per distinct root-to-leaf stack: ``a;b;c <value>`` where
    the value is the stack's total **self time in integer microseconds**
    (the convention flamegraph tooling expects — sample counts or
    integer weights).  Lines are sorted for deterministic output; stacks
    whose self time rounds to zero microseconds are dropped.
    """
    weights: dict[str, float] = {}
    for node in span_nodes(events):
        weights[node["stack"]] = weights.get(node["stack"], 0.0) \
            + node["self"]
    lines = []
    for stack in sorted(weights):
        micros = round(weights[stack] * 1e6)
        if micros > 0:
            lines.append(f"{stack} {micros}")
    return "\n".join(lines) + ("\n" if lines else "")


def self_time_table(events) -> str | None:
    """Span names ranked by self time, with their share of the total.

    ``total_s`` is the sum of the span's recorded durations (inclusive
    of children — it double-counts along ancestor chains, which is why
    ``self_s`` is the column to read); ``self_pct`` is the span's slice
    of the whole run's self time.  Returns ``None`` for a span-free
    trace.
    """
    by_name: dict[str, dict] = {}
    for node in span_nodes(events):
        row = by_name.setdefault(node["name"],
                                 {"count": 0, "total": 0.0, "self": 0.0})
        row["count"] += 1
        row["total"] += node["duration"]
        row["self"] += node["self"]
    if not by_name:
        return None
    grand_self = sum(row["self"] for row in by_name.values()) or 1.0
    ranked = sorted(by_name.items(),
                    key=lambda item: item[1]["self"], reverse=True)
    rows = [[name, row["count"], f"{row['total']:.6f}",
             f"{row['self']:.6f}", f"{100 * row['self'] / grand_self:.1f}"]
            for name, row in ranked]
    return format_table(["span", "count", "total_s", "self_s", "self_pct"],
                        rows)


def flame_report(trace, fmt: str = "collapsed") -> str:
    """Render a trace (a JSONL path or loaded events) for
    ``telemetry flame``.

    ``fmt`` is ``"collapsed"`` (flamegraph.pl input) or ``"table"``
    (self-time ranking).  Raises ``ValueError`` on a span-free trace —
    a flamegraph of nothing is a usage error worth surfacing.
    """
    path, events = trace_events(trace)
    if fmt == "collapsed":
        out = collapsed_stacks(events)
        if not out:
            raise ValueError(f"no span events in {path} — run with "
                             "--telemetry to record spans")
        return out
    if fmt == "table":
        table = self_time_table(events)
        if table is None:
            raise ValueError(f"no span events in {path} — run with "
                             "--telemetry to record spans")
        return table
    raise ValueError(f"unknown flame format {fmt!r}; "
                     "expected 'collapsed' or 'table'")
