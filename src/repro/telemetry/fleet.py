"""Fleet-wide metric aggregation across sweep workers and trace shards.

A parallel sweep runs cells in worker processes, each with its own
process-local :class:`~repro.telemetry.registry.MetricsRegistry`.  Two
channels bring those metrics home:

- **CellResult channel** — :func:`repro.experiments.sweep.run_cell`
  dumps the cell's registry into ``CellResult.metrics``; the parent
  merges every dump as results arrive, and
  :meth:`~repro.experiments.sweep.SweepResult.fleet_metrics` rebuilds
  the merged view on demand.
- **Trace channel** — every ``metrics`` trace event carries a mergeable
  ``states`` dump; :func:`fleet_registry` folds all of them (a merged
  sweep trace holds one per cell) into one registry, which is what
  ``telemetry report``'s metrics table aggregates over.

Merge semantics are uniform everywhere (see
:meth:`MetricsRegistry.merge_dump`): counters and histogram buckets sum
exactly — the fleet total equals what one serial process would have
counted — while gauges, being point-in-time per process, are kept
per-worker under ``name[worker=<id>]``.
"""

from __future__ import annotations

from .registry import MetricsRegistry

__all__ = ["fleet_registry", "fleet_registry_from_cells", "fleet_snapshot"]


def fleet_registry_from_cells(cells) -> MetricsRegistry:
    """Merge every cell's ``metrics`` dump into one fresh registry.

    ``cells`` is an iterable of
    :class:`~repro.experiments.sweep.CellResult`; cells that carried no
    metrics contribute nothing.  Gauges are scoped per worker id.
    """
    registry = MetricsRegistry()
    for cell in cells:
        dump = getattr(cell, "metrics", None)
        if dump:
            registry.merge_dump(dump, worker=getattr(cell, "worker", None))
    return registry


def fleet_registry(events) -> MetricsRegistry | None:
    """Merge every ``metrics`` event's ``states`` dump in a trace.

    Returns ``None`` when the trace has no mergeable metrics state at
    all.  Worker ids come from the tags
    :class:`~repro.telemetry.sinks.TagSink` stamped on each shard's
    events.
    """
    registry = MetricsRegistry()
    found = False
    for event in events:
        if event.get("type") != "metrics":
            continue
        states = event.get("states")
        if states:
            found = True
            registry.merge_dump(states, worker=event.get("worker"))
    return registry if found else None


def fleet_snapshot(events) -> dict | None:
    """The fleet-merged metrics snapshot of a trace (see
    :func:`fleet_registry`), or ``None`` when it carries no metrics."""
    registry = fleet_registry(events)
    return None if registry is None else registry.snapshot()
