"""Run artifacts: summarise and serialise simulation results.

Keeps experiment outputs reproducible and diffable: a
:func:`summarize` dictionary per run (JSON-serialisable) and helpers to
dump/load them.  Benchmarks print these summaries; EXPERIMENTS.md records
them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..costs import LinkCostModel
from . import metrics
from .engine import RunResult


def summarize(result: RunResult, cost_model: LinkCostModel) -> dict:
    """One JSON-friendly record with every headline metric."""
    runtimes = result.extras.get("runtimes")
    record = {
        "scheme": result.scheme_name,
        "workload": result.workload.description,
        "n_requests": result.workload.n_requests,
        "load_factor": result.workload.load_factor,
        "total_value": metrics.total_value(result),
        "true_cost": cost_model.true_cost(result.loads),
        "welfare": metrics.welfare(result, cost_model),
        "profit": metrics.profit(result, cost_model),
        "user_surplus": metrics.user_surplus(result),
        "payments": result.total_payments,
        "delivered": result.total_delivered,
        "completion_demand": metrics.completion_fraction(result, "demand"),
        "completion_chosen": metrics.completion_fraction(result, "chosen"),
        "admitted_fraction": metrics.admitted_fraction(result),
    }
    if runtimes is not None and hasattr(runtimes, "summary"):
        record["runtimes"] = runtimes.summary()
    per_class = _per_class_summary(result)
    if per_class is not None:
        record["per_class"] = per_class
    degradation = _degradation_summary(result)
    if degradation is not None:
        record.update(degradation)
    return record


def _per_class_summary(result: RunResult) -> dict | None:
    """Per-traffic-class delivery and economics, or ``None`` when the
    workload is single-class (keeps pre-multi-class summaries
    byte-identical).

    ``value`` is the realised value of delivered bytes (each request's
    per-unit value times its delivered volume, capped at demand), the
    same accounting :func:`repro.sim.metrics.total_value` uses
    run-wide — the class records sum exactly to ``total_value``.
    """
    classes = getattr(result.workload, "classes", ())
    if not classes:
        return None
    out: dict[str, dict] = {
        cls.name: {"n_requests": 0, "demand": 0.0, "delivered": 0.0,
                   "value": 0.0, "payments": 0.0}
        for cls in classes}
    for request in result.workload.requests:
        record = out.setdefault(
            getattr(request, "cls", "default"),
            {"n_requests": 0, "demand": 0.0, "delivered": 0.0,
             "value": 0.0, "payments": 0.0})
        volume = result.delivered.get(request.rid, 0.0)
        record["n_requests"] += 1
        record["demand"] += float(request.demand)
        record["delivered"] += float(volume)
        record["value"] += float(request.value
                                 * min(volume, request.demand))
        record["payments"] += float(result.payments.get(request.rid, 0.0))
    for record in out.values():
        record["completion"] = (record["delivered"] / record["demand"]
                                if record["demand"] > 0 else 0.0)
    return out


def _degradation_summary(result: RunResult) -> dict | None:
    """Fault/degradation counts for a run, or ``None`` for a clean one.

    ``failures`` are LP errors the engine absorbed at module boundaries;
    ``degraded_steps`` are fallbacks the scheme itself performed (SAM
    plan replay, RA price-quote fallback, PC stale prices).  Counts, not
    raw events, so the summary stays JSON-friendly and diffable.
    """
    failures = result.extras.get("failures") or ()
    degradation = result.extras.get("degradation") or ()
    if not failures and not degradation:
        return None
    by_module: dict[str, int] = {}
    for event in failures:
        by_module[event.module] = by_module.get(event.module, 0) + 1
    for event in degradation:
        module = event["module"]
        by_module[module] = by_module.get(module, 0) + 1
    return {"failures": len(failures),
            "degraded_steps": len(degradation),
            "degraded_by_module": dict(sorted(by_module.items()))}


def save_summary(record: dict, path: str | Path) -> None:
    """Write a summary (or a list of them) as pretty JSON."""
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True,
                                     default=_coerce))


def _coerce(obj):
    """``json.dumps`` fallback for numpy scalars/arrays.

    Anything else raises: a summary silently serialised as ``null``
    (or a lossy ``str``) would corrupt the benchmark record without
    failing the run, so unknown types must be an error here.
    """
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialise {type(obj).__name__} in a run "
                    f"summary: {obj!r}")
