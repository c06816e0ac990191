"""Shared world + helpers for the chaos/fault suites.

The chaos world spans two days so the price computer actually runs at a
window boundary mid-run (t=8) — on a one-day world PC faults would have
nothing to hit.  ``run_with_faults`` executes one Pretium run under an
isolated metrics registry and returns the controller, the run result and
the registry snapshot; when ``CHAOS_TELEMETRY_DIR`` is set (the CI
chaos-smoke job does this) every run also writes a JSONL trace there so
a failing run leaves its full telemetry behind as an artifact.
"""

from __future__ import annotations

import os
import re
from contextlib import ExitStack
from pathlib import Path

import pytest

from repro.core import PretiumConfig, PretiumController
from repro.costs import LinkCostModel
from repro.experiments.scenarios import Scenario
from repro.faults import FaultInjector, use_injector
from repro.network import wan_topology
from repro.sim import simulate
from repro.telemetry import (MetricsRegistry, TraceWriter, Tracer,
                             use_registry, use_tracer)
from repro.traffic import NormalValues, build_workload

#: Steps per simulated day in the chaos world (also the price window).
STEPS_PER_DAY = 8


@pytest.fixture(scope="session")
def chaos_scenario() -> Scenario:
    """Two-day, 10-node world: PC re-prices at t=8, SAM runs every step."""
    topology = wan_topology(n_nodes=10, n_regions=2, metered_fraction=0.2,
                            metered_cost=25.0, seed=0)
    workload = build_workload(
        topology, n_days=2, steps_per_day=STEPS_PER_DAY, load_factor=2.0,
        values=NormalValues(1.0, 0.5), target_mean_utilization=0.5,
        max_requests_per_pair=8, seed=0)
    return Scenario(topology, workload,
                    LinkCostModel(topology, billing_window=STEPS_PER_DAY))


def chaos_config(**overrides) -> PretiumConfig:
    defaults = dict(window=STEPS_PER_DAY, lookback=STEPS_PER_DAY,
                    solver_retries=1)
    defaults.update(overrides)
    return PretiumConfig(**defaults)


def chaos_injector(spec: str | None, seed: int = 0):
    """The process-wide injector a chaos run installs (``None``: none)."""
    return None if spec is None else FaultInjector.from_spec(spec, seed=seed)


def run_with_faults(scenario: Scenario, spec: str | None,
                    trace_tag: str = "", collector=None, fault_seed: int = 0,
                    **overrides):
    """One Pretium run under an isolated registry (and optional trace),
    with ``spec``'s injector installed for its duration.

    ``collector`` (an :class:`InMemoryCollector`) adds an in-process
    sink, so a test can replay the run's ledger through the invariant
    auditor without touching the filesystem.  Returns ``(controller,
    result, metrics_snapshot)``.
    """
    controller = PretiumController(chaos_config(**overrides))
    with ExitStack() as stack:
        stack.enter_context(use_injector(chaos_injector(spec, fault_seed)))
        registry = stack.enter_context(use_registry(MetricsRegistry()))
        trace_dir = os.environ.get("CHAOS_TELEMETRY_DIR")
        sinks = []
        if trace_dir:
            Path(trace_dir).mkdir(parents=True, exist_ok=True)
            slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", f"{trace_tag}_{spec}")
            sinks.append(TraceWriter(Path(trace_dir) / f"{slug}.jsonl"))
        if collector is not None:
            sinks.append(collector)
        tracer = None
        if sinks:
            tracer = Tracer(sinks=sinks, registry=registry)
            stack.enter_context(use_tracer(tracer))
        try:
            result = simulate(controller, scenario.workload)
        finally:
            if tracer is not None:
                tracer.emit_metrics()
                tracer.close()
        snapshot = registry.snapshot()
    return controller, result, snapshot


def assert_accounting_invariants(controller, result, scenario) -> None:
    """The invariants every run — degraded or not — must satisfy."""
    import numpy as np

    # Capacity: realised loads never exceed usable link capacity.
    caps = np.array([link.capacity for link in scenario.topology.links])
    assert np.all(result.loads <= caps[None, :] * (1 + 1e-6) + 1e-6)
    by_rid = {c.rid: c for c in controller.contracts}
    # No volume delivered outside a contract.
    assert set(result.delivered) <= set(by_rid)
    for rid, contract in by_rid.items():
        delivered = result.delivered.get(rid, 0.0)
        # Never over-deliver what the customer bought.
        assert delivered <= contract.chosen + 1e-6, rid
        # Settlement matches the quoted menu exactly.
        assert result.payments[rid] == pytest.approx(
            contract.payment_for(delivered)), rid
        assert result.payments[rid] >= -1e-9, rid


def assert_guarantees_met(controller, result,
                          admitted_before: int | None = None) -> None:
    """Every guarantee (optionally: admitted before a step) was honoured."""
    for contract in controller.contracts:
        if admitted_before is not None \
                and contract.admitted_at >= admitted_before:
            continue
        got = result.delivered_by(contract.rid, contract.request.deadline)
        assert got >= contract.guaranteed - 1e-6, (
            f"request {contract.rid} (admitted at {contract.admitted_at}) "
            f"was guaranteed {contract.guaranteed:.6f} but delivered "
            f"{got:.6f} by its deadline")
