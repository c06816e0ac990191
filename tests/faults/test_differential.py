"""Differential tests: fast and reference paths degrade identically.

The heap-based RA quoting and COO LP assembly are pure optimisations of
the scan/expression reference paths (``tests/reference/quote.py``,
``tests/reference/expr_builders.py``), so under the *same deterministic
fault schedule* both stacks must produce the same contracts, the same
deliveries and the same degradation trail — otherwise a fault could
expose a divergence the clean-path equivalence tests never see.
"""

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro.faults import use_injector
from repro.sim import simulate
from repro.telemetry import MetricsRegistry, use_registry

from repro.core import PretiumController
from tests.reference.expr_builders import expr_builders
from tests.reference.quote import scan_quotes

from .conftest import chaos_config, chaos_injector


@contextmanager
def reference_stack():
    """Scan quoting and expression LP builders, installed together."""
    with scan_quotes(), expr_builders():
        yield


FAST = nullcontext
REFERENCE = reference_stack


def run_variant(scenario, spec, stack, fault_seed=0, **overrides):
    controller = PretiumController(chaos_config(**overrides))
    with stack(), use_injector(chaos_injector(spec, fault_seed)), \
            use_registry(MetricsRegistry()) as registry:
        result = simulate(controller, scenario.workload)
        snapshot = registry.snapshot()
    return controller, result, snapshot


@pytest.mark.parametrize("spec", [
    "sam:solver@4",                      # SAM plan replay
    "ra:infeasible@2",                   # degraded quoting
    "pc:timeout@8",                      # stale prices
    "ra:solver@2,sam:solver@4,pc:solver@8",  # everything at once
], ids=["sam", "ra", "pc", "all"])
def test_fast_and_reference_paths_degrade_identically(chaos_scenario, spec):
    _, fast, fast_metrics = run_variant(chaos_scenario, spec, FAST)
    _, ref, ref_metrics = run_variant(chaos_scenario, spec, REFERENCE)

    assert set(fast.delivered) == set(ref.delivered)
    for rid in fast.delivered:
        assert fast.delivered[rid] == pytest.approx(ref.delivered[rid]), rid
    for rid in fast.payments:
        assert fast.payments[rid] == pytest.approx(ref.payments[rid]), rid
    assert np.allclose(fast.loads, ref.loads)

    # The degradation trail matches event for event...
    assert fast.extras.get("degradation", []) == \
        ref.extras.get("degradation", [])
    # ...and so do the fault/resilience counters (runtime histograms and
    # LP-size metrics legitimately differ between the two stacks).
    prefixes = ("faults.", "resilience.", "engine.failures")
    fast_counts = {k: v for k, v in fast_metrics.items()
                   if k.startswith(prefixes)}
    ref_counts = {k: v for k, v in ref_metrics.items()
                  if k.startswith(prefixes)}
    assert fast_counts == ref_counts
    assert fast_counts  # the schedule really did inject something


def test_probabilistic_schedule_is_shared_across_variants(chaos_scenario):
    # A seeded probabilistic rule draws the same schedule in both stacks
    # because injection points are identical call sites.
    spec = "sam:solver@p0.3"
    _, fast, fast_metrics = run_variant(chaos_scenario, spec, FAST,
                                        fault_seed=11)
    _, ref, ref_metrics = run_variant(chaos_scenario, spec, REFERENCE,
                                      fault_seed=11)
    assert fast_metrics.get("faults.injected.sam", 0) == \
        ref_metrics.get("faults.injected.sam", 0) > 0
    assert fast.extras.get("degradation", []) == \
        ref.extras.get("degradation", [])
    assert np.allclose(fast.loads, ref.loads)
