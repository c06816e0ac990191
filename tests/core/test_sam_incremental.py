"""Differential tests for SAM's incremental machinery.

Three layers:

- **template trimming** — SAM reads each contract's incidence from its
  route shape's whole-window template with the elapsed steps trimmed.
  A hypothesis property holds the trim to a fresh build over the
  remaining window for arbitrary route sets and trims, and another
  drives two adjusters (``src/``'s, and ``tests/reference/``'s which
  builds every contract afresh over its remaining window) through
  arbitrary arrival/settlement sequences, asserting the models they
  hand the solver assemble to the *identical* matrix, step by step.
  Trimming is pure assembly reuse; any difference at all is a bug.
- **quiet-step fast path** — unit tests for every trigger and every
  fallback: consecutive armed steps reuse the tail; arrivals, capacity
  changes, off-plan execution, skipped steps and guarantee-drop solves
  all force the exact solve.
- **end-to-end differentials** — full simulations (stock arrivals +
  injected faults, where the fast path never fires) must be
  bit-identical to the cold reference; gapped-arrival runs (where it
  fires constantly) must make identical admission decisions with equal
  payment/delivered totals — the fast path reuses *an* optimum of a
  degenerate LP, so per-request splits may legitimately sit on another
  optimal vertex.
"""

import dataclasses
import math
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run
from repro.core import (ByteRequest, NetworkState, PretiumConfig,
                        RequestAdmission, ScheduleAdjuster,
                        transmissions_now)
from repro.core.sam import contract_incidence
from repro.experiments.scenarios import tiny_scenario
from repro.faults import FaultInjector, use_injector
from repro.lp.grouping import route_incidence
from repro.network import parallel_paths_network
from repro.network.paths import RouteShape
from repro.options import RunOptions
from repro.telemetry import MetricsRegistry, use_registry
from tests.reference.cold_sam import ColdAdjuster, cold_sam
from tests.reference.lp import assert_models_identical
from tests.reference.lp_builders import ReferenceAdjuster


def setup(n_steps=6, billing_window=6, **config_kwargs):
    topology = parallel_paths_network(10.0, 10.0)
    defaults = dict(window=3, lookback=3, initial_price=1.0,
                    short_term_adjustment=False)
    defaults.update(config_kwargs)
    state = NetworkState(topology, n_steps, PretiumConfig(**defaults))
    return (state, RequestAdmission(state),
            ScheduleAdjuster(state, billing_window))


def admit(ra, req, now=0):
    menu = ra.quote(req, now=now)
    return ra.admit(req, menu, req.demand, now)


def loads_for(state):
    return np.zeros((state.n_steps, state.topology.num_links))


class Capturing:
    """Mixin keeping every model an adjuster hands the solver."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.models = []

    def _solve_lp(self, model, now):
        self.models.append(model)
        return super()._solve_lp(model, now)


class CapturingAdjuster(Capturing, ScheduleAdjuster):
    pass


class CapturingFreshAdjuster(Capturing, ReferenceAdjuster):
    pass


# -- template trimming: hypothesis differentials ----------------------------

@st.composite
def trims(draw):
    """A route set (link-index tuples) and a contract window seen at
    some step ``now`` up to its deadline."""
    routes = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                 max_size=4, unique=True).map(tuple),
        min_size=1, max_size=4))
    start = draw(st.integers(min_value=0, max_value=6))
    deadline = draw(st.integers(min_value=start, max_value=start + 6))
    now = draw(st.integers(min_value=0, max_value=deadline))
    return tuple(routes), start, deadline, now


@settings(max_examples=200, deadline=None)
@given(case=trims())
def test_trimmed_template_matches_a_fresh_build(case):
    """Trimming the whole-window template by ``now - start`` steps
    yields exactly, in value and dtype, the arrays a fresh build over
    ``[max(start, now), deadline]`` produces."""
    key, start, deadline, now = case
    shape = RouteShape(key)
    steps, *trimmed = contract_incidence(shape, start, deadline, now)
    fresh_steps = np.arange(max(start, now), deadline + 1)
    np.testing.assert_array_equal(steps, fresh_steps)
    for got, want in zip(trimmed, route_incidence(shape, fresh_steps)):
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype


@st.composite
def arrival_patterns(draw):
    """A small workload as (arrival, duration, demand) triples."""
    n = draw(st.integers(min_value=1, max_value=6))
    out = []
    for rid in range(1, n + 1):
        arrival = draw(st.integers(min_value=0, max_value=4))
        duration = draw(st.integers(min_value=0, max_value=3))
        demand = draw(st.integers(min_value=1, max_value=6))
        out.append((rid, arrival, duration, float(demand)))
    return out


@settings(max_examples=20, deadline=None)
@given(pattern=arrival_patterns())
def test_patched_models_assemble_identically(pattern):
    """Arbitrary arrival/settlement sequences: ``src/``'s trimmed-template
    model and the reference's fresh build over the remaining window are
    the same matrix at every step."""
    n_steps = 8
    with use_registry(MetricsRegistry()):
        worlds = {}
        for key, adjuster in (("trimmed", CapturingAdjuster),
                              ("fresh", CapturingFreshAdjuster)):
            topology = parallel_paths_network(10.0, 10.0)
            config = PretiumConfig(window=3, lookback=3, initial_price=1.0,
                                   short_term_adjustment=False)
            state = NetworkState(topology, n_steps, config)
            worlds[key] = (state, RequestAdmission(state),
                           adjuster(state, n_steps))

        contracts = {"trimmed": [], "fresh": []}
        delivered = {}
        loads = loads_for(worlds["trimmed"][0])
        for t in range(n_steps):
            plans = {}
            for key in ("trimmed", "fresh"):
                state, ra, sam = worlds[key]
                for rid, arrival, duration, demand in pattern:
                    if arrival != t:
                        continue
                    deadline = min(n_steps - 1, arrival + duration)
                    req = ByteRequest(rid, "S", "T", demand, arrival,
                                      arrival, deadline, 5.0)
                    contracts[key].append(admit(ra, req, now=t))
                plans[key] = sam.adjust(contracts[key], dict(delivered),
                                        loads, t) or []
            sam_a, sam_b = worlds["trimmed"][2], worlds["fresh"][2]
            assert len(sam_a.models) == len(sam_b.models)
            if sam_a.models:
                assert_models_identical(sam_a.models[-1], sam_b.models[-1])
            # Execute the fresh-build plan in both worlds so the next
            # step's inputs stay in lockstep.
            for tx in transmissions_now(plans["fresh"], t):
                delivered[tx.rid] = delivered.get(tx.rid, 0.0) + tx.volume
                for index in tx.links:
                    loads[t, index] += tx.volume


def test_repin_to_another_route_builds_over_the_new_route():
    """A link kill re-pins a flowlet from one route to a *different* one
    route.  Deadline, route count and first step all still match; an
    incidence reused on those alone would keep constraining the old
    route's links while the plan transmits on the new one's (the
    ``--routing flowlet --link-kills`` CapacityViolation)."""
    state, ra, _ = setup(n_steps=6, routing="flowlet")
    before_kill = CapturingAdjuster(state, 6)
    req = ByteRequest(1, "S", "T", 12.0, 0, 0, 4, 5.0)
    contract = admit(ra, req)
    (before,) = state.paths.routes("S", "T", rid=1)
    before_kill.adjust([contract], {}, loads_for(state), 0, arrivals_since=1)

    first_link = before.links[0]
    state.fail_link(first_link.src, first_link.dst, 1)
    (after,) = state.paths.routes("S", "T", rid=1)
    assert after != before

    fresh = CapturingFreshAdjuster(state, 6)
    for sam in (before_kill, fresh):
        plan = sam.adjust([contract], {}, loads_for(state), 1,
                          arrivals_since=1)
        assert plan and {tx.links for tx in plan} == {after.link_indices()}
    assert_models_identical(before_kill.models[-1], fresh.models[-1])


# -- quiet-step fast path ---------------------------------------------------

def executed(plan, t):
    """Delivered totals after executing step ``t`` in plan order."""
    delivered = {}
    for tx in transmissions_now(plan, t):
        delivered[tx.rid] = delivered.get(tx.rid, 0.0) + tx.volume
    return delivered


def armed_world():
    """One contract admitted and planned at step 0 (adjuster armed)."""
    state, ra, sam = setup(n_steps=6)
    req = ByteRequest(1, "S", "T", 12.0, 0, 0, 4, 5.0)
    contract = admit(ra, req)
    plan = sam.adjust([contract], {}, loads_for(state), 0,
                      arrivals_since=1)
    return state, sam, contract, plan


def test_quiet_step_reuses_tail():
    with use_registry(MetricsRegistry()) as registry:
        state, sam, contract, plan = armed_world()
        tail = sam.adjust([contract], executed(plan, 0), loads_for(state),
                          1, arrivals_since=0)
        assert sam.last_fast_path
        assert tail == [tx for tx in plan if tx.timestep >= 1]
        assert registry.counter("sam.fast_path.hits").value == 1
        # The reused tail still covers the whole remaining demand: an
        # optimal tail of the old optimum (pin-and-solve argument).
        total = sum(tx.volume for tx in plan)
        assert total == pytest.approx(12.0)


def test_consecutive_quiet_steps_keep_reusing():
    with use_registry(MetricsRegistry()) as registry:
        state, sam, contract, plan = armed_world()
        delivered = {}
        for t in (1, 2, 3):
            for rid, vol in executed(plan, t - 1).items():
                delivered[rid] = delivered.get(rid, 0.0) + vol
            plan = sam.adjust([contract], dict(delivered), loads_for(state),
                              t, arrivals_since=0)
            if not plan:
                break
            assert sam.last_fast_path
        assert registry.counter("sam.fast_path.hits").value >= 2
        assert "sam.fast_path.misses" not in registry


def test_arrival_forces_exact_solve():
    with use_registry(MetricsRegistry()) as registry:
        state, sam, contract, plan = armed_world()
        sam.adjust([contract], executed(plan, 0), loads_for(state), 1,
                   arrivals_since=2)
        assert not sam.last_fast_path
        # Not even attempted: an offered arrival is not a quiet step.
        assert "sam.fast_path.hits" not in registry
        assert "sam.fast_path.misses" not in registry


def test_unknown_arrivals_disable_fast_path():
    with use_registry(MetricsRegistry()) as registry:
        state, sam, contract, plan = armed_world()
        sam.adjust([contract], executed(plan, 0), loads_for(state), 1)
        assert not sam.last_fast_path
        assert "sam.fast_path.hits" not in registry


def test_capacity_change_forces_exact_solve():
    with use_registry(MetricsRegistry()) as registry:
        state, sam, contract, plan = armed_world()
        state.fail_link("S", "M1", 1)
        sam.adjust([contract], executed(plan, 0), loads_for(state), 1,
                   arrivals_since=0)
        assert not sam.last_fast_path
        assert registry.counter("sam.fast_path.misses").value == 1


def test_off_plan_execution_forces_exact_solve():
    with use_registry(MetricsRegistry()) as registry:
        state, sam, contract, plan = armed_world()
        delivered = executed(plan, 0)
        delivered[1] = delivered.get(1, 0.0) + 0.5  # engine went off-plan
        sam.adjust([contract], delivered, loads_for(state), 1,
                   arrivals_since=0)
        assert not sam.last_fast_path
        assert registry.counter("sam.fast_path.misses").value == 1


def test_skipped_step_forces_exact_solve():
    with use_registry(MetricsRegistry()) as registry:
        state, sam, contract, plan = armed_world()
        sam.adjust([contract], executed(plan, 0), loads_for(state), 2,
                   arrivals_since=0)
        assert not sam.last_fast_path
        assert registry.counter("sam.fast_path.misses").value == 1


def test_guarantee_drop_never_arms():
    """A best-effort (guarantee-free) solve must not seed tail reuse:
    the next step has to retry with guarantees enforced."""
    injector = FaultInjector.from_spec("sam:infeasible@0x1")
    with use_injector(injector), use_registry(MetricsRegistry()) as registry:
        state, ra, _ = setup(n_steps=6)
        sam = ScheduleAdjuster(state, 6)
        req = ByteRequest(1, "S", "T", 12.0, 0, 0, 4, 5.0)
        contract = admit(ra, req)
        plan = sam.adjust([contract], {}, loads_for(state), 0,
                          arrivals_since=1)
        assert registry.counter(
            "resilience.guarantee_drops.sam").value == 1
        sam.adjust([contract], executed(plan, 0), loads_for(state), 1,
                   arrivals_since=0)
        assert not sam.last_fast_path
        assert registry.counter("sam.fast_path.misses").value == 1


def test_cold_adjuster_never_takes_the_fast_path():
    with use_registry(MetricsRegistry()) as registry:
        state, ra, _ = setup(n_steps=6)
        sam = ColdAdjuster(state, 6)
        req = ByteRequest(1, "S", "T", 12.0, 0, 0, 4, 5.0)
        contract = admit(ra, req)
        plan = sam.adjust([contract], {}, loads_for(state), 0,
                          arrivals_since=1)
        sam.adjust([contract], executed(plan, 0), loads_for(state), 1,
                   arrivals_since=0)
        assert not sam.last_fast_path
        assert "sam.fast_path.hits" not in registry
        assert "sam.fast_path.misses" not in registry


# -- end-to-end differentials ----------------------------------------------

def _run(scenario, cold=False, **knobs):
    with (cold_sam() if cold else nullcontext()), \
            use_registry(MetricsRegistry()) as registry:
        result = run("Pretium", scenario,
                     options=RunOptions(solver_backend="scipy",
                                        **knobs)).result
        counters = {name: registry.counter(name).value
                    for name in ("sam.fast_path.hits",
                                 "sam.fast_path.misses")
                    if name in registry}
    return result, counters


def assert_bit_identical(a, b):
    assert a.chosen == b.chosen
    assert a.payments == b.payments
    assert a.delivered == b.delivered
    assert np.array_equal(a.loads, b.loads)


def test_stock_run_bit_identical_to_cold():
    """Arrivals every step: the fast path never fires and the whole
    incremental stack must reproduce the cold reference bit for bit."""
    cold, _ = _run(tiny_scenario(seed=0), cold=True)
    warm, counters = _run(tiny_scenario(seed=0))
    assert_bit_identical(warm, cold)
    assert counters.get("sam.fast_path.hits", 0) == 0


def test_faulted_run_bit_identical_to_cold():
    """Injected fault schedules (solver retries, timeouts, a dropped
    guarantee) must not change what the incremental paths compute."""
    faults = "sam:solver@2x1,pc:timeout@3x1,sam:infeasible@4x1"
    cold, _ = _run(tiny_scenario(seed=0), cold=True, faults=faults)
    warm, _ = _run(tiny_scenario(seed=0), faults=faults)
    assert_bit_identical(warm, cold)


def gapped_tiny(seed=0):
    """Tiny scenario with arrivals squeezed into the first two steps."""
    scenario = tiny_scenario(seed=seed)
    workload = scenario.workload
    requests = []
    for request in workload.requests:
        arrival = request.arrival % 2
        start = max(request.start, arrival)
        deadline = max(request.deadline,
                       min(workload.n_steps - 1, start + 3))
        requests.append(dataclasses.replace(
            request, arrival=arrival, start=start, deadline=deadline))
    requests.sort(key=lambda r: (r.arrival, r.rid))
    return dataclasses.replace(
        scenario, workload=dataclasses.replace(workload, requests=requests))


def test_gapped_run_fast_path_fires_and_preserves_economics():
    cold, _ = _run(gapped_tiny(), cold=True)
    fast, counters = _run(gapped_tiny())
    assert counters["sam.fast_path.hits"] > 0
    # Decisions are pinned; totals are pinned; per-request splits may
    # sit on another optimal vertex of the degenerate LP.
    assert fast.chosen == cold.chosen
    assert math.isclose(sum(fast.payments.values()),
                        sum(cold.payments.values()),
                        rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(sum(fast.delivered.values()),
                        sum(cold.delivered.values()),
                        rel_tol=1e-9, abs_tol=1e-6)
