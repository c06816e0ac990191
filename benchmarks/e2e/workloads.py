"""The six workloads' inputs, built from ``--seed``.

Every workload prices a **fixed world** — one topology and one calibrated
traffic-matrix series, both from :data:`WORLD_SEED` — and draws its
*request population* (sizes, arrival steps, windows, values) from the
run's seed, the paper's own generative step (§6.1: requests that mimic an
observed TM).  Varying the world as well makes one seed's run cost three
times another's (measured: 2.3–7.0 s on ``dense16-bursty``), which would
drown any change a later PR makes; varying only the population keeps runs
comparable across seeds while no two seeds share a request.  (The sweep
varies even less: see :func:`sweep_scenario`.)

The program's builders are called through their modules
(``matrices.synthesize_tm_series`` …) so the set-up shims of
:mod:`.shims` see them.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.costs import LinkCostModel
from repro.experiments import scenarios
from repro.experiments.scenarios import Scenario
from repro.network import generators
from repro.registry import SCENARIOS
from repro.traffic import matrices, requests as traffic_requests
from repro.traffic import workload as traffic_workload
from repro.traffic.requests import RequestParameters
from repro.traffic.values import NormalValues
from repro.traffic.workload import Workload

WORLD_SEED = 0

#: Latency limit of the service workloads, milliseconds.
LIMIT_MS = 250.0
#: Share of requests that must meet the limit for a rate to count as ok.
OK_SHARE = 0.90

#: The nine Figure 6 schemes; ``VCGLike`` is left out because one cell of
#: it costs more than the rest of the grid together.
SWEEP_SCHEMES = ("NoPrices", "NoPrices-CostBlind", "NoPrices-Weighted",
                 "OPT", "PeakOracle", "Pretium", "Pretium-NoMenu",
                 "Pretium-NoSAM", "RegionOracle")
SWEEP_SCENARIO = "e2e-metro10"

#: Frozen sizes.  ``rates`` are offered loads in customers per second:
#: about 20 / 40 / 60 % of the unpaced rate the reference box reaches in
#: its slower phases (README, "Re-calibrating the rates").
FULL = {
    "wan106-busy": dict(world="wan106", n_days=2, steps_per_day=24,
                        load_factor=1.0, request_cap=400),
    "dense16-bursty": dict(world="dense16", n_days=4, steps_per_day=12,
                           load_factor=4.0, mean_size=80.0, snap=4),
    "dense16-audited": dict(world="dense16", n_days=4, steps_per_day=12,
                            load_factor=4.0, mean_size=80.0, snap=4),
    "service-admit": dict(world="dense16", n_days=3, steps_per_day=8,
                          load_factor=4.0, mean_size=190.0,
                          rates=(150.0, 300.0, 450.0)),
    "service-browse": dict(world="dense16", n_days=3, steps_per_day=8,
                           load_factor=4.0, mean_size=190.0,
                           rates=(120.0, 240.0, 360.0)),
    "fig6-sweep": dict(load_factors=(1.0, 2.0), size="full"),
}

#: Toy sizes for ``run --smoke`` and the self-tests: every code path of
#: the harness, none of the cost.
SMOKE = {
    "wan106-busy": dict(world="metro10", n_days=1, steps_per_day=8,
                        load_factor=1.0, request_cap=60),
    "dense16-bursty": dict(world="metro10", n_days=2, steps_per_day=8,
                           load_factor=2.0, mean_size=40.0, snap=4),
    "dense16-audited": dict(world="metro10", n_days=2, steps_per_day=8,
                            load_factor=2.0, mean_size=40.0, snap=4),
    "service-admit": dict(world="metro10", n_days=1, steps_per_day=8,
                          load_factor=2.0, mean_size=60.0,
                          rates=(300.0, 600.0, 900.0)),
    "service-browse": dict(world="metro10", n_days=1, steps_per_day=8,
                           load_factor=2.0, mean_size=60.0,
                           rates=(150.0, 300.0, 450.0)),
    "fig6-sweep": dict(load_factors=(1.0,), size="smoke"),
}

NAMES = tuple(FULL)


def params(name: str, smoke: bool = False) -> dict:
    return dict((SMOKE if smoke else FULL)[name])


def topology(world: str):
    """The world's WAN.  One harness function over the three generators,
    so that one shim times whichever of them runs."""
    if world == "wan106":
        return scenarios.production_wan(seed=WORLD_SEED)
    if world == "dense16":
        return scenarios.standard_topology(seed=WORLD_SEED)
    # quick_scenario's 10-node WAN
    return generators.wan_topology(n_nodes=10, n_regions=2,
                                   metered_fraction=0.2, metered_cost=25.0,
                                   seed=WORLD_SEED)


def _series(wan, n_steps: int, steps_per_day: int, load_factor: float):
    """``build_workload``'s TM pipeline, with the seed pinned to the world."""
    series = matrices.synthesize_tm_series(
        wan, n_steps=n_steps, steps_per_day=steps_per_day,
        mean_pair_demand=1.0, seed=WORLD_SEED)
    series = traffic_workload.calibrate_tm(wan, series, 0.5)
    return series.scaled(load_factor)


def build(seed: int, *, world: str, n_days: int, steps_per_day: int,
          load_factor: float, mean_size: float | None = None,
          max_requests_per_pair: int | None = None, request_cap: int = 0,
          snap: int = 0, **_unused) -> Scenario:
    """One scenario: the fixed world plus ``seed``'s request population.

    ``mean_size=None`` sizes requests from the pair volume as
    ``build_workload`` does (at most five a pair, as
    ``production_scenario``); ``request_cap`` keeps the heaviest requests,
    as ``production_scenario`` does; ``snap`` moves each submission down
    to a multiple of ``snap`` steps (its transfer window is unchanged),
    which leaves the steps in between without arrivals.
    """
    wan = topology(world)
    n_steps = n_days * steps_per_day
    series = _series(wan, n_steps, steps_per_day, load_factor)
    if mean_size is None:
        pairs = len(series.nodes) * (len(series.nodes) - 1)
        per_pair = series.total() / max(1, pairs)
        shape = RequestParameters(mean_size=max(0.5, per_pair / 8.0),
                                  min_size=max(0.05, per_pair / 200.0))
        per_pair_cap = max_requests_per_pair or 5
    else:
        shape = RequestParameters(mean_size=mean_size, min_size=1.0)
        per_pair_cap = max_requests_per_pair or 1000
    population = traffic_requests.synthesize_requests(
        series, NormalValues(1.0, 0.5), params=shape,
        max_requests_per_pair=per_pair_cap, seed=seed)
    if request_cap and len(population) > request_cap:
        population = sorted(population, key=lambda r: -r.demand)[:request_cap]
    if snap:
        population = [dataclasses.replace(r, arrival=r.arrival - r.arrival % snap)
                      for r in population]
    population.sort(key=lambda r: (r.arrival, r.rid))
    workload = Workload(wan, population, n_steps, steps_per_day,
                        load_factor, description=f"e2e {world} seed={seed}")
    return Scenario(wan, workload,
                    LinkCostModel(wan, billing_window=steps_per_day))


def sweep_scenario(seed: int = 0, load_factor: float = 1.0,
                   size: str = "full") -> Scenario:
    """The sweep cells' world: ``quick``'s 10-node WAN, one 8-step day.

    Here the seed only moves the offered load by up to 3 % — a nearby
    point on Figure 6's load axis, every request scaled alike.  The
    oracle baselines' grid searches are so sensitive to their input that
    reseeding the ~570 requests (or just their values) moved the sweep's
    wall by 14–20 % between seeds; a sweep on one seed repeats to 4 %.

    Sweep cells travel to workers as ``ScenarioSpec``s, never as built
    scenarios, so this builder is registered by name
    (:func:`register_sweep_scenario`) and called there.
    """
    jitter = 1.0 + np.random.default_rng(seed).uniform(-0.03, 0.03)
    return build(WORLD_SEED, world="metro10", n_days=1, steps_per_day=8,
                 load_factor=load_factor * jitter,
                 max_requests_per_pair=10 if size == "full" else 2)


def register_sweep_scenario() -> None:
    """Make :data:`SWEEP_SCENARIO` resolvable in this process.

    Pool workers re-import the main module (``run.py``), which calls this
    again there; ``replace=True`` keeps that idempotent.
    """
    SCENARIOS.register(SWEEP_SCENARIO, sweep_scenario, replace=True)


def browse_variants(request, n_steps: int) -> list:
    """The three price checks a browsing customer makes before admitting.

    Two looser deadlines (distinct menu-cache keys: misses) and the
    request's own window, which the admission that follows re-quotes
    (a hit unless a tick or another admission touched its links).
    """
    last = n_steps - 1
    return [request.with_window(request.start, min(last, request.deadline + 2)),
            request.with_window(request.start, min(last, request.deadline + 1)),
            request]
