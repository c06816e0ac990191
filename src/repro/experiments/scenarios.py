"""Standard evaluation scenarios (paper §6.1, scaled per DESIGN.md §5).

The paper evaluates on a month of traffic over a 106-node production WAN
with Gurobi; this reproduction defaults to a 16–20 node WAN over 2–3
simulated days with HiGHS so that every benchmark finishes in minutes.
``production_scenario()`` builds the paper-scale instance for the smoke
test.  All scenario knobs live here so every figure uses the same world.

Calibration notes (documented in EXPERIMENTS.md and DESIGN.md §6):

- metered links carry a mean cost of 40 per unit of percentile usage
  against a mean request value of 1.0 per unit; with daily billing over
  12 steps the *levelled* per-unit cost of crossing a metered link is
  ~3.3x the mean value, which puts the scenario in the paper's regime:
  operating costs are a first-order term and value-blind carriage is
  welfare-negative;
- load factor 1 calibrates to ~50% mean shortest-path utilisation, so the
  Figure 6 sweep {0.5, 1, 2, 4} moves the WAN from light load to heavy
  contention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..costs import LinkCostModel
from ..network import Topology, production_wan, wan_topology
from ..traffic import (NormalValues, ValueDistribution, Workload,
                       build_workload)

#: Figure 6 / 8 / 9 load-factor sweep.
LOAD_FACTORS = (0.5, 1.0, 2.0, 4.0)

#: Default random seed for every scenario (override per run for CIs).
DEFAULT_SEED = 0


@dataclass
class Scenario:
    """A fully specified evaluation world."""

    topology: Topology
    workload: Workload
    cost_model: LinkCostModel

    @property
    def description(self) -> str:
        return self.workload.description


def standard_topology(seed: int = DEFAULT_SEED,
                      cost_factor: float = 1.0) -> Topology:
    """The default benchmark WAN: 16 nodes, 4 regions, 15% metered."""
    topology = wan_topology(
        n_nodes=16, n_regions=4, metered_fraction=0.15, metered_cost=40.0,
        intra_capacity=100.0, inter_capacity=60.0, seed=seed)
    if cost_factor != 1.0:
        topology = topology.scaled_costs(cost_factor)
    return topology


def standard_scenario(load_factor: float = 1.0,
                      values: ValueDistribution | None = None,
                      seed: int = DEFAULT_SEED,
                      cost_factor: float = 1.0,
                      n_days: int = 2,
                      steps_per_day: int = 12,
                      max_requests_per_pair: int = 25,
                      classes=None) -> Scenario:
    """The workhorse scenario behind Figures 6–11.

    Normal values with sigma < mean by default, matching Figure 6.
    ``classes`` (``None``, a mix name, a ClassMix or TrafficClass
    iterable) turns on multi-class synthesis — see
    :func:`repro.traffic.build_workload`.
    """
    topology = standard_topology(seed=seed, cost_factor=cost_factor)
    workload = build_workload(
        topology, n_days=n_days, steps_per_day=steps_per_day,
        load_factor=load_factor,
        values=values or NormalValues(mean=1.0, sigma=0.5),
        target_mean_utilization=0.5,
        max_requests_per_pair=max_requests_per_pair, seed=seed,
        classes=classes)
    cost_model = LinkCostModel(topology, billing_window=steps_per_day)
    return Scenario(topology, workload, cost_model)


def quick_scenario(load_factor: float = 2.0,
                   seed: int = DEFAULT_SEED,
                   classes=None) -> Scenario:
    """A small, fast world for tests and smoke checks."""
    topology = wan_topology(n_nodes=10, n_regions=2, metered_fraction=0.2,
                            metered_cost=25.0, seed=seed)
    workload = build_workload(
        topology, n_days=1, steps_per_day=8, load_factor=load_factor,
        values=NormalValues(1.0, 0.5), target_mean_utilization=0.5,
        max_requests_per_pair=10, seed=seed, classes=classes)
    return Scenario(topology, workload,
                    LinkCostModel(topology, billing_window=8))


def tiny_scenario(load_factor: float = 2.0,
                  seed: int = DEFAULT_SEED,
                  classes=None) -> Scenario:
    """The smallest meaningful world: ~90 requests over 6 steps.

    Every scheme (including the grid-search oracles and the per-step
    VCG market) finishes in well under a second here, so grids over all
    ten schemes stay cheap — the determinism suite and the CI
    ``sweep-smoke`` job run on this scenario.
    """
    topology = wan_topology(n_nodes=6, n_regions=2, metered_fraction=0.2,
                            metered_cost=25.0, seed=seed)
    workload = build_workload(
        topology, n_days=1, steps_per_day=6, load_factor=load_factor,
        values=NormalValues(1.0, 0.5), target_mean_utilization=0.5,
        max_requests_per_pair=3, seed=seed, classes=classes)
    return Scenario(topology, workload,
                    LinkCostModel(topology, billing_window=6))


def multiclass_scenario(load_factor: float = 2.0,
                        seed: int = DEFAULT_SEED,
                        classes="qos3") -> Scenario:
    """A medium multi-class world (the ``multiclass_medium`` scenario).

    Three QoS classes by default (interactive / elastic / background —
    the ``"qos3"`` mix in :data:`repro.traffic.CLASS_MIXES`) over an
    8-node WAN and one 8-step day: large enough for class interactions
    (preemption, per-class pricing) to show, small enough for CI's
    sweep-smoke leg.
    """
    topology = wan_topology(n_nodes=8, n_regions=2, metered_fraction=0.2,
                            metered_cost=25.0, seed=seed)
    workload = build_workload(
        topology, n_days=1, steps_per_day=8, load_factor=load_factor,
        values=NormalValues(1.0, 0.5), target_mean_utilization=0.5,
        max_requests_per_pair=6, seed=seed, classes=classes)
    return Scenario(topology, workload,
                    LinkCostModel(topology, billing_window=8))


#: Named scenario builders a :class:`ScenarioSpec` can refer to.  Keys
#: are the names accepted by ``repro sweep --scenario`` and by
#: :meth:`ScenarioSpec.of`.  The canonical registry is
#: :data:`repro.registry.SCENARIOS`; this module-private dict is the
#: backing store it is populated from.
_BUILDERS = {
    "standard": standard_scenario,
    "quick": quick_scenario,
    "tiny": tiny_scenario,
    "multiclass_medium": multiclass_scenario,
    # filled in below (defined later in the module)
}


@dataclass(frozen=True)
class ScenarioSpec:
    """A picklable recipe for a scenario: builder name + kwargs.

    Sweep workers run in separate processes, so grid cells must travel
    as *specs*, not as built :class:`Scenario` objects (a scenario holds
    the full workload; rebuilding from the seed in the worker is both
    cheaper to ship and exactly as deterministic).  ``kwargs`` is stored
    as a sorted tuple of pairs so specs hash, compare and pickle
    predictably.
    """

    name: str = "standard"
    kwargs: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        from ..registry import SCENARIOS
        SCENARIOS.get(self.name)  # raises UnknownScenarioError if absent

    @classmethod
    def of(cls, name: str = "standard", **kwargs) -> "ScenarioSpec":
        """Spec for ``SCENARIOS.get(name)(**kwargs)``."""
        return cls(name, tuple(sorted(kwargs.items())))

    def build(self, seed: int | None = None) -> Scenario:
        """Build the scenario (``seed`` overrides any spec'd seed)."""
        from ..registry import SCENARIOS
        kwargs = dict(self.kwargs)
        if seed is not None:
            kwargs["seed"] = seed
        return SCENARIOS.get(self.name)(**kwargs)

    @property
    def label(self) -> str:
        """Compact human-readable id, e.g. ``standard(load_factor=2.0)``."""
        inner = ",".join(f"{key}={value}" for key, value in self.kwargs)
        return f"{self.name}({inner})" if inner else self.name


def production_scenario(load_factor: float = 1.0,
                        seed: int = DEFAULT_SEED,
                        request_cap: int = 1500,
                        n_days: int = 1,
                        steps_per_day: int = 24,
                        classes=None) -> Scenario:
    """Paper-scale instance: 106 nodes / ~226 edges, one simulated day.

    Exercised by the integration smoke test and the campaign runner's
    paper-scale preset (which stretches the horizon to the paper's
    5-minute timesteps: ``steps_per_day=288`` over multiple days).
    Building it takes under a second (0.84 s at the defaults); it is the
    run, not the set-up, that keeps it out of the default benchmark
    loop.  The full synthetic request
    population at this scale is tens of thousands of requests; the
    ``request_cap`` largest are kept (they carry most of the volume) so
    a single-core run stays in the minutes range while every code path
    sees the full topology.
    """
    topology = production_wan(seed=seed)
    workload = build_workload(
        topology, n_days=n_days, steps_per_day=steps_per_day,
        load_factor=load_factor,
        values=NormalValues(1.0, 0.5), target_mean_utilization=0.5,
        max_requests_per_pair=5, seed=seed, classes=classes)
    if request_cap and workload.n_requests > request_cap:
        heaviest = sorted(workload.requests, key=lambda r: -r.demand)
        keep = sorted(heaviest[:request_cap],
                      key=lambda r: (r.arrival, r.rid))
        workload = Workload(topology, keep, workload.n_steps,
                            workload.steps_per_day, workload.load_factor,
                            workload.description + f" [top {request_cap}]",
                            classes=workload.classes)
    return Scenario(topology, workload,
                    LinkCostModel(topology, billing_window=steps_per_day))


_BUILDERS["production"] = production_scenario
