"""Scheme runner: one entry point for online and offline schemes.

Online schemes (the Pretium controller and its ablations) are driven by
the discrete-time engine; offline schemes (OPT and the oracle baselines)
compute their whole run in one LP pass.  Both produce the same
:class:`~repro.sim.engine.RunResult`, so figures treat them uniformly.

Schemes are registered as :class:`SchemeSpec` objects — a picklable
(name, factory class, kwargs) triple rather than a bare lambda — so that
grid cells can be shipped to sweep worker processes and parameterised
variants (``make_scheme("RegionOracle", grid_points=9)``) fall out for
free.  :func:`run_scheme` accepts a :class:`~repro.options.RunOptions`
bundle and scopes the run environment (fault injector, telemetry trace)
it asks for.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from ..core import PretiumController
from ..baselines import (NoPrices, OfflineOptimal, PeakOracle,
                         PretiumNoMenu, PretiumNoSAM, RegionOracle, VCGLike)
from ..options import RunOptions, run_context
from ..sim import RunResult, simulate, summarize
from ..telemetry import get_tracer
from .scenarios import Scenario


@dataclass(frozen=True)
class SchemeSpec:
    """A picklable scheme factory: evaluation name + class + kwargs.

    ``kwargs`` is a sorted tuple of ``(key, value)`` pairs (not a dict)
    so specs hash, compare and pickle predictably — the property the
    process-parallel sweep relies on.  Calling a spec builds a fresh
    scheme instance.
    """

    name: str
    factory: Callable
    kwargs: tuple[tuple[str, object], ...] = ()

    @classmethod
    def of(cls, name: str, factory: Callable, **kwargs) -> "SchemeSpec":
        return cls(name, factory, tuple(sorted(kwargs.items())))

    def with_kwargs(self, **overrides) -> "SchemeSpec":
        """A copy with ``overrides`` merged over the spec's kwargs."""
        merged = {**dict(self.kwargs), **overrides}
        return SchemeSpec(self.name, self.factory,
                          tuple(sorted(merged.items())))

    def build(self, options: RunOptions | None = None):
        """Instantiate the scheme (applying any config-mapped options)."""
        kwargs = dict(self.kwargs)
        kwargs.update(_options_kwargs(self.factory, options))
        return self.factory(**kwargs)

    def __call__(self):
        return self.build()


def _options_kwargs(factory: Callable, options: RunOptions | None) -> dict:
    """Map a :class:`RunOptions` onto the kwargs ``factory`` accepts.

    Config-bearing schemes (the Pretium family) take the overrides dict
    whole via ``config_overrides``; offline schemes only understand the
    routing policy (their ``routing`` kwarg).  Knobs a factory has no
    parameter for are silently inapplicable — e.g. solver retry budgets
    cannot mean anything to OPT.
    """
    if options is None:
        return {}
    overrides = options.config_overrides()
    if not overrides:
        return {}
    parameters = inspect.signature(factory).parameters
    if "config_overrides" in parameters:
        return {"config_overrides": overrides}
    if "routing" in parameters and "routing" in overrides:
        return {"routing": overrides["routing"]}
    return {}


#: Every named scheme in the evaluation, as picklable specs.  NoPrices
#: treats bytes as obligations (volume first, cost second), mirroring
#: the TE systems the paper says it mimics; its realised welfare still
#: pays true percentile costs.
SCHEME_SPECS = {
    "OPT": SchemeSpec.of("OPT", OfflineOptimal),
    "NoPrices": SchemeSpec.of("NoPrices", NoPrices),
    "NoPrices-CostBlind": SchemeSpec.of("NoPrices-CostBlind", NoPrices,
                                        mode="cost_blind"),
    "NoPrices-Weighted": SchemeSpec.of("NoPrices-Weighted", NoPrices,
                                       mode="weighted"),
    "RegionOracle": SchemeSpec.of("RegionOracle", RegionOracle,
                                  grid_points=5),
    "PeakOracle": SchemeSpec.of("PeakOracle", PeakOracle, grid_points=5),
    "VCGLike": SchemeSpec.of("VCGLike", VCGLike),
    "Pretium": SchemeSpec.of("Pretium", PretiumController),
    "Pretium-NoMenu": SchemeSpec.of("Pretium-NoMenu", PretiumNoMenu),
    "Pretium-NoSAM": SchemeSpec.of("Pretium-NoSAM", PretiumNoSAM),
}


def scheme_spec(scheme: str | SchemeSpec) -> SchemeSpec:
    """Resolve a scheme name (or pass a spec through) to a SchemeSpec.

    Exact names resolve against the live :data:`SCHEME_SPECS` table;
    anything else falls through to :data:`repro.registry.SCHEMES`, which
    adds case-insensitive matching and raises
    :class:`~repro.registry.UnknownSchemeError` (a ``KeyError``) listing
    the registered names.
    """
    if isinstance(scheme, SchemeSpec):
        return scheme
    spec = SCHEME_SPECS.get(scheme)
    if spec is not None:
        return spec
    from ..registry import SCHEMES
    return SCHEMES.get(scheme)


def make_scheme(name: str, **kwargs):
    """Instantiate a scheme by its evaluation name.

    ``kwargs`` override the registry defaults, e.g.
    ``make_scheme("RegionOracle", grid_points=9)``.
    """
    spec = scheme_spec(name)
    if kwargs:
        spec = spec.with_kwargs(**kwargs)
    return spec.build()


def run_scheme(scheme, scenario: Scenario,
               options: RunOptions | None = None) -> RunResult:
    """Run a scheme (name, :class:`SchemeSpec` or instance) on a scenario.

    With ``options`` the run executes inside the environment the bundle
    asks for — a seeded fault injector and/or a JSONL telemetry trace —
    and, when the scheme is built here (by name or spec), the
    config-mapped knobs (``routing``, ``solver_backend``, solver
    budgets) are applied to it.  A pre-built scheme instance keeps
    whatever config it was constructed with.
    """
    with run_context(options) as env:
        if isinstance(scheme, (str, SchemeSpec)):
            scheme = scheme_spec(scheme).build(options)
        name = getattr(scheme, "name", type(scheme).__name__)
        with get_tracer().span("scheme.run", scheme=name,
                               workload=scenario.workload.description):
            if hasattr(scheme, "run"):
                # Offline schemes solve against the capacity grid they
                # are given; scheduled link kills have no meaning there.
                result = scheme.run(scenario.workload)
            else:
                # run_context is already entered here, so hand the
                # engine a kills-only bundle: its own run_context pass
                # is a no-op (no faults/telemetry) and only the
                # link-kill schedule takes effect.
                kills = None
                if options is not None and options.link_kills is not None:
                    kills = RunOptions(link_kills=options.link_kills)
                result = simulate(scheme, scenario.workload,
                                  options=kills)
        if env.injector is not None:
            result.extras["faults_injected"] = len(env.injector.injections)
    return result


def run_schemes(names, scenario: Scenario,
                options: RunOptions | None = None) -> dict[str, RunResult]:
    """Run several schemes on one scenario, keyed by scheme name."""
    return {name: run_scheme(name, scenario, options=options)
            for name in names}


def summaries(results: dict[str, RunResult],
              scenario: Scenario) -> dict[str, dict]:
    """Summary records for a result set (JSON-friendly)."""
    return {name: summarize(result, scenario.cost_model)
            for name, result in results.items()}
