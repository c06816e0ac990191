"""The stable high-level facade: ``run``, ``sweep``, ``campaign``, …

Everything an evaluation needs, behind a handful of calls::

    import repro

    report = repro.run("Pretium", "quick",
                       options=repro.RunOptions(telemetry="run.jsonl"))
    welfare = report.summary["welfare"]

    result = repro.sweep({"schemes": ["Pretium", "NoPrices"],
                          "scenarios": ["tiny"], "seeds": [0, 1]},
                         options=repro.RunOptions(workers=4))

    assert repro.audit("run.jsonl").ok

    outcome = repro.campaign("smoke", "out/")           # spec -> report
    report_text = outcome.report_md.read_text()

    with repro.serve("Pretium", "tiny") as svc:        # live admission
        decision = svc.submit(request).result()

The CLI subcommands are thin wrappers over these functions, and the
lower layers (:mod:`repro.experiments.runner`,
:mod:`repro.experiments.sweep`, :mod:`repro.telemetry`) remain public
for callers that need the full surface.  This module only *composes*
them — it adds no behaviour of its own, so the facade stays stable as
the layers underneath evolve.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .experiments.campaign import (CampaignResult, CampaignSpec,
                                   campaign_spec, run_campaign)
from .experiments.runner import SchemeSpec, run_scheme, scheme_spec
from .experiments.scenarios import Scenario, ScenarioSpec
from .experiments.sweep import (CellResult, SweepCell, SweepGrid,
                                SweepResult, run_sweep)
from .options import RunOptions, ServiceOptions, run_context
from .registry import (SCENARIOS, SCHEMES, Registry, RegistryError,
                       UnknownScenarioError, UnknownSchemeError)
from .sim import RunResult, summarize
from .telemetry import Finding, audit_events, unwaived
# audit() streams a trace file: the reader only opens it, and parsing
# happens as audit_events folds each event.  The benchmark harness
# (benchmarks/e2e) times one call of this module's ``read_trace`` per
# audited path, so the streaming reader is bound under that name.
from .telemetry import iter_trace as read_trace

__all__ = [
    "AuditReport", "CampaignResult", "CampaignSpec", "CellResult",
    "Registry", "RegistryError", "RunOptions", "RunReport", "SCENARIOS",
    "SCHEMES", "Scenario", "ScenarioSpec", "SchemeSpec",
    "ServiceHandle", "ServiceOptions", "SweepCell", "SweepGrid",
    "SweepResult", "UnknownScenarioError", "UnknownSchemeError",
    "audit", "campaign", "run", "serve", "sweep",
]


@dataclass
class RunReport:
    """Typed result of :func:`run`: the raw run plus its summary."""

    result: RunResult
    summary: dict
    options: RunOptions
    trace_path: str | None = None

    @property
    def scheme(self) -> str:
        return self.result.scheme_name


@dataclass
class AuditReport:
    """Typed result of :func:`audit`."""

    findings: list[Finding]
    n_events: int

    @property
    def unwaived(self) -> list[Finding]:
        """Findings that are actual failures (not degradation-waived)."""
        return unwaived(self.findings)

    @property
    def ok(self) -> bool:
        """True when every invariant holds (waived findings allowed)."""
        return not self.unwaived


def _as_scenario(scenario, options: RunOptions | None = None) -> Scenario:
    """Accept a built Scenario, a ScenarioSpec, or a registered name.

    A spec or name builds with ``options.classes``
    (:meth:`ScenarioSpec.with_classes`), so ``repro.run("Pretium",
    "quick", options=RunOptions(classes="qos3"))`` prices a multi-class
    world.
    """
    if isinstance(scenario, Scenario):
        return scenario
    if isinstance(scenario, str):
        # ScenarioSpec validates the name against repro.registry.SCENARIOS
        # (UnknownScenarioError, a ValueError, lists the known names).
        scenario = ScenarioSpec.of(scenario)
    if not isinstance(scenario, ScenarioSpec):
        raise TypeError(
            f"cannot interpret {type(scenario).__name__} as a scenario; "
            "expected a built Scenario, a ScenarioSpec, or a scenario "
            f"name from repro.registry.SCENARIOS {SCENARIOS.names()}")
    return scenario.with_classes(getattr(options, "classes", None)).build()


def _as_grid(grid) -> SweepGrid:
    """Accept a SweepGrid or a ``{"schemes": ..., ...}`` mapping."""
    if isinstance(grid, SweepGrid):
        return grid
    if isinstance(grid, Mapping):
        return SweepGrid(**grid)    # an unknown key is a TypeError here
    raise TypeError(f"cannot interpret {type(grid).__name__} as a sweep "
                    "grid; expected a SweepGrid or a mapping with "
                    "schemes/scenarios/seeds (and optionally routings)")


def run(scheme, scenario, *, options: RunOptions | None = None) -> RunReport:
    """Run one scheme over one scenario and summarise it.

    ``scheme`` is an evaluation name, a :class:`SchemeSpec`, or a
    pre-built scheme instance; ``scenario`` is a built
    :class:`Scenario`, a :class:`ScenarioSpec`, or a builder name
    (``"standard"``, ``"quick"``, ``"tiny"``, ``"production"``).
    ``options`` carries every run-level knob — see
    :class:`~repro.options.RunOptions`.
    """
    options = options or RunOptions()
    scenario = _as_scenario(scenario, options)
    result = run_scheme(scheme, scenario, options=options)
    telemetry = options.telemetry
    return RunReport(result=result,
                     summary=summarize(result, scenario.cost_model),
                     options=options,
                     trace_path=None if telemetry is None else str(telemetry))


def sweep(grid, *, options: RunOptions | None = None,
          progress=None) -> SweepResult:
    """Run a scheme × scenario × seed grid, optionally process-parallel.

    ``grid`` is a :class:`SweepGrid` or a mapping with ``schemes`` /
    ``scenarios`` / ``seeds`` entries.  ``options.workers`` selects the
    parallelism; ``options.telemetry`` collects every cell's trace into
    one merged, audit-ready JSONL file.  See
    :func:`repro.experiments.sweep.run_sweep`.
    """
    return run_sweep(_as_grid(grid), options=options, progress=progress)


def campaign(spec, out_dir, *, options: RunOptions | None = None,
             progress=None) -> CampaignResult:
    """Run a declarative campaign and write its report artifact.

    ``spec`` is a preset name (``"smoke"``, ``"paper-scale"``), a path
    to a ``.toml``/``.json`` campaign file, a parsed spec dict, or a
    :class:`~repro.experiments.campaign.CampaignSpec`.  ``out_dir``
    receives ``report.md``, ``report.html`` and ``campaign.json``.
    ``options``, when given, replaces the spec's ``[options]`` table
    wholesale (partial overrides start from
    ``spec.options.replace(...)``).  See
    :func:`repro.experiments.campaign.run_campaign`.
    """
    return run_campaign(campaign_spec(spec), out_dir, options=options,
                        progress=progress)


def audit(trace, *, summary: dict | None = None) -> AuditReport:
    """Fold a trace's request ledger and check the economic invariants.

    ``trace`` is a JSONL trace path, streamed line by line, or any
    iterable of event dicts — including a merged sweep trace, which is
    partitioned by cell and audited per run.  ``summary`` optionally
    reconciles a single-run trace against its ``summarize()`` record.
    ``n_events`` counts every event read, ledger or not.
    """
    if isinstance(trace, (str, Path)):
        trace = read_trace(trace)
    n_events = 0

    def counted(events):
        nonlocal n_events
        for event in events:
            n_events += 1
            yield event

    findings = audit_events(counted(trace), summary=summary)
    return AuditReport(findings=findings, n_events=n_events)


class ServiceHandle:
    """A started live admission service, with its run environment scoped.

    Created by :func:`serve`; a context manager.  Submission methods
    (:meth:`submit`, :meth:`price_check`) delegate to the underlying
    :class:`~repro.service.AdmissionService`; :meth:`close` (or the
    ``with`` exit) drains the service, settles every contract, tears
    down the telemetry environment, and leaves the final
    :class:`~repro.sim.engine.RunResult` in ``result``.
    """

    def __init__(self, service, scenario: Scenario, options: RunOptions,
                 stack: ExitStack) -> None:
        self.service = service
        self.scenario = scenario
        self.options = options
        self._stack = stack
        self.result: RunResult | None = None

    # -- delegation ----------------------------------------------------------
    def submit(self, request, step=None, **kwargs):
        return self.service.submit(request, step, **kwargs)

    def price_check(self, request, step=None, **kwargs):
        return self.service.price_check(request, step, **kwargs)

    @property
    def engine(self):
        return self.service.engine

    @property
    def running(self) -> bool:
        return self.service.running

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> RunResult:
        """Stop the service and settle; idempotent."""
        if self.result is None:
            try:
                self.result = self.service.stop()
            finally:
                # The environment closes after the service: RUN_ENDED and
                # the metrics snapshot must land in the trace first.
                self._stack.close()
        return self.result

    def summary(self) -> dict:
        """``summarize()`` record of the (closed) service's run."""
        return summarize(self.close(), self.scenario.cost_model)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(scheme, scenario, *, options: RunOptions | None = None,
          service_options: ServiceOptions | None = None) -> ServiceHandle:
    """Start a live admission service for ``scheme`` on ``scenario``.

    The scenario contributes the world being priced — topology, horizon,
    steps per day, traffic classes (its workload's requests are *not*
    pre-loaded; they make a convenient replay stream for the load
    generator).  ``options`` scopes the same run environment :func:`run`
    would (fault injector, telemetry trace, link-kill schedule) for the
    **lifetime of the service**;
    ``service_options`` shapes the service — micro-batch window, menu
    cache size, quote deadline budget, backpressure bound
    (:class:`~repro.options.ServiceOptions`).

    Returns a started :class:`ServiceHandle` (use as a context manager).
    """
    from .service import AdmissionEngine, AdmissionService

    options = options or RunOptions()
    service_options = service_options or ServiceOptions()
    scenario = _as_scenario(scenario, options)
    stack = ExitStack()
    try:
        stack.enter_context(run_context(options))
        if isinstance(scheme, (str, SchemeSpec)):
            scheme = scheme_spec(scheme).build(options)
        engine = AdmissionEngine(scheme, scenario.workload,
                                 options=service_options,
                                 link_kills=options.link_kills)
        service = AdmissionService(engine, service_options).start()
    except BaseException:
        stack.close()
        raise
    return ServiceHandle(service, scenario, options, stack)
