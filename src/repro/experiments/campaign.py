"""Declarative campaign runner: spec → sweeps → figures → report.

A *campaign* is the unit of a full evaluation: several sweep grids, the
figures computed from them, and one self-contained report artifact —
described declaratively in a TOML or JSON spec instead of a script, so
the paper-scale runs are reproducible from a checked-in config::

    [campaign]
    name = "welfare-study"
    title = "Welfare vs load, all schemes"

    [options]                       # RunOptions fields (all optional)
    workers = 4

    [[sweeps]]
    name = "main"
    schemes = ["OPT", "NoPrices", "Pretium"]
    scenario = "standard"
    loads = [0.5, 1.0, 2.0]
    seeds = [0, 1]

    [[figures]]
    name = "welfare"
    kind = "welfare_vs_load"        # from FIGURE_KINDS
    sweep = "main"

``run_campaign`` executes every sweep through the persistent-worker
:func:`~repro.experiments.sweep.run_sweep`, evaluates each figure from
the registry, and writes an output directory containing ``report.md``,
``report.html`` and a machine-readable ``campaign.json`` that records
wall-clock, peak RSS (self + workers) and per-stage timings.

Two presets ship in :data:`CAMPAIGN_PRESETS`: ``smoke`` (a 2-cell tiny
campaign CI runs end-to-end) and ``paper-scale`` (the 106-node /
~226-edge production WAN at the paper's 288 steps/day over a multi-day
horizon).  ``python -m repro campaign <preset-or-spec-path>`` is the
CLI entry point.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from html import escape
from pathlib import Path
from typing import Callable

from ..options import RunOptions
from .report import format_table
from .runner import scheme_spec
from .scenarios import ScenarioSpec
from .sweep import SweepGrid, SweepResult, run_sweep


class CampaignError(ValueError):
    """A campaign spec that cannot be run (unknown names, bad shape)."""


# -- spec ---------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignSweepSpec:
    """One named sweep grid of a campaign.

    ``loads`` expands into one scenario column per load factor (the
    Figure 6/8/9 idiom); ``scenario_kwargs`` are passed to the scenario
    builder for every column (the paper-scale preset stretches the
    horizon with ``n_days``/``steps_per_day`` here).  ``routing``, when
    set, runs every cell of this sweep under that routing policy.
    """

    name: str
    schemes: tuple[str, ...]
    scenario: str = "standard"
    loads: tuple[float, ...] = ()
    seeds: tuple[int, ...] = (0,)
    scenario_kwargs: tuple[tuple[str, object], ...] = ()
    routing: str | None = None

    def __post_init__(self) -> None:
        from ..network import ROUTING_POLICIES
        from ..registry import SCENARIOS, UnknownScenarioError
        if not self.name:
            raise CampaignError("every sweep needs a non-empty name")
        try:
            SCENARIOS.get(self.scenario)
        except UnknownScenarioError as exc:
            raise CampaignError(f"sweep {self.name!r}: {exc}") from None
        if self.routing is not None and \
                self.routing not in ROUTING_POLICIES:
            raise CampaignError(
                f"sweep {self.name!r}: unknown routing {self.routing!r}; "
                f"expected one of {list(ROUTING_POLICIES)}")
        for scheme in self.schemes:
            try:
                scheme_spec(scheme)
            except KeyError as exc:
                raise CampaignError(
                    f"sweep {self.name!r}: {exc.args[0]}") from None

    def scenario_specs(self) -> list[ScenarioSpec]:
        """One ScenarioSpec per load factor (or one bare column)."""
        kwargs = dict(self.scenario_kwargs)
        if not self.loads:
            return [ScenarioSpec.of(self.scenario, **kwargs)]
        return [ScenarioSpec.of(self.scenario, load_factor=load, **kwargs)
                for load in self.loads]

    def grid(self) -> SweepGrid:
        return SweepGrid(schemes=self.schemes,
                         scenarios=self.scenario_specs(), seeds=self.seeds,
                         routings=(self.routing,))


@dataclass(frozen=True)
class CampaignFigureSpec:
    """One figure of a campaign: a registry kind applied to a sweep."""

    name: str
    kind: str
    sweep: str

    def __post_init__(self) -> None:
        if self.kind not in FIGURE_KINDS:
            raise CampaignError(
                f"figure {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {sorted(FIGURE_KINDS)}")


@dataclass(frozen=True)
class CampaignSpec:
    """A fully validated campaign: sweeps, figures, shared options."""

    name: str
    title: str = ""
    description: str = ""
    sweeps: tuple[CampaignSweepSpec, ...] = ()
    figures: tuple[CampaignFigureSpec, ...] = ()
    options: RunOptions = field(default_factory=RunOptions)
    telemetry: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("a campaign needs a non-empty name")
        if not self.sweeps:
            raise CampaignError(f"campaign {self.name!r} declares no sweeps")
        names = [sweep.name for sweep in self.sweeps]
        if len(set(names)) != len(names):
            raise CampaignError(
                f"campaign {self.name!r} has duplicate sweep names: {names}")
        for figure in self.figures:
            if figure.sweep not in names:
                raise CampaignError(
                    f"figure {figure.name!r} references unknown sweep "
                    f"{figure.sweep!r}; declared sweeps: {names}")

    # -- construction --------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: dict) -> "CampaignSpec":
        """Build and validate a spec from a parsed TOML/JSON document."""
        if not isinstance(raw, dict):
            raise CampaignError(
                f"a campaign spec must be a table/object, not "
                f"{type(raw).__name__}")
        known = {"campaign", "options", "sweeps", "figures", "telemetry"}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise CampaignError(
                f"unknown top-level spec key(s) "
                f"{', '.join(map(repr, unknown))}; expected {sorted(known)}")
        header = raw.get("campaign", {})
        options_raw = dict(raw.get("options", {}))
        option_fields = {f.name for f in dataclasses.fields(RunOptions)}
        bad = sorted(set(options_raw) - option_fields)
        if bad:
            raise CampaignError(
                f"unknown [options] key(s) {', '.join(map(repr, bad))}; "
                "expected RunOptions fields")
        try:
            options = RunOptions(**options_raw)
        except (TypeError, ValueError) as exc:
            raise CampaignError(f"bad [options]: {exc}") from None
        sweeps = tuple(cls._sweep_from(entry) for entry in raw.get("sweeps",
                                                                   ()))
        figures = tuple(cls._figure_from(entry)
                        for entry in raw.get("figures", ()))
        return cls(name=str(header.get("name", "")),
                   title=str(header.get("title", "")),
                   description=str(header.get("description", "")),
                   sweeps=sweeps, figures=figures, options=options,
                   telemetry=bool(raw.get("telemetry", False)))

    @staticmethod
    def _sweep_from(entry: dict) -> CampaignSweepSpec:
        known = {"name", "schemes", "scenario", "loads", "seeds",
                 "scenario_kwargs", "routing"}
        unknown = sorted(set(entry) - known)
        if unknown:
            raise CampaignError(
                f"sweep {entry.get('name', '?')!r}: unknown key(s) "
                f"{', '.join(map(repr, unknown))}")
        routing = entry.get("routing")
        return CampaignSweepSpec(
            name=str(entry.get("name", "")),
            schemes=tuple(entry.get("schemes", ())),
            scenario=str(entry.get("scenario", "standard")),
            loads=tuple(float(load) for load in entry.get("loads", ())),
            seeds=tuple(int(seed) for seed in entry.get("seeds", (0,))),
            scenario_kwargs=tuple(sorted(
                dict(entry.get("scenario_kwargs", {})).items())),
            routing=None if routing is None else str(routing))

    @staticmethod
    def _figure_from(entry: dict) -> CampaignFigureSpec:
        known = {"name", "kind", "sweep"}
        unknown = sorted(set(entry) - known)
        if unknown:
            raise CampaignError(
                f"figure {entry.get('name', '?')!r}: unknown key(s) "
                f"{', '.join(map(repr, unknown))}")
        return CampaignFigureSpec(name=str(entry.get("name", "")),
                                  kind=str(entry.get("kind", "")),
                                  sweep=str(entry.get("sweep", "")))

    @classmethod
    def from_file(cls, path: str | Path) -> "CampaignSpec":
        """Load a ``.toml`` or ``.json`` campaign spec from disk."""
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix.lower() == ".toml":
            try:
                import tomllib
            except ImportError:  # Python 3.10: stdlib tomllib is 3.11+
                raise CampaignError(
                    f"cannot load {path}: TOML specs need Python >= 3.11 "
                    "(tomllib); use a .json spec on this interpreter"
                ) from None
            try:
                raw = tomllib.loads(text)
            except tomllib.TOMLDecodeError as exc:
                raise CampaignError(f"cannot parse {path}: {exc}") from None
        elif path.suffix.lower() == ".json":
            try:
                raw = json.loads(text)
            except json.JSONDecodeError as exc:
                raise CampaignError(f"cannot parse {path}: {exc}") from None
        else:
            raise CampaignError(
                f"unsupported campaign spec format {path.suffix!r} "
                "(expected .toml or .json)")
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        """JSON-friendly round-trip of the spec (recorded in the report)."""
        defaults = RunOptions()
        options = {f.name: getattr(self.options, f.name)
                   for f in dataclasses.fields(RunOptions)
                   if getattr(self.options, f.name) != getattr(defaults,
                                                               f.name)}
        return {
            "campaign": {"name": self.name, "title": self.title,
                         "description": self.description},
            "options": options,
            "telemetry": self.telemetry,
            "sweeps": [{"name": sweep.name, "schemes": list(sweep.schemes),
                        "scenario": sweep.scenario,
                        "loads": list(sweep.loads),
                        "seeds": list(sweep.seeds),
                        "scenario_kwargs": dict(sweep.scenario_kwargs),
                        **({} if sweep.routing is None
                           else {"routing": sweep.routing})}
                       for sweep in self.sweeps],
            "figures": [{"name": figure.name, "kind": figure.kind,
                         "sweep": figure.sweep}
                        for figure in self.figures],
        }


# -- figure registry ----------------------------------------------------------

def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def _metric_by_scheme_and_column(result: SweepResult,
                                 spec: CampaignSweepSpec,
                                 metric: str) -> dict:
    """``{(scenario_label, scheme): mean-over-seeds metric}`` for a sweep."""
    out: dict[tuple[str, str], list[float]] = {}
    for cell in result.cells:
        if not cell.ok or cell.summary is None:
            continue
        out.setdefault((cell.scenario, cell.scheme), []).append(
            float(cell.summary[metric]))
    return {key: _mean(values) for key, values in out.items()}


def _metric_vs_load(result: SweepResult, spec: CampaignSweepSpec,
                    metric: str, normalize: str | None = None) -> dict:
    """Table of ``metric`` per scheme (rows) × scenario column.

    With ``normalize`` set to a scheme present in the sweep, every value
    is reported relative to that scheme's (the Figure 6 "fraction of
    OPT welfare" shape); absolute values are the fallback.
    """
    columns = [spec_.label for spec_ in spec.scenario_specs()]
    by_key = _metric_by_scheme_and_column(result, spec, metric)
    reference = normalize if normalize in spec.schemes else None
    rows = []
    for scheme in spec.schemes:
        if scheme == reference:
            continue
        row = [scheme]
        for column in columns:
            value = by_key.get((column, scheme))
            if value is None:
                row.append("-")
                continue
            if reference is not None:
                base = by_key.get((column, reference))
                value = value / base if base else float("nan")
            row.append(f"{value:.4f}")
        rows.append(row)
    label = metric if reference is None else f"{metric} / {reference}"
    header = "load" if spec.loads else "scenario"
    columns = ([f"{header}={load}" for load in spec.loads]
               if spec.loads else columns)
    return {"columns": ["scheme"] + columns, "rows": rows,
            "caption": f"{label} by scheme and {header}"}


def _fig_welfare_vs_load(result, spec):
    return _metric_vs_load(result, spec, "welfare", normalize="OPT")


def _fig_profit_vs_load(result, spec):
    return _metric_vs_load(result, spec, "profit",
                           normalize="RegionOracle")


def _fig_completion_vs_load(result, spec):
    return _metric_vs_load(result, spec, "completion_demand")


def _fig_cell_table(result, spec):
    rows = []
    for cell in result.cells:
        welfare = ("-" if not cell.ok or cell.summary is None
                   else f"{cell.summary['welfare']:.1f}")
        status = "ok" if cell.ok else f"FAILED: {cell.error}"
        rows.append([cell.index, cell.scheme, cell.scenario, cell.seed,
                     status, welfare, f"{cell.duration:.2f}",
                     "hit" if cell.cache_hit else "miss"])
    return {"columns": ["cell", "scheme", "scenario", "seed", "status",
                        "welfare", "secs", "scenario-cache"],
            "rows": rows, "caption": "per-cell outcomes"}


def _fig_scheme_timings(result, spec):
    by_scheme: dict[str, list[float]] = {}
    for cell in result.cells:
        by_scheme.setdefault(cell.scheme, []).append(cell.duration)
    rows = [[scheme, len(durations), f"{_mean(durations):.2f}",
             f"{max(durations):.2f}"]
            for scheme, durations in by_scheme.items()]
    return {"columns": ["scheme", "cells", "mean_s", "max_s"],
            "rows": rows, "caption": "per-scheme cell wall-clock"}


def _fig_per_class(result, spec):
    """Per-traffic-class outcomes: one row per (cell, class).

    Only multi-class cells contribute — ``summarize()`` adds the
    ``per_class`` roll-up when the workload declares classes; the README
    walkthrough's "interactive pays more, background yields" figure.
    """
    rows = []
    for cell in result.cells:
        if not cell.ok or not cell.summary:
            continue
        per_class = cell.summary.get("per_class") or {}
        for cls in sorted(per_class):
            record = per_class[cls]
            rows.append([cell.scheme, cell.scenario, cls,
                         record["n_requests"],
                         f"{record['delivered']:.1f}",
                         f"{record['completion']:.3f}",
                         f"{record['value']:.2f}",
                         f"{record['payments']:.2f}"])
    return {"columns": ["scheme", "scenario", "class", "requests",
                        "delivered", "completion", "value", "payments"],
            "rows": rows,
            "caption": "per-class delivery and economics "
                       "(multi-class cells only)"}


#: Figure kinds a campaign spec may reference.  Each takes
#: ``(SweepResult, CampaignSweepSpec)`` and returns a renderable table:
#: ``{"columns": [...], "rows": [...], "caption": str}``.
FIGURE_KINDS: dict[str, Callable] = {
    "welfare_vs_load": _fig_welfare_vs_load,
    "profit_vs_load": _fig_profit_vs_load,
    "completion_vs_load": _fig_completion_vs_load,
    "cell_table": _fig_cell_table,
    "scheme_timings": _fig_scheme_timings,
    "per_class": _fig_per_class,
}


# -- execution ----------------------------------------------------------------

@dataclass
class StageTiming:
    """Wall-clock of one campaign stage (a sweep, figures, the report)."""

    stage: str
    wall_s: float
    detail: str = ""


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    spec: CampaignSpec
    out_dir: Path
    sweeps: dict[str, SweepResult]
    figures: dict[str, dict]
    stages: list[StageTiming]
    wall_s: float
    max_rss_mb: float
    report_md: Path
    report_html: Path
    summary_path: Path
    #: Fleet-merged metrics snapshot across every sweep's cells
    #: (counters summed, histograms bucket-merged, gauges per-worker).
    fleet_metrics: dict = field(default_factory=dict)
    #: Campaign-level SLO evaluation over the fleet metrics.
    slo: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.sweeps.values())

    @property
    def n_cells(self) -> int:
        return sum(len(result.cells) for result in self.sweeps.values())

    @property
    def failures(self) -> list:
        return [cell for result in self.sweeps.values()
                for cell in result.failures]


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its (reaped) workers, in MB."""
    try:
        import resource
    except ImportError:  # non-POSIX
        return 0.0
    peak = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # ru_maxrss is KB on Linux, bytes on macOS.
    scale = 1024 if sys.platform == "darwin" else 1
    return peak * scale / 1024.0


def _campaign_slo(registry) -> "object":
    """The campaign-flavoured SLO tracker: batch-run objectives.

    Campaigns run the batch engine, not the live service, so the error
    budget burns on engine step failures against decided requests and
    the degraded objective tracks resilience fallbacks.  The
    quote-latency objective stays on the service metric — absent in a
    pure batch campaign, it simply reports no data.
    """
    from ..telemetry.live import SLOTracker
    return SLOTracker(registry,
                      total_metrics=("pretium.admitted",
                                     "pretium.rejected"),
                      error_metrics=("engine.failures",),
                      degraded_metrics=("resilience.fallbacks",))


def run_campaign(spec: CampaignSpec, out_dir: str | Path,
                 options: RunOptions | None = None,
                 progress: Callable | None = None,
                 metrics_port: int | None = None) -> CampaignResult:
    """Execute a campaign spec and write its report artifact.

    ``out_dir`` receives ``report.md``, ``report.html``,
    ``campaign.json`` and (with ``spec.telemetry``) one merged
    audit-ready trace per sweep.  ``options``, when given, replaces the
    spec's ``[options]`` table wholesale (callers wanting a partial
    override start from ``spec.options.replace(...)`` — the CLI maps
    ``--workers`` that way).  ``progress`` is
    forwarded to every underlying :func:`run_sweep`.

    ``metrics_port`` (``--metrics-port``) starts a live
    :class:`~repro.telemetry.live.LiveMetricsServer` on localhost for
    the campaign's duration: as worker cells finish, their metrics merge
    into this process's registry, so ``/metrics`` and ``/snapshot``
    track fleet-wide progress of a multi-hour run mid-flight.
    """
    from ..telemetry import get_registry
    from ..telemetry.fleet import fleet_registry_from_cells

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_options = spec.options if options is None else options

    live_server = None
    if metrics_port is not None:
        from ..telemetry.live import LiveMetricsServer
        live_server = LiveMetricsServer(
            get_registry(), port=metrics_port,
            slo=_campaign_slo(get_registry())).start()

    begin = time.perf_counter()
    stages: list[StageTiming] = []
    sweeps: dict[str, SweepResult] = {}
    try:
        for sweep_spec in spec.sweeps:
            sweep_options = run_options
            if spec.telemetry:
                sweep_options = sweep_options.replace(
                    telemetry=out_dir / f"{sweep_spec.name}.jsonl")
            stage_begin = time.perf_counter()
            result = run_sweep(sweep_spec.grid(), options=sweep_options,
                               progress=progress)
            sweeps[sweep_spec.name] = result
            stages.append(StageTiming(
                stage=f"sweep:{sweep_spec.name}",
                wall_s=time.perf_counter() - stage_begin,
                detail=f"{len(result.cells)} cells, "
                       f"{result.n_workers} worker(s), "
                       f"{len(result.failures)} failed"))
    finally:
        if live_server is not None:
            live_server.stop()

    # The standalone fleet view: rebuilt from the cells themselves, so
    # the report is identical whether or not a live endpoint (or an
    # unrelated run sharing the process registry) was active.
    fleet = fleet_registry_from_cells(
        cell for result in sweeps.values() for cell in result.cells)
    fleet_metrics = fleet.snapshot()
    slo_status = _campaign_slo(fleet).status()

    stage_begin = time.perf_counter()
    figures: dict[str, dict] = {}
    sweep_specs = {sweep.name: sweep for sweep in spec.sweeps}
    for figure in spec.figures:
        figures[figure.name] = FIGURE_KINDS[figure.kind](
            sweeps[figure.sweep], sweep_specs[figure.sweep])
    stages.append(StageTiming(stage="figures",
                              wall_s=time.perf_counter() - stage_begin,
                              detail=f"{len(figures)} figure(s)"))

    stage_begin = time.perf_counter()
    wall_s = time.perf_counter() - begin
    max_rss_mb = _peak_rss_mb()
    report_md = out_dir / "report.md"
    report_html = out_dir / "report.html"
    summary_path = out_dir / "campaign.json"
    result = CampaignResult(spec=spec, out_dir=out_dir, sweeps=sweeps,
                            figures=figures, stages=stages, wall_s=wall_s,
                            max_rss_mb=max_rss_mb, report_md=report_md,
                            report_html=report_html,
                            summary_path=summary_path,
                            fleet_metrics=fleet_metrics, slo=slo_status)
    report_md.write_text(render_markdown(result), encoding="utf-8")
    report_html.write_text(render_html(result), encoding="utf-8")
    stages.append(StageTiming(stage="report",
                              wall_s=time.perf_counter() - stage_begin,
                              detail=str(out_dir)))
    result.wall_s = time.perf_counter() - begin
    summary_path.write_text(
        json.dumps(campaign_record(result), indent=2, default=str) + "\n",
        encoding="utf-8")
    return result


def campaign_record(result: CampaignResult) -> dict:
    """The machine-readable roll-up written to ``campaign.json``."""
    return {
        "spec": result.spec.to_dict(),
        "ok": result.ok,
        "n_cells": result.n_cells,
        "n_failures": len(result.failures),
        "wall_s": result.wall_s,
        "max_rss_mb": result.max_rss_mb,
        "stages": [{"stage": stage.stage, "wall_s": stage.wall_s,
                    "detail": stage.detail} for stage in result.stages],
        "sweeps": {name: sweep.summaries()
                   for name, sweep in result.sweeps.items()},
        "figures": result.figures,
        "fleet_metrics": result.fleet_metrics,
        "slo": result.slo,
    }


# -- rendering ----------------------------------------------------------------

def _stage_rows(result: CampaignResult) -> list[list]:
    return [[stage.stage, f"{stage.wall_s:.2f}", stage.detail]
            for stage in result.stages]


def _slo_rows(slo: dict) -> list[list]:
    rows = []
    for name, objective in (slo.get("objectives") or {}).items():
        if not objective:
            rows.append([name, "-", "-", "no data"])
            continue
        if name == "quote_latency":
            observed = f"p99 {objective['p99_ms']:.2f} ms"
            target = ("-" if objective.get("target_ms") is None
                      else f"<= {objective['target_ms']:g} ms")
        elif name == "error_budget":
            observed = f"burn {objective['burn']:.3f}"
            target = "<= 1.0"
        else:
            observed = f"rate {objective['rate']:.4f}"
            target = f"<= {objective['target']:g}"
        ok = objective.get("ok")
        status = "n/a" if ok is None else ("met" if ok else "VIOLATED")
        rows.append([name, observed, target, status])
    return rows


def _fleet_metric_rows(fleet_metrics: dict) -> list[list]:
    rows = []
    for name in sorted(fleet_metrics):
        value = fleet_metrics[name]
        if isinstance(value, dict):  # histogram summary
            if not value.get("count"):
                continue
            rows.append([name, f"count={value['count']} "
                               f"p50={value['p50']:.4g} "
                               f"p99={value['p99']:.4g}"])
        elif isinstance(value, float):
            rows.append([name, f"{value:g}"])
        else:
            rows.append([name, value])
    return rows


def render_markdown(result: CampaignResult) -> str:
    """The campaign report as a self-contained Markdown document."""
    spec = result.spec
    lines = [f"# Campaign report: {spec.title or spec.name}", ""]
    if spec.description:
        lines += [spec.description, ""]
    lines += [
        f"- **campaign**: `{spec.name}`",
        f"- **cells**: {result.n_cells} "
        f"({len(result.failures)} failed)",
        f"- **wall-clock**: {result.wall_s:.2f} s",
        f"- **peak RSS (self+workers)**: {result.max_rss_mb:.1f} MB",
        f"- **workers**: {max(s.n_workers for s in result.sweeps.values())}",
        "",
        "## Stages", "",
        format_table(["stage", "wall_s", "detail"], _stage_rows(result)),
        "",
    ]
    if result.slo:
        lines += ["## SLO", "",
                  format_table(["objective", "observed", "target",
                                "status"], _slo_rows(result.slo)), ""]
    if result.fleet_metrics:
        lines += ["## Fleet metrics", "",
                  "*Merged across every worker cell: counters summed, "
                  "histograms merged by bucket, gauges per-worker.*", "",
                  format_table(["metric", "value"],
                               _fleet_metric_rows(result.fleet_metrics)),
                  ""]
    for name, figure in result.figures.items():
        lines += [f"## {name}", ""]
        if figure.get("caption"):
            lines += [f"*{figure['caption']}*", ""]
        lines += [format_table(figure["columns"], figure["rows"]), ""]
    if result.failures:
        lines += ["## Failures", ""]
        for cell in result.failures:
            lines += [f"- cell {cell.index} ({cell.label}): "
                      f"{cell.error}: {cell.detail}"]
        lines += [""]
    return "\n".join(lines)


_HTML_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto;
       max-width: 60rem; color: #1a1a1a; }
table { border-collapse: collapse; margin: 0.75rem 0; }
th, td { border: 1px solid #c9c9c9; padding: 0.3rem 0.6rem;
         text-align: left; font-variant-numeric: tabular-nums; }
th { background: #f2f2f2; }
caption { caption-side: top; text-align: left; font-style: italic;
          padding-bottom: 0.25rem; }
.failed { color: #a40000; font-weight: 600; }
"""


def _html_table(columns: list, rows: list[list],
                caption: str = "") -> list[str]:
    out = ["<table>"]
    if caption:
        out.append(f"<caption>{escape(caption)}</caption>")
    out.append("<tr>" + "".join(f"<th>{escape(str(col))}</th>"
                                for col in columns) + "</tr>")
    for row in rows:
        cells = []
        for value in row:
            text = escape(str(value))
            klass = ' class="failed"' if "FAILED" in text else ""
            cells.append(f"<td{klass}>{text}</td>")
        out.append("<tr>" + "".join(cells) + "</tr>")
    out.append("</table>")
    return out


def render_html(result: CampaignResult) -> str:
    """The campaign report as one standalone HTML page (no assets)."""
    spec = result.spec
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>Campaign: {escape(spec.title or spec.name)}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>Campaign report: {escape(spec.title or spec.name)}</h1>",
    ]
    if spec.description:
        parts.append(f"<p>{escape(spec.description)}</p>")
    parts += _html_table(
        ["metric", "value"],
        [["campaign", spec.name],
         ["cells", f"{result.n_cells} ({len(result.failures)} failed)"],
         ["wall-clock", f"{result.wall_s:.2f} s"],
         ["peak RSS (self+workers)", f"{result.max_rss_mb:.1f} MB"]],
        caption="run facts")
    parts.append("<h2>Stages</h2>")
    parts += _html_table(["stage", "wall_s", "detail"], _stage_rows(result))
    if result.slo:
        parts.append("<h2>SLO</h2>")
        parts += _html_table(["objective", "observed", "target", "status"],
                             _slo_rows(result.slo))
    if result.fleet_metrics:
        parts.append("<h2>Fleet metrics</h2>")
        parts += _html_table(
            ["metric", "value"], _fleet_metric_rows(result.fleet_metrics),
            caption="merged across every worker cell")
    for name, figure in result.figures.items():
        parts.append(f"<h2>{escape(name)}</h2>")
        parts += _html_table(figure["columns"], figure["rows"],
                             caption=figure.get("caption", ""))
    if result.failures:
        parts.append("<h2>Failures</h2><ul>")
        parts += [f"<li class='failed'>cell {cell.index} "
                  f"({escape(cell.label)}): {escape(str(cell.error))}: "
                  f"{escape(str(cell.detail))}</li>"
                  for cell in result.failures]
        parts.append("</ul>")
    parts.append("</body></html>")
    return "\n".join(parts)


# -- presets ------------------------------------------------------------------

#: Checked-in campaign specs runnable by name from the CLI and benches.
CAMPAIGN_PRESETS: dict[str, dict] = {
    # The CI end-to-end smoke: two schemes on the tiny world, 2 cells,
    # finishes in seconds even single-core.
    "smoke": {
        "campaign": {"name": "smoke",
                     "title": "Campaign smoke (tiny world)",
                     "description": "Two schemes on the 6-node tiny "
                                    "scenario; exercises spec -> sweep -> "
                                    "figures -> report end to end."},
        "options": {"workers": 2},
        "telemetry": True,
        "sweeps": [{"name": "main",
                    "schemes": ["Pretium", "NoPrices"],
                    "scenario": "tiny", "loads": [2.0], "seeds": [0]},
                   {"name": "multiclass",
                    "schemes": ["Pretium"],
                    "scenario": "multiclass_medium", "seeds": [0],
                    "routing": "flowlet"}],
        "figures": [
            {"name": "welfare", "kind": "welfare_vs_load", "sweep": "main"},
            {"name": "cells", "kind": "cell_table", "sweep": "main"},
            {"name": "timings", "kind": "scheme_timings", "sweep": "main"},
            {"name": "classes", "kind": "per_class", "sweep": "multiclass"},
        ],
    },
    # The paper-scale evaluation: the 106-node / ~226-edge production
    # WAN at the paper's 5-minute timesteps (288/day) over a two-day
    # horizon.  Minutes-scale; wall-clock and peak RSS land in the
    # output directory's campaign.json.
    "paper-scale": {
        "campaign": {"name": "paper-scale",
                     "title": "Paper-scale campaign (106-node WAN, "
                              "288 steps/day x 2 days)",
                     "description": "Pretium vs NoPrices on the "
                                    "production topology over a "
                                    "multi-day horizon at the paper's "
                                    "timestep granularity."},
        "options": {"workers": 2},
        "sweeps": [{"name": "paper",
                    "schemes": ["Pretium", "NoPrices"],
                    "scenario": "production", "loads": [1.0], "seeds": [0],
                    "scenario_kwargs": {"n_days": 2, "steps_per_day": 288,
                                        "request_cap": 1500}}],
        "figures": [
            {"name": "welfare", "kind": "welfare_vs_load", "sweep": "paper"},
            {"name": "cells", "kind": "cell_table", "sweep": "paper"},
            {"name": "timings", "kind": "scheme_timings", "sweep": "paper"},
        ],
    },
}


def campaign_spec(source: str | Path | dict) -> CampaignSpec:
    """Resolve a preset name, spec-file path or parsed dict to a spec."""
    if isinstance(source, CampaignSpec):
        return source
    if isinstance(source, dict):
        return CampaignSpec.from_dict(source)
    if isinstance(source, str) and source in CAMPAIGN_PRESETS:
        return CampaignSpec.from_dict(CAMPAIGN_PRESETS[source])
    path = Path(source)
    if path.exists():
        return CampaignSpec.from_file(path)
    raise CampaignError(
        f"{source!r} is neither a campaign preset "
        f"({sorted(CAMPAIGN_PRESETS)}) nor a spec file on disk")
