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
wall-clock, the peak RSS of the largest process (this one or a sweep
worker) and per-stage timings.

Two presets ship in :data:`CAMPAIGN_PRESETS`: ``smoke`` (a 2-cell tiny
campaign CI runs end-to-end) and ``paper-scale`` (the 106-node /
~226-edge production WAN at the paper's 288 steps/day over a multi-day
horizon).  ``python -m repro campaign <preset-or-spec-path>`` is the
CLI entry point.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from functools import partial
from html import escape
from pathlib import Path
from typing import Callable, NamedTuple

from ..options import RunOptions
from ..telemetry.report import format_table, metric_rows
from .scenarios import ScenarioSpec
from .sweep import SweepGrid, SweepResult, peak_rss_mb, run_sweep


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
        if not self.name:
            raise CampaignError("every sweep needs a non-empty name")
        # One scenario column per load factor; the grid checks every
        # scheme, scenario and routing name.
        columns = [{"load_factor": load} for load in self.loads] or [{}]
        try:
            grid = SweepGrid(
                schemes=self.schemes, seeds=self.seeds,
                scenarios=[ScenarioSpec.of(self.scenario, **column,
                                           **dict(self.scenario_kwargs))
                           for column in columns],
                routings=(self.routing,))
        except (KeyError, TypeError, ValueError) as exc:
            raise CampaignError(
                f"sweep {self.name!r}: {exc.args[0]}") from None
        object.__setattr__(self, "_grid", grid)

    def grid(self) -> SweepGrid:
        """The sweep's grid, built (and so validated) once, at load."""
        return self._grid


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
        _check_keys(raw, ("campaign", "options", "sweeps", "figures",
                          "telemetry"), "top-level spec key(s)")
        header = raw.get("campaign", {})
        options_raw = dict(raw.get("options", {}))
        _check_keys(options_raw, RunOptions, "[options] key(s)")
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
        _check_keys(entry, CampaignSweepSpec,
                    f"key(s) in sweep {entry.get('name', '?')!r}")
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
        _check_keys(entry, CampaignFigureSpec,
                    f"key(s) in figure {entry.get('name', '?')!r}")
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
            parse, malformed = tomllib.loads, tomllib.TOMLDecodeError
        elif path.suffix.lower() == ".json":
            parse, malformed = json.loads, json.JSONDecodeError
        else:
            raise CampaignError(
                f"unsupported campaign spec format {path.suffix!r} "
                "(expected .toml or .json)")
        try:
            raw = parse(text)
        except malformed as exc:
            raise CampaignError(f"cannot parse {path}: {exc}") from None
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
            "sweeps": [{**dataclasses.asdict(sweep),
                        "scenario_kwargs": dict(sweep.scenario_kwargs)}
                       for sweep in self.sweeps],
            "figures": [dataclasses.asdict(figure) for figure in self.figures],
        }


def _check_keys(raw: dict, known, what: str) -> None:
    """Reject keys of a spec table that are not in ``known`` (names, or
    the dataclass whose fields the table fills)."""
    if dataclasses.is_dataclass(known):
        known = [f.name for f in dataclasses.fields(known)]
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise CampaignError(f"unknown {what} {', '.join(map(repr, unknown))}"
                            f"; expected one of {sorted(known)}")


# -- figure registry ----------------------------------------------------------

def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def _metric_by_scheme_and_column(result: SweepResult, metric: str) -> dict:
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
    columns = [scenario.label for scenario in spec.grid().scenarios]
    by_key = _metric_by_scheme_and_column(result, metric)
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


def cell_table(result, spec=None):
    """One row per cell of a sweep: its outcome, welfare and wall-clock."""
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
    "welfare_vs_load": partial(_metric_vs_load, metric="welfare",
                               normalize="OPT"),
    "profit_vs_load": partial(_metric_vs_load, metric="profit",
                              normalize="RegionOracle"),
    "completion_vs_load": partial(_metric_vs_load,
                                  metric="completion_demand"),
    "cell_table": cell_table,
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
    # Sweep workers are children of the fork server, not of this
    # process, so only their own gauges see their peaks.
    max_rss_mb = max([peak_rss_mb()] + [
        value for name, value in fleet_metrics.items()
        if name.startswith("worker.peak_rss_mb")])
    report_md = out_dir / "report.md"
    report_html = out_dir / "report.html"
    summary_path = out_dir / "campaign.json"
    result = CampaignResult(spec=spec, out_dir=out_dir, sweeps=sweeps,
                            figures=figures, stages=stages, wall_s=wall_s,
                            max_rss_mb=max_rss_mb, report_md=report_md,
                            report_html=report_html,
                            summary_path=summary_path,
                            fleet_metrics=fleet_metrics, slo=slo_status)
    sections = report_sections(result)
    report_md.write_text(render_markdown(spec, sections), encoding="utf-8")
    report_html.write_text(render_html(spec, sections), encoding="utf-8")
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
        "stages": [dataclasses.asdict(stage) for stage in result.stages],
        "sweeps": {name: sweep.summaries()
                   for name, sweep in result.sweeps.items()},
        "figures": result.figures,
        "fleet_metrics": result.fleet_metrics,
        "slo": result.slo,
    }


# -- rendering ----------------------------------------------------------------

class Section(NamedTuple):
    """One titled table of the campaign report."""

    title: str
    columns: list
    rows: list
    caption: str = ""


def stage_section(result: CampaignResult) -> Section:
    return Section("Stages", ["stage", "wall_s", "detail"],
                   [[stage.stage, f"{stage.wall_s:.2f}", stage.detail]
                    for stage in result.stages])


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


def report_sections(result: CampaignResult) -> list[Section]:
    """The campaign report's tables, in order; both renderers walk it."""
    spec = result.spec
    sections = [
        Section("Run", ["fact", "value"], [
            ["campaign", spec.name],
            ["cells", f"{result.n_cells} ({len(result.failures)} failed)"],
            ["wall-clock", f"{result.wall_s:.2f} s"],
            ["peak RSS (largest process)", f"{result.max_rss_mb:.1f} MB"],
            ["workers", max(s.n_workers for s in result.sweeps.values())]]),
        stage_section(result)]
    if result.slo:
        sections.append(Section(
            "SLO", ["objective", "observed", "target", "status"],
            _slo_rows(result.slo)))
    if result.fleet_metrics:
        sections.append(Section(
            "Fleet metrics", ["metric", "value"],
            metric_rows(result.fleet_metrics),
            "merged across every worker cell: counters summed, histograms "
            "merged by bucket, gauges per-worker"))
    sections += [Section(name, figure["columns"], figure["rows"],
                         figure.get("caption", ""))
                 for name, figure in result.figures.items()]
    if result.failures:
        sections.append(Section(
            "Failures", ["cell", "label", "status", "detail"],
            [[cell.index, cell.label, f"FAILED: {cell.error}", cell.detail]
             for cell in result.failures]))
    return sections


def render_markdown(spec: CampaignSpec, sections: list[Section]) -> str:
    """The campaign report as a self-contained Markdown document."""
    lines = [f"# Campaign report: {spec.title or spec.name}", ""]
    if spec.description:
        lines += [spec.description, ""]
    for section in sections:
        lines += [f"## {section.title}", ""]
        if section.caption:
            lines += [f"*{section.caption}*", ""]
        lines += [format_table(section.columns, section.rows), ""]
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


def _html_table(section: Section) -> list[str]:
    out = [f"<h2>{escape(section.title)}</h2>", "<table>"]
    if section.caption:
        out.append(f"<caption>{escape(section.caption)}</caption>")
    out.append("<tr>" + "".join(f"<th>{escape(str(col))}</th>"
                                for col in section.columns) + "</tr>")
    for row in section.rows:
        cells = []
        for value in row:
            text = escape(str(value))
            klass = ' class="failed"' if "FAILED" in text else ""
            cells.append(f"<td{klass}>{text}</td>")
        out.append("<tr>" + "".join(cells) + "</tr>")
    out.append("</table>")
    return out


def render_html(spec: CampaignSpec, sections: list[Section]) -> str:
    """The campaign report as one standalone HTML page (no assets)."""
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>Campaign: {escape(spec.title or spec.name)}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>Campaign report: {escape(spec.title or spec.name)}</h1>",
    ]
    if spec.description:
        parts.append(f"<p>{escape(spec.description)}</p>")
    for section in sections:
        parts += _html_table(section)
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
