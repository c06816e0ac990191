"""Declarative campaign runner: spec → sweeps → figures → checks → report.

A *campaign* is the unit of a full evaluation: several sweep grids, the
figures computed from them, the claims those figures must satisfy, and
one self-contained report artifact — described declaratively in a TOML
or JSON spec instead of a script, so the paper-scale runs are
reproducible from a checked-in config::

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

    [[checks]]
    name = "pretium-beats-noprices"
    figure = "welfare"
    kind = "above"                  # from CHECK_KINDS
    scheme = "Pretium"
    than = ["NoPrices"]             # scheme rows of the figure, or a number

``run_campaign`` executes every sweep through the persistent-worker
:func:`~repro.experiments.sweep.run_sweep`, evaluates each figure from
the registry and then each check, and writes an output directory
containing ``report.md``, ``report.html`` and a machine-readable
``campaign.json`` that records wall-clock, the peak RSS of the largest
process (this one or a sweep worker), per-stage timings and every
check's pass / FAIL.

Three presets ship in :data:`CAMPAIGN_PRESETS`: ``smoke`` (a 3-cell
campaign CI runs end-to-end), ``figures`` (the only producer of Figures
6, 8, 9 and 11, with the paper's shape claims) and ``paper-scale`` (the
106-node / ~226-edge production WAN at the paper's 288 steps/day over a
multi-day horizon).  ``python -m repro campaign <preset-or-spec-path>``
is the CLI entry point.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import time
from dataclasses import dataclass, field
from functools import partial
from html import escape
from pathlib import Path
from typing import Callable, NamedTuple

from ..options import RunOptions
from ..sim import metrics
from ..telemetry.report import format_cell, format_table, metric_rows
from .scenarios import LOAD_FACTORS
from .sweep import SweepGrid, SweepResult, _run_grid, check_link_kills, \
    load_columns, peak_rss_mb


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
        # scheme, scenario and routing name, and rejects repeats.
        try:
            grid = SweepGrid(
                schemes=self.schemes, seeds=self.seeds,
                scenarios=load_columns(self.scenario, self.loads,
                                       **dict(self.scenario_kwargs)),
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
class CampaignCheckSpec:
    """A claim that ``scheme``'s row of a scheme × load figure compares
    with each row named in ``than`` (or with the number ``than``), less
    ``margin``, as :data:`CHECK_KINDS` says."""

    name: str
    figure: str
    kind: str
    scheme: str
    than: tuple[str, ...] | float
    margin: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in CHECK_KINDS:
            raise CampaignError(
                f"check {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {sorted(CHECK_KINDS)}")


@dataclass(frozen=True)
class CampaignSpec:
    """A fully validated campaign: sweeps, figures, shared options."""

    name: str
    title: str = ""
    description: str = ""
    sweeps: tuple[CampaignSweepSpec, ...] = ()
    figures: tuple[CampaignFigureSpec, ...] = ()
    checks: tuple[CampaignCheckSpec, ...] = ()
    options: RunOptions = field(default_factory=RunOptions)
    telemetry: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("a campaign needs a non-empty name")
        if not self.sweeps:
            raise CampaignError(f"campaign {self.name!r} declares no sweeps")
        for what, specs in (("sweep", self.sweeps), ("figure", self.figures)):
            names = [spec.name for spec in specs]
            if len(set(names)) != len(names):
                raise CampaignError(f"campaign {self.name!r} has duplicate "
                                    f"{what} names: {names}")
        sweeps = {sweep.name: sweep for sweep in self.sweeps}
        figures = {figure.name: figure for figure in self.figures}
        for figure in self.figures:
            if figure.sweep not in sweeps:
                raise CampaignError(
                    f"figure {figure.name!r} references unknown sweep "
                    f"{figure.sweep!r}; declared sweeps: {list(sweeps)}")
        for check in self.checks:
            figure = figures.get(check.figure)
            if figure is None:
                raise CampaignError(
                    f"check {check.name!r} references unknown figure "
                    f"{check.figure!r}; declared figures: {list(figures)}")
            if figure.kind not in LOAD_FIGURES:
                raise CampaignError(
                    f"check {check.name!r}: figure {figure.name!r} is a "
                    f"{figure.kind!r}, not one of {sorted(LOAD_FIGURES)}")
            rows = [scheme.name
                    for scheme in sweeps[figure.sweep].grid().schemes]
            than = check.than if isinstance(check.than, tuple) else ()
            for scheme in (check.scheme, *than):
                if scheme not in rows:
                    raise CampaignError(
                        f"check {check.name!r}: unknown scheme {scheme!r}; "
                        f"figure {figure.name!r} has rows {rows}")

    # -- construction --------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: dict) -> "CampaignSpec":
        """Build and validate a spec from a parsed TOML/JSON document."""
        if not isinstance(raw, dict):
            raise CampaignError(
                f"a campaign spec must be a table/object, not "
                f"{type(raw).__name__}")
        _check_keys(raw, ("campaign", "options", "sweeps", "figures",
                          "checks", "telemetry"), "top-level spec key(s)")
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
        checks = tuple(cls._check_from(entry)
                       for entry in raw.get("checks", ()))
        return cls(name=str(header.get("name", "")),
                   title=str(header.get("title", "")),
                   description=str(header.get("description", "")),
                   sweeps=sweeps, figures=figures, checks=checks,
                   options=options,
                   telemetry=bool(raw.get("telemetry", False)))

    @staticmethod
    def _sweep_from(entry: dict) -> CampaignSweepSpec:
        name = entry.get("name", "?")
        _check_keys(entry, CampaignSweepSpec, f"key(s) in sweep {name!r}")
        for key in ("schemes", "loads", "seeds"):
            if not isinstance(entry.get(key, ()), (list, tuple)):
                raise CampaignError(
                    f"sweep {name!r}: {key!r} must be an array, not "
                    f"{type(entry[key]).__name__} {entry[key]!r}")
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
        return CampaignFigureSpec(**{key: str(entry.get(key, ""))
                                     for key in ("name", "kind", "sweep")})

    @staticmethod
    def _check_from(entry: dict) -> CampaignCheckSpec:
        name = entry.get("name", "?")
        _check_keys(entry, CampaignCheckSpec, f"key(s) in check {name!r}")
        than = entry.get("than")
        if isinstance(than, (list, tuple)) and than:
            than = tuple(str(scheme) for scheme in than)
        elif isinstance(than, (int, float)) and not isinstance(than, bool):
            than = float(than)
        else:
            raise CampaignError(
                f"check {name!r}: 'than' must be a non-empty array of "
                f"schemes or a number, not {than!r}")
        return CampaignCheckSpec(
            **{key: str(entry.get(key, ""))
               for key in ("name", "figure", "kind", "scheme")},
            than=than, margin=float(entry.get("margin", 0.0)))

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
            "checks": [dataclasses.asdict(check) for check in self.checks],
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


def _metric_vs_load(result: SweepResult, spec: CampaignSweepSpec,
                    kind: str) -> dict:
    """Table of a :data:`LOAD_FIGURES` metric per scheme (rows) ×
    scenario column (the mean over seeds), ``None`` where no cell ran.

    When the kind's reference scheme is in the sweep, every value is
    reported relative to that scheme's with :func:`metrics.relative`
    (the Figure 6 "fraction of OPT welfare" shape; its own row reads
    1.0); absolute values are the fallback.
    """
    metric, reference = LOAD_FIGURES[kind]
    samples: dict[tuple[str, str], list[float]] = {}
    for cell in result.cells:
        if cell.ok and cell.summary is not None:
            samples.setdefault((cell.scenario, cell.scheme), []).append(
                float(cell.summary[metric]))
    by_key = {key: _mean(values) for key, values in samples.items()}
    columns = [scenario.label for scenario in spec.grid().scenarios]
    schemes = [scheme.name for scheme in spec.grid().schemes]
    if reference not in schemes:
        reference = None

    def value(column: str, scheme: str) -> float | None:
        raw = by_key.get((column, scheme))
        if raw is None or reference is None:
            return raw
        base = by_key.get((column, reference))
        return None if base is None else metrics.relative(raw, base)

    label = metric if reference is None else f"{metric} / {reference}"
    header = "load" if spec.loads else "scenario"
    return {"columns": ["scheme"] + ([f"load={load}" for load in spec.loads]
                                     or columns),
            "rows": [[scheme] + [value(column, scheme) for column in columns]
                     for scheme in schemes],
            "caption": f"{label} by scheme and {header}"}


def cell_table(result, spec=None):
    """One row per cell of a sweep: its outcome, welfare and wall-clock."""
    rows = []
    for cell in result.cells:
        welfare = (None if not cell.ok or cell.summary is None
                   else cell.summary["welfare"])
        status = "ok" if cell.ok else f"FAILED: {cell.error}"
        rows.append([cell.index, cell.scheme, cell.scenario, cell.seed,
                     status, welfare, cell.duration,
                     "hit" if cell.cache_hit else "miss"])
    return {"columns": ["cell", "scheme", "scenario", "seed", "status",
                        "welfare", "secs", "scenario-cache"],
            "rows": rows, "caption": "per-cell outcomes"}


def _fig_scheme_timings(result, spec):
    by_scheme: dict[str, list[float]] = {}
    for cell in result.cells:
        by_scheme.setdefault(cell.scheme, []).append(cell.duration)
    rows = [[scheme, len(durations), _mean(durations), max(durations)]
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
                         record["n_requests"], record["delivered"],
                         record["completion"], record["value"],
                         record["payments"]])
    return {"columns": ["scheme", "scenario", "class", "requests",
                        "delivered", "completion", "value", "payments"],
            "rows": rows,
            "caption": "per-class delivery and economics "
                       "(multi-class cells only)"}


#: The scheme × load figure kinds (the ones checks can read): kind ->
#: (summary metric, the scheme every value is relative to, if any).
LOAD_FIGURES: dict[str, tuple[str, str | None]] = {
    "welfare_vs_load": ("welfare", "OPT"),
    "profit_vs_load": ("profit", "RegionOracle"),
    "profit_abs_vs_load": ("profit", None),
    "completion_vs_load": ("completion_demand", None),
}

#: Figure kinds a campaign spec may reference.  Each takes
#: ``(SweepResult, CampaignSweepSpec)`` and returns a table of plain
#: values, which the report renders:
#: ``{"columns": [...], "rows": [...], "caption": str}``.
FIGURE_KINDS: dict[str, Callable] = {
    **{kind: partial(_metric_vs_load, kind=kind) for kind in LOAD_FIGURES},
    "cell_table": cell_table,
    "scheme_timings": _fig_scheme_timings,
    "per_class": _fig_per_class,
}


# -- checks -------------------------------------------------------------------

#: Check kinds: kind -> (symbol, comparison, whether the rows are summed
#: over loads first).  ``above`` holds when ``value > reference - margin``
#: at every load, ``at_least`` when ``value >= reference - margin``, and
#: ``above_in_sum`` when ``sum(values) > sum(references) - margin * n``
#: over the n loads.
CHECK_KINDS: dict[str, tuple[str, Callable, bool]] = {
    "above": (">", operator.gt, False),
    "at_least": (">=", operator.ge, False),
    "above_in_sum": (">", operator.gt, True),
}


def evaluate_check(check: CampaignCheckSpec, figure: dict) -> dict:
    """One check against its figure's table: pass / FAIL, and the worst
    slack ``value - (reference - margin)`` with where it occurred (NaN
    where a cell failed, which fails the check)."""
    symbol, compare, summed = CHECK_KINDS[check.kind]
    loads = figure["columns"][1:]
    rows = {row[0]: [math.nan if value is None else value
                     for value in row[1:]] for row in figure["rows"]}
    names = check.than if isinstance(check.than, tuple) else ()
    references = ({name: rows[name] for name in names} if names
                  else {f"{check.than:g}": [check.than] * len(loads)})
    values = rows[check.scheme]
    ok, worst, where = True, math.inf, ""
    for versus, reference in references.items():
        points = (zip(loads, values, reference) if not summed else
                  [("sum", sum(values), sum(reference))])
        margin = check.margin * (len(values) if summed else 1)
        for load, value, base in points:
            ok = ok and compare(value, base - margin)
            slack = value - (base - margin)
            if not (math.isnan(worst) or slack >= worst):
                worst, where = slack, f"{load} vs {versus}"
    versus = ", ".join(references)
    margin = f" - {check.margin:g}" if check.margin else ""
    scope = "summed over loads" if summed else "at every load"
    return {"name": check.name, "figure": check.figure, "ok": ok,
            "claim": f"{check.scheme} {symbol} {versus}{margin} {scope}",
            "worst_slack": worst, "at": where}


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
    #: One :func:`evaluate_check` record per declared check, in order.
    checks: list[dict]
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


#: The campaign SLO objectives.  Campaigns run the batch engine, so the
#: error budget burns on engine step failures against decided requests
#: and the degraded objective tracks resilience fallbacks.  No batch run
#: records a quote latency, so that objective always reads "no data".
SLO_AVAILABILITY = 0.999
SLO_DEGRADED_RATE = 0.05
SLO_ANSWERED = ("pretium.admitted", "pretium.rejected")
SLO_ERRORS = ("engine.failures",)
SLO_DEGRADED = ("resilience.fallbacks",)


def _campaign_slo(registry) -> dict:
    """The SLO objectives evaluated over a fleet metrics registry.

    ``ok`` is true while every objective with data is met; an objective
    with no data is ``None`` and does not trip it.  Reads never create
    metrics: the registry is membership-checked first.
    """
    def count(names) -> int:
        return sum(registry.counter(name).value
                   for name in names if name in registry)

    errors = count(SLO_ERRORS)
    total = count(SLO_ANSWERED) + errors
    objectives = {"quote_latency": None, "error_budget": None,
                  "degraded": None}
    if total:
        bad_rate = errors / total
        burn = bad_rate / (1.0 - SLO_AVAILABILITY)
        objectives["error_budget"] = {
            "bad_rate": bad_rate, "burn": burn, "target": SLO_AVAILABILITY,
            "ok": burn <= 1.0}
        rate = count(SLO_DEGRADED) / total
        objectives["degraded"] = {"rate": rate, "target": SLO_DEGRADED_RATE,
                                  "ok": rate <= SLO_DEGRADED_RATE}
    return {"ok": all(objective["ok"] for objective in objectives.values()
                      if objective is not None),
            "objectives": objectives}


def run_campaign(spec: CampaignSpec, out_dir: str | Path,
                 options: RunOptions | None = None,
                 progress: Callable | None = None) -> CampaignResult:
    """Execute a campaign spec and write its report artifact.

    ``out_dir`` receives ``report.md``, ``report.html``,
    ``campaign.json`` and (with ``spec.telemetry``) one merged
    audit-ready trace per sweep.  ``options``, when given, replaces the
    spec's ``[options]`` table wholesale (callers wanting a partial
    override start from ``spec.options.replace(...)`` — the CLI maps
    ``--workers`` that way).  ``progress`` is
    forwarded to every underlying sweep.  Link kills are checked against
    every sweep's worlds before the first cell starts: a clause that
    fits one sweep's scenario but not another's raises
    :class:`~repro.faults.FaultSpecError` and runs nothing.
    """
    from ..telemetry.fleet import fleet_registry_from_cells

    run_options = spec.options if options is None else options
    check_link_kills((sweep_spec.grid() for sweep_spec in spec.sweeps),
                     run_options)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    begin = time.perf_counter()
    stages: list[StageTiming] = []
    sweeps: dict[str, SweepResult] = {}
    for sweep_spec in spec.sweeps:
        sweep_options = run_options
        if spec.telemetry:
            sweep_options = sweep_options.replace(
                telemetry=out_dir / f"{sweep_spec.name}.jsonl")
        stage_begin = time.perf_counter()
        result = _run_grid(sweep_spec.grid(), sweep_options, progress)
        sweeps[sweep_spec.name] = result
        stages.append(StageTiming(
            stage=f"sweep:{sweep_spec.name}",
            wall_s=time.perf_counter() - stage_begin,
            detail=f"{len(result.cells)} cells, "
                   f"{result.n_workers} worker(s), "
                   f"{len(result.failures)} failed"))

    # The standalone fleet view: rebuilt from the cells themselves, so
    # the report is identical whether or not an unrelated run shared the
    # process registry.
    fleet = fleet_registry_from_cells(
        cell for result in sweeps.values() for cell in result.cells)
    fleet_metrics = fleet.snapshot()
    slo_status = _campaign_slo(fleet)

    stage_begin = time.perf_counter()
    figures: dict[str, dict] = {}
    sweep_specs = {sweep.name: sweep for sweep in spec.sweeps}
    for figure in spec.figures:
        figures[figure.name] = FIGURE_KINDS[figure.kind](
            sweeps[figure.sweep], sweep_specs[figure.sweep])
    checks = [evaluate_check(check, figures[check.figure])
              for check in spec.checks]
    stages.append(StageTiming(stage="figures",
                              wall_s=time.perf_counter() - stage_begin,
                              detail=f"{len(figures)} figure(s), "
                                     f"{len(checks)} check(s)"))

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
                            figures=figures, checks=checks,
                            stages=stages, wall_s=wall_s,
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
        "checks": result.checks,
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


def _check_section(checks: list[dict]) -> Section:
    return Section(
        "Checks", ["check", "figure", "claim", "worst slack", "at", "status"],
        [[check["name"], check["figure"], check["claim"],
          check["worst_slack"], check["at"],
          "pass" if check["ok"] else "FAIL"] for check in checks],
        "declared paper-shape claims; slack = value - (reference - margin)")


def _slo_rows(slo: dict) -> list[list]:
    rows = []
    for name, objective in (slo.get("objectives") or {}).items():
        if not objective:
            rows.append([name, "-", "-", "no data"])
            continue
        if name == "error_budget":
            observed = f"burn {objective['burn']:.3f}"
            target = "<= 1.0"
        else:
            observed = f"rate {objective['rate']:.4f}"
            target = f"<= {objective['target']:g}"
        rows.append([name, observed, target,
                     "met" if objective["ok"] else "VIOLATED"])
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
    if result.checks:
        sections.append(_check_section(result.checks))
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
            text = escape(format_cell(value))
            klass = ' class="failed"' if "FAIL" in text else ""
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
    # Figures 6, 8, 9 and 11 on DESIGN §5's world (`python -m repro
    # figure 6` runs one figure's slice), with the paper's shape claims.
    "figures": {
        "campaign": {"name": "figures",
                     "title": "Figures 6, 8, 9 and 11 (DESIGN §5 scale)",
                     "description": "The standard scenario at seed 0; the "
                                    "checks are the paper's shape claims "
                                    "(§6.2-6.3)."},
        "options": {"workers": 2},
        "sweeps": [{"name": "main",
                    "schemes": ["OPT", "NoPrices", "RegionOracle",
                                "PeakOracle", "VCGLike", "Pretium"],
                    "loads": list(LOAD_FACTORS)},
                   {"name": "ablations",
                    "schemes": ["OPT", "Pretium", "Pretium-NoMenu",
                                "Pretium-NoSAM"],
                    "loads": list(LOAD_FACTORS)}],
        "figures": [
            {"name": "fig6", "kind": "welfare_vs_load", "sweep": "main"},
            {"name": "fig8", "kind": "profit_abs_vs_load", "sweep": "main"},
            {"name": "fig8-rel", "kind": "profit_vs_load", "sweep": "main"},
            {"name": "fig9", "kind": "completion_vs_load", "sweep": "main"},
            {"name": "fig11", "kind": "welfare_vs_load",
             "sweep": "ablations"},
        ],
        "checks": [
            {"name": "pretium-beats-every-baseline", "figure": "fig6",
             "kind": "above", "scheme": "Pretium", "margin": 0.02,
             "than": ["NoPrices", "RegionOracle", "PeakOracle", "VCGLike"]},
            {"name": "noprices-trails-pretium", "figure": "fig6",
             "kind": "above", "scheme": "Pretium", "than": ["NoPrices"]},
            {"name": "pretium-keeps-half-of-opt", "figure": "fig6",
             "kind": "above", "scheme": "Pretium", "than": 0.5},
            {"name": "pretium-profit-dominates", "figure": "fig8",
             "kind": "at_least", "scheme": "Pretium", "margin": 1e-6,
             "than": ["NoPrices", "RegionOracle", "PeakOracle", "VCGLike"]},
            {"name": "pretium-completes-with-regionoracle",
             "figure": "fig9", "kind": "above_in_sum", "scheme": "Pretium",
             "than": ["RegionOracle"], "margin": 0.05},
            {"name": "menu-pays", "figure": "fig11", "kind": "above_in_sum",
             "scheme": "Pretium", "than": ["Pretium-NoMenu"]},
            {"name": "sam-pays", "figure": "fig11", "kind": "above_in_sum",
             "scheme": "Pretium", "than": ["Pretium-NoSAM"]},
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
