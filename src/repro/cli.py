"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate-workload``
    Synthesize a calibrated workload on a synthetic WAN and save it as a
    JSON artifact.
``run``
    Run one evaluation scheme over a workload artifact (or the standard
    scenario) and print/save the summary metrics.
``sweep``
    Run a scheme × scenario × seed grid, optionally across persistent
    worker processes (``--workers``), with per-cell
    results, an optional merged audit-ready telemetry trace, and a live
    progress line.
``campaign``
    Run a declarative campaign (a preset name like ``smoke`` /
    ``figures`` or a TOML/JSON spec file): every declared sweep, figure
    and check, and a Markdown + HTML report artifact with wall-clock,
    memory and per-stage timings; exit 1 if a cell or a check failed.
``serve``
    Start the live admission service and drive it with the synthetic
    open-loop load generator; prints quotes/sec, latency percentiles
    and the menu-cache hit counters.
``figure``
    Regenerate one of the paper's figures/tables and print its rows
    (6, 8, 9, 11: a slice of the ``figures`` campaign, with its checks).
``list-schemes``
    Show the evaluation scheme names accepted by ``run``.
``list-figures``
    Show the figure/table ids accepted by ``figure``.
``telemetry report``
    Aggregate a JSONL trace (from ``run --telemetry``) into a
    per-module runtime table (the Table 4 query).
``telemetry audit``
    Replay a trace's request ledger and check the economic invariants
    (byte conservation, guarantees, menu convexity, settlement and
    revenue reconciliation) in one streaming pass; non-zero exit on
    unwaived findings.
``telemetry timeline``
    Print one request's full economic history from a trace (streamed:
    only that request's and the run-level ledger events are kept).
``telemetry flame``
    Aggregate a trace's span trees into self-time attribution and emit
    collapsed-stack flamegraph lines (``--format collapsed``, the
    flamegraph.pl / speedscope input) or a self-time ranking table.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile

from . import api
from .costs import LinkCostModel
from .experiments import format_table
from .experiments import figures as figures_module
from .experiments.campaign import (CAMPAIGN_PRESETS, CampaignError,
                                   campaign_spec, cell_table, stage_section)
from .experiments.scenarios import Scenario, ScenarioSpec
from .experiments.sweep import SweepGrid, load_columns
from .faults import FaultSpecError
from .network import ROUTING_POLICIES, wan_topology
from .options import RunOptions
from .registry import SCENARIOS, SCHEMES
from .sim import save_summary
from .telemetry import flame_report, iter_trace, report_trace, timeline
from .traffic import NormalValues, build_workload, load_workload, \
    save_workload

#: Figure/table generators reachable from the CLI, in the paper's order
#: (which ``list-figures`` and ``figure``'s usage errors keep).  A tuple
#: names the figures of the ``figures`` campaign preset that the id runs.
FIGURES = {
    "1": figures_module.figure1,
    "2": figures_module.figure2,
    "4": figures_module.figure4,
    "5": figures_module.figure5,
    "6": ("fig6",),
    "7": figures_module.figure7,
    "8": ("fig8", "fig8-rel"),
    "9": ("fig9",),
    "10": figures_module.figure10,
    "11": ("fig11",),
    "12": figures_module.figure12,
    "13": figures_module.figure13,
    "14": figures_module.figure14,
    "table4": figures_module.table4,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Pretium reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-workload",
                         help="synthesize a workload artifact")
    gen.add_argument("--out", required=True, help="output JSON path")
    gen.add_argument("--nodes", type=int, default=16)
    gen.add_argument("--regions", type=int, default=4)
    gen.add_argument("--days", type=int, default=2)
    gen.add_argument("--steps-per-day", type=int, default=12)
    gen.add_argument("--load", type=float, default=1.0)
    gen.add_argument("--metered-cost", type=float, default=40.0)
    gen.add_argument("--seed", type=int, default=0)

    run = sub.add_parser("run", help="run a scheme over a workload")
    run.add_argument("--scheme", default="Pretium",
                     choices=SCHEMES.names())
    run.add_argument("--workload", help="workload artifact from "
                                        "generate-workload (default: the "
                                        "standard scenario)")
    run.add_argument("--load", type=float, default=1.0,
                     help="standard-scenario load factor (no --workload)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", help="write the summary JSON here")
    _add_knob_flags(run)

    swp = sub.add_parser("sweep", help="run a scheme x scenario x seed "
                                       "grid, optionally in parallel")
    swp.add_argument("--schemes", default=",".join(SCHEMES.names()),
                     help="comma-separated scheme names (default: all)")
    swp.add_argument("--scenario", default="standard",
                     choices=SCENARIOS.names(),
                     help="scenario builder for every cell")
    swp.add_argument("--loads", metavar="L1,L2,...",
                     help="comma-separated load factors (finite, > 0 and "
                          "distinct); each becomes its own scenario column "
                          "in the grid (default: the builder's default "
                          "load)")
    swp.add_argument("--seeds", default="0", metavar="S1,S2,...",
                     help="comma-separated scenario seeds")
    swp.add_argument("--workers", type=int, default=1,
                     help="persistent worker processes (1 = serial "
                          "reference path)")
    swp.add_argument("--out", help="write per-cell summary records "
                                   "(JSON) here")
    _add_knob_flags(swp)

    camp = sub.add_parser("campaign",
                          help="run a declarative campaign spec to a "
                               "report artifact")
    camp.add_argument("spec", nargs="?", default=None,
                      help="campaign preset name or path to a "
                           ".toml/.json spec file")
    camp.add_argument("--out-dir", default="campaign-out", metavar="DIR",
                      help="report artifact directory (default: "
                           "./campaign-out)")
    camp.add_argument("--workers", type=int, metavar="N",
                      help="override the spec's worker count")
    camp.add_argument("--list", action="store_true", dest="list_presets",
                      help="list the built-in campaign presets and exit")

    srv = sub.add_parser("serve", help="run the live admission service "
                                       "under synthetic open-loop load")
    srv.add_argument("--scheme", default="Pretium",
                     choices=SCHEMES.names())
    srv.add_argument("--scenario", default="tiny",
                     choices=SCENARIOS.names(),
                     help="world to price (topology/horizon) and the "
                          "arrival stream the load generator replays")
    srv.add_argument("--seed", type=int, default=0,
                     help="scenario seed (drives the arrival stream)")
    srv.add_argument("--rate", type=float, default=0.0, metavar="R",
                     help="offered load, requests/second of wall clock "
                          "(0 = as fast as backpressure admits)")
    srv.add_argument("--price-checks", type=int, default=0, metavar="N",
                     help="advisory quote probes per request (warm-cache "
                          "candidates after the first)")
    srv.add_argument("--batch-window", type=float, default=0.0,
                     metavar="SECS", help="micro-batch collection window")
    srv.add_argument("--batch-max", type=int, default=64, metavar="N",
                     help="max submissions per micro-batch")
    srv.add_argument("--cache-size", type=int, default=1024, metavar="N",
                     help="warm menu-cache entries (0 = cold quoting)")
    srv.add_argument("--quote-deadline", type=float, metavar="SECS",
                     help="per-request quote latency budget; spent "
                          "budgets degrade to current-price menus")
    srv.add_argument("--max-pending", type=int, default=1024, metavar="N",
                     help="backpressure bound on in-flight submissions")
    srv.add_argument("--out", help="write the load report + summary "
                                   "JSON here")
    _add_knob_flags(srv)

    fig = sub.add_parser("figure", help="regenerate a paper figure/table")
    fig.add_argument("id", choices=list(FIGURES),
                     help="figure number or 'table4'")
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--workers", type=int, default=1,
                     help="worker processes for the figures the "
                          "'figures' campaign preset runs (6, 8, 9, 11)")

    sub.add_parser("list-schemes", help="list evaluation scheme names")
    sub.add_parser("list-figures", help="list figure/table ids")

    tel = sub.add_parser("telemetry", help="inspect telemetry traces")
    tel_sub = tel.add_subparsers(dest="telemetry_command", required=True)
    rep = tel_sub.add_parser("report", help="aggregate a JSONL trace into "
                                            "a per-module runtime table")
    rep.add_argument("trace", help="trace file from run --telemetry")

    aud = tel_sub.add_parser("audit", help="replay a trace's request "
                                           "ledger and check invariants")
    aud.add_argument("trace", help="trace file from run --telemetry")
    aud.add_argument("--summary", metavar="PATH",
                     help="summary JSON (from run --out) to reconcile "
                          "revenue/welfare against (single-run traces "
                          "only)")

    tml = tel_sub.add_parser("timeline", help="print one request's "
                                              "economic history")
    tml.add_argument("trace", help="trace file from run --telemetry")
    tml.add_argument("rid", type=int, help="request id")
    tml.add_argument("--cell", type=int, metavar="INDEX",
                     help="restrict to one sweep cell of a merged trace "
                          "(request ids repeat across cells)")

    flm = tel_sub.add_parser("flame", help="span-tree self-time profile: "
                                           "collapsed-stack flamegraph "
                                           "lines or a ranking table")
    flm.add_argument("trace", help="trace file from run --telemetry")
    flm.add_argument("--format", default="collapsed",
                     choices=["collapsed", "table"],
                     help="collapsed: flamegraph.pl/speedscope input "
                          "(stack <microseconds>); table: spans ranked "
                          "by self time")
    flm.add_argument("--out", help="write here instead of stdout")
    return parser


def _add_knob_flags(parser: argparse.ArgumentParser) -> None:
    """The RunOptions flags shared by ``run``, ``sweep`` and ``serve``."""
    parser.add_argument("--solver-backend", choices=["scipy", "highs",
                                                     "auto"],
                        help="LP solver session backend: scipy (the "
                             "reference), highs (persistent highspy "
                             "session with warm starts; falls back to "
                             "scipy when highspy is absent), or auto "
                             "(default: scipy, or REPRO_SOLVER_BACKEND)")
    parser.add_argument("--solver-retries", type=int, metavar="N",
                        help="extra solve attempts after a transient "
                             "solver failure (default: 2)")
    parser.add_argument("--routing", choices=list(ROUTING_POLICIES),
                        help="routing policy for every scheme: kpaths "
                             "(static k-shortest paths, the reference), "
                             "ecmp (equal-cost min-hop spreading) or "
                             "flowlet (per-request hash onto one "
                             "candidate path, re-hashed when links "
                             "fail; default: kpaths)")
    parser.add_argument("--classes", metavar="MIX",
                        help="traffic-class mix for scenarios built by "
                             "name, e.g. 'qos3' (interactive/elastic/"
                             "background); overrides the scenario "
                             "builder's default mix")
    parser.add_argument("--link-kills", metavar="SPEC",
                        help="schedule link failures; SPEC is comma-"
                             "separated SRC>DST@START[-END] clauses, e.g. "
                             "'S>M1@3' (dynamic routing policies re-route "
                             "and re-hash around the dead link)")
    parser.add_argument("--faults", metavar="SPEC",
                        help="inject solver faults; SPEC is comma-separated "
                             "MODULE:KIND[@WHEN][xCOUNT] clauses, e.g. "
                             "'sam:solver@5x1,pc:timeout@24' (module ra|sam|"
                             "pc|*, kind solver|infeasible|timeout, when a "
                             "step, STEP-STEP range, * or pPROB)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for probabilistic fault rules")
    parser.add_argument("--telemetry", metavar="PATH",
                        help="write an audit-ready JSONL trace (spans for "
                             "lp.solve, ra, sam, pc, ... and the request "
                             "ledger) to PATH; a sweep merges its cells "
                             "into one trace")


def _options_from_args(args) -> RunOptions:
    """Build the run's :class:`RunOptions` from parsed CLI flags."""
    return RunOptions(
        solver_backend=args.solver_backend,
        solver_retries=args.solver_retries,
        routing=args.routing,
        classes=args.classes,
        faults=args.faults,
        fault_seed=args.fault_seed,
        link_kills=args.link_kills,
        telemetry=args.telemetry,
        workers=getattr(args, "workers", 1))


def _usage_error(exc: Exception) -> int:
    """Report a bad input value as one ``error:`` line; exit code 2."""
    detail = exc.args[0] if exc.args else exc
    print(f"error: {detail}", file=sys.stderr)
    return 2


def _parse_csv(raw: str, kind, what: str) -> list:
    try:
        values = [kind(item.strip()) for item in raw.split(",")
                  if item.strip()]
    except ValueError:
        raise ValueError(f"invalid {what} list: {raw!r}") from None
    if not values:
        raise ValueError(f"empty {what} list: {raw!r}")
    return values


def _cmd_generate(args) -> int:
    topology = wan_topology(n_nodes=args.nodes, n_regions=args.regions,
                            metered_cost=args.metered_cost, seed=args.seed)
    workload = build_workload(topology, n_days=args.days,
                              steps_per_day=args.steps_per_day,
                              load_factor=args.load,
                              values=NormalValues(1.0, 0.5), seed=args.seed)
    save_workload(workload, args.out)
    print(f"wrote {workload.n_requests} requests over {workload.n_steps} "
          f"steps to {args.out}")
    return 0


def _cmd_run(args) -> int:
    try:
        options = _options_from_args(args)
        if args.workload and args.classes:
            raise ValueError("--classes applies to scenarios built by name; "
                             "a --workload artifact carries its own classes")
    except (FaultSpecError, ValueError) as exc:
        return _usage_error(exc)
    if args.workload:
        try:
            workload = load_workload(args.workload)
        except (OSError, ValueError, KeyError) as exc:
            problem = f"missing key {exc}" if isinstance(exc, KeyError) \
                else exc
            return _usage_error(ValueError(
                f"cannot load workload {args.workload}: {problem}"))
        cost_model = LinkCostModel(workload.topology,
                                   billing_window=workload.steps_per_day)
        scenario = Scenario(workload.topology, workload, cost_model)
    else:
        # A spec, not a built scenario: api.run folds --classes into it.
        scenario = ScenarioSpec.of("standard", load_factor=args.load,
                                   seed=args.seed)
    try:
        report = api.run(args.scheme, scenario, options=options)
    except FaultSpecError as exc:    # a link kill on a link not in the world
        return _usage_error(exc)
    if args.telemetry:
        print(f"telemetry trace written to {args.telemetry}")
    if args.faults:
        injected = report.result.extras.get("faults_injected", 0)
        print(f"faults injected: {injected} ({args.faults})")
    record = report.summary
    rows = [[key, value] for key, value in record.items()
            if isinstance(value, (int, float, str))]
    print(format_table(["metric", "value"], rows))
    if args.out:
        save_summary(record, args.out)
        print(f"summary written to {args.out}")
    return 0


def _sweep_progress(done: int, total: int, result) -> None:
    """Live progress line: rewritten in place on a tty, one line per
    cell otherwise (CI logs stay readable)."""
    status = "ok" if result.ok else f"FAILED ({result.error})"
    line = (f"[{done}/{total}] {result.label}: {status} "
            f"in {result.duration:.1f}s")
    if sys.stderr.isatty():
        end = "\n" if done == total else ""
        print(f"\r\x1b[2K{line}", end=end, file=sys.stderr, flush=True)
    else:
        print(line, file=sys.stderr, flush=True)


def _cmd_sweep(args) -> int:
    try:
        schemes = _parse_csv(args.schemes, str, "scheme")
        seeds = _parse_csv(args.seeds, int, "seed")
        loads = _parse_csv(args.loads, float, "load") if args.loads else ()
        grid = SweepGrid(schemes=schemes, seeds=seeds,
                         scenarios=load_columns(args.scenario, loads))
        options = _options_from_args(args)
    except (FaultSpecError, KeyError, TypeError, ValueError) as exc:
        return _usage_error(exc)
    try:
        result = api.sweep(grid, options=options, progress=_sweep_progress)
    except FaultSpecError as exc:    # a link kill on a link not in a world
        return _usage_error(exc)
    cells = cell_table(result)
    print(format_table(cells["columns"], cells["rows"]))
    print(f"{len(result.cells)} cell(s), {len(result.failures)} failed, "
          f"{result.n_workers} worker(s), wall {result.wall_s:.1f}s")
    if args.telemetry:
        print(f"merged telemetry trace written to {result.trace_path}")
    if args.out:
        save_summary(result.summaries(), args.out)
        print(f"summaries written to {args.out}")
    return _report_failures(result.failures)


def _report_failures(failures) -> int:
    """Name each failed cell on stderr; the exit code is 1 if any."""
    for cell in failures:
        print(f"cell {cell.index} ({cell.label}) failed: {cell.error}: "
              f"{cell.detail}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_campaign(args) -> int:
    if args.list_presets:
        for name, raw in sorted(CAMPAIGN_PRESETS.items()):
            header = raw.get("campaign", {})
            print(f"{name}: {header.get('title', '')}")
        return 0
    if args.spec is None:
        print("error: pass a campaign preset name or spec path "
              "(see --list)", file=sys.stderr)
        return 2
    try:
        spec = campaign_spec(args.spec)
        options = (None if args.workers is None
                   else spec.options.replace(workers=args.workers))
    except (CampaignError, ValueError) as exc:
        return _usage_error(exc)
    total = sum(len(sweep.grid()) for sweep in spec.sweeps)
    print(f"campaign {spec.name!r}: {len(spec.sweeps)} sweep(s), "
          f"{total} cell(s), {len(spec.figures)} figure(s) -> "
          f"{args.out_dir}")
    try:
        result = api.campaign(spec, args.out_dir, options=options,
                              progress=_sweep_progress)
    except FaultSpecError as exc:    # a link kill on a link not in a world
        return _usage_error(exc)
    stages = stage_section(result)
    print(format_table(stages.columns, stages.rows))
    print(f"{result.n_cells} cell(s), {len(result.failures)} failed, "
          f"wall {result.wall_s:.1f}s, peak RSS (largest process) "
          f"{result.max_rss_mb:.0f} MB")
    print(f"report: {result.report_md}")
    print(f"report: {result.report_html}")
    print(f"machine-readable: {result.summary_path}")
    return _report_checks(result)


def _report_checks(result) -> int:
    """Print one line per check; exit 1 if a cell or a check failed."""
    for check in result.checks:
        print(f"check {check['name']}: {'pass' if check['ok'] else 'FAIL'} "
              f"({check['claim']}; worst slack {check['worst_slack']:.4g} "
              f"at {check['at']})")
    return _report_failures(result.failures) or int(
        not all(check["ok"] for check in result.checks))


def _cmd_serve(args) -> int:
    from .options import ServiceOptions
    from .service import generate_load
    from .telemetry import get_registry

    try:
        options = _options_from_args(args)
        service_options = ServiceOptions(
            batch_window=args.batch_window, batch_max=args.batch_max,
            cache_size=args.cache_size, quote_deadline=args.quote_deadline,
            max_pending=args.max_pending)
    except (FaultSpecError, ValueError) as exc:
        return _usage_error(exc)
    scenario = ScenarioSpec.of(args.scenario, seed=args.seed)
    try:
        svc = api.serve(args.scheme, scenario, options=options,
                        service_options=service_options)
    except FaultSpecError as exc:    # a link kill on a link not in the world
        return _usage_error(exc)
    with svc:
        # Replay the served world's own stream (built with --classes).
        requests = sorted(svc.scenario.workload.requests,
                          key=lambda r: (r.arrival, r.rid))
        print(f"serving {args.scheme} on {args.scenario} (seed "
              f"{args.seed}): {len(requests)} requests, rate="
              f"{'max' if args.rate <= 0 else args.rate}, "
              f"price_checks={args.price_checks}")
        report = generate_load(svc.service, requests, rate=args.rate,
                               price_checks=args.price_checks)
        cache = {name: get_registry().counter(name).value for name in (
            "service.menu_cache.hits", "service.menu_cache.misses",
            "service.menu_cache.invalidations")}
        summary = svc.summary()
    rows = []
    for key, value in dataclasses.asdict(report).items():
        if isinstance(value, dict):   # latency quantiles
            rows += [[f"{key}.{q}", v] for q, v in value.items()]
        else:
            rows.append([key, value])
    rows += [[f"cache_{key.rsplit('.', 1)[1]}", value]
             for key, value in cache.items()]
    print(format_table(["metric", "value"], rows))
    print(f"welfare {summary['welfare']:.2f}, payments "
          f"{summary['payments']:.2f} over {summary['n_requests']} requests")
    if args.telemetry:
        print(f"telemetry trace written to {args.telemetry}")
    if args.out:
        save_summary({"load": dataclasses.asdict(report), "cache": cache,
                      "summary": summary,
                      "service_options": dataclasses.asdict(service_options)},
                     args.out)
        print(f"service report written to {args.out}")
    return 1 if report.errors else 0


def _cmd_figure(args) -> int:
    generator = FIGURES[args.id]
    if isinstance(generator, tuple):
        return _campaign_figure(args, generator)
    if args.id == "2":
        rows = [[row.scheme, row.prices, row.welfare]
                for row in generator()["rows"]]
        print(format_table(["scheme", "prices", "welfare"], rows))
    else:
        print(json.dumps(generator(seed=args.seed), indent=2, default=str))
    return 0


def _campaign_figure(args, names: tuple[str, ...]) -> int:
    """Run the ``figures`` preset's slice for ``names``: their sweep at
    ``--seed``, the figures and the checks on them."""
    spec = campaign_spec("figures")
    figures = [figure for figure in spec.figures if figure.name in names]
    used = {figure.sweep for figure in figures}
    spec = dataclasses.replace(
        spec, figures=tuple(figures),
        sweeps=tuple(dataclasses.replace(sweep, seeds=(args.seed,))
                     for sweep in spec.sweeps if sweep.name in used),
        checks=tuple(check for check in spec.checks
                     if check.figure in names),
        options=spec.options.replace(workers=args.workers))
    with tempfile.TemporaryDirectory() as out_dir:
        result = api.campaign(spec, out_dir)
    for name in names:
        figure = result.figures[name]
        print(f"== figure {args.id} - {name}: {figure['caption']} ==")
        print(format_table(figure["columns"], figure["rows"]))
    return _report_checks(result)


def _print_names(names) -> int:
    print("\n".join(names))
    return 0


def _stream_trace(path: str):
    """Yield a JSONL trace's events for the telemetry subcommands.

    Corrupt lines are skipped (with a warning) so a torn trace still
    loads, but a non-empty file yielding *no* events at all is treated
    as "not a trace": once the file is read, ``ValueError`` is raised.
    """
    n_events = 0
    for event in iter_trace(path):
        n_events += 1
        yield event
    if not n_events and os.path.getsize(path) > 0:
        raise ValueError(f"{path} is not a JSONL trace "
                         "(no parseable events)")


def _request_events(events, rid: int, cell: int | None) -> list[dict]:
    """The ledger events ``telemetry timeline`` reads for ``rid``: the
    request's own and the run-level ones, in ``cell`` when given."""
    return [event for event in events
            if event.get("type") == "ledger"
            and (cell is None or event.get("cell") == cell)
            and (event.get("rid") is None or int(event["rid"]) == rid)]


def _cmd_telemetry(args) -> int:
    try:
        events = _stream_trace(args.trace)
        if args.telemetry_command == "audit":
            summary = None
            if args.summary:
                with open(args.summary, encoding="utf-8") as handle:
                    summary = json.load(handle)
            audit = api.audit(events, summary=summary)
            findings, failing = audit.findings, audit.unwaived
            if not findings:
                print("audit clean: all invariants hold")
                return 0
            # Merged sweep traces attribute findings to grid cells.
            with_cell = any(f.cell is not None for f in findings)
            rows = [([] if not with_cell
                     else ["" if f.cell is None else f.cell]) +
                    [f.check, "" if f.rid is None else f.rid,
                     "" if f.step is None else f.step,
                     "waived" if f.waived else "VIOLATION", f.detail]
                    for f in findings]
            header = (["cell"] if with_cell else []) + \
                ["check", "rid", "step", "status", "detail"]
            print(format_table(header, rows))
            print(f"{len(findings)} finding(s), {len(failing)} unwaived")
            return 1 if failing else 0
        if args.telemetry_command == "timeline":
            events = _request_events(events, args.rid, args.cell)
            where = args.trace if args.cell is None \
                else f"cell {args.cell} of {args.trace}"
            try:
                print(timeline(events, args.rid))
            except KeyError:
                print(f"error: no ledger events for request {args.rid} "
                      f"in {where}", file=sys.stderr)
                return 1
            return 0
        events = list(events)
        if not any(event.get("type") == "span" for event in events):
            raise ValueError(f"no span events in {args.trace} — run with "
                             "--telemetry to record spans")
        if args.telemetry_command == "report":
            print(report_trace(events))
            return 0
        if args.telemetry_command == "flame":
            payload = flame_report(events, fmt=args.format)
            if not args.out:
                print(payload, end="" if payload.endswith("\n") else "\n")
                return 0
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
            print(f"wrote {args.format} profile to {args.out}")
            return 0
    except FileNotFoundError:
        print(f"error: no such trace file: {args.trace}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(
        f"unhandled telemetry command {args.telemetry_command!r}")


#: Subcommand -> handler of its parsed arguments.
COMMANDS = {
    "generate-workload": _cmd_generate, "run": _cmd_run,
    "sweep": _cmd_sweep, "campaign": _cmd_campaign, "serve": _cmd_serve,
    "figure": _cmd_figure, "telemetry": _cmd_telemetry,
    "list-schemes": lambda args: _print_names(SCHEMES.names()),
    "list-figures": lambda args: _print_names(FIGURES),
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
