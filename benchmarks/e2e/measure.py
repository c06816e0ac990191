"""Measure one workload in this process (the child of :mod:`.cli`).

``--trace 0`` times the workload's entry point with nothing installed and
reports the end-to-end metrics; ``--trace 1`` alternates plain passes with
passes under the shims of :mod:`.shims` and reports the per-layer
metrics.  Either way the outputs are checked (:class:`Checks`) and the
record says how many operations were attempted and how many failed.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import subprocess
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

from . import loadgen, shims, stats

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Set-ups repeat until two are timed and two seconds have been spent on
#: them, so a 0.1 s build is timed ~15 times and an 8 s one twice.
SETUP_MIN_RUNS, SETUP_MIN_SECONDS, SETUP_MAX_RUNS = 2, 2.0, 15

#: Sweep pool size: both cores of the reference box, never more than there are.
WORKERS = min(2, os.cpu_count() or 1)

#: The service workloads' end-to-end latency, and the traced layer split,
#: are taken at the lowest of the three rates: there SAM / PC ticks hold
#: the loop for ~15 % of the pass, so the median is one RA call.  At the
#: higher rates a third or more of the requests queue behind a tick and
#: the median sits on the edge of that mass, where a 10 % slower box
#: moves it tenfold.
RATE_LABELS = ("rate_low", "rate_mid", "rate_high")
E2E_RATE = 0

KIND = {"wan106-busy": "batch", "dense16-bursty": "batch",
        "dense16-audited": "batch", "service-admit": "service",
        "service-browse": "service", "fig6-sweep": "sweep"}


class Checks:
    """Named correctness checks; the run is correct when all hold."""

    def __init__(self) -> None:
        self.items: list[dict] = []
        #: welfare / admitted / rejected of the first pass: what
        #: ``expected.json`` pins for seed 0.
        self.fingerprint: dict = {}

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append({"check": name, "ok": bool(ok),
                           "detail": "" if ok else detail})

    @property
    def ok(self) -> bool:
        return all(item["ok"] for item in self.items)


def timed_setups(build):
    """``(last build, seconds of each build)``."""
    times: list[float] = []
    while len(times) < SETUP_MIN_RUNS or (
            sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_RUNS):
        start = perf_counter()
        built = build()
        times.append(perf_counter() - start)
    return built, times


def repeat_for(seconds: float, one_pass, min_runs: int = 2) -> list:
    """Run ``one_pass`` until another would overrun ``seconds``.

    ``one_pass`` returns a mapping with its own ``"wall_s"``; the time
    between passes (checks, bookkeeping) also counts against the budget.
    """
    passes: list = []
    begin = perf_counter()
    while len(passes) < min_runs or (
            perf_counter() - begin
            + median([p["wall_s"] for p in passes]) <= seconds):
        passes.append(one_pass())
    return passes


def header(seed: int) -> dict:
    import numpy
    import scipy
    from repro.core.config import PretiumConfig
    from repro.lp import HIGHSPY_AVAILABLE
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "highspy_available": bool(HIGHSPY_AVAILABLE),
            "solver_backend": PretiumConfig().solver_backend,
            "seed": seed, "commit": commit}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- shared by the batch and service workloads ---------------------------------

def _fingerprint(result, summary: dict) -> dict:
    """What must be bit-identical between passes (and pinned at seed 0)."""
    return {"welfare": summary["welfare"],
            "admitted": len(result.chosen),
            "rejected": result.workload.n_requests - len(result.chosen),
            "chosen": dict(result.chosen)}


def _run_failures(result) -> int:
    """Requests or steps the engine or the scheme could not serve."""
    return (len(result.extras.get("failures", ()))
            + len(result.extras.get("degradation", ())))


def check_pins(checks: Checks, name: str, seed: int, smoke: bool,
               fingerprint: dict) -> None:
    """Seed 0 at full size is pinned in ``expected.json`` (rel. 1e-9)."""
    checks.fingerprint = {key: fingerprint[key]
                          for key in ("welfare", "admitted", "rejected")}
    if seed != 0 or smoke:
        return
    pinned = json.loads(EXPECTED_PATH.read_text()).get(name)
    if pinned is None:
        checks.expect("pinned", False, f"expected.json has no entry for {name}")
        return
    for key, want in pinned.items():
        got = fingerprint[key]
        checks.expect(f"pinned.{key}",
                      abs(got - want) <= 1e-9 * max(1.0, abs(want)),
                      f"{key}: got {got!r}, expected.json says {want!r}")


def _ms(seconds_list) -> list[float]:
    return [s * 1e3 for s in seconds_list]


def scheme_layer_metrics(spans, counters: dict) -> dict:
    """RA / SAM / PC / lp / sim numbers of one traced Pretium pass."""
    named = shims.by_name(spans)

    def dur(name):
        return shims.durations(named.get(name, ()))

    out: dict[str, float] = {}
    arrivals, steps, updates = dur("scheme.arrival"), dur("scheme.step"), dur("pc.update")
    out["ra.calls"] = len(arrivals)
    out["ra.busy_s"] = sum(arrivals)
    if arrivals:
        out["ra.p50_ms"] = stats.percentile(arrivals, 50) * 1e3
        out["ra.tail_ms"] = stats.tail(arrivals)[0] * 1e3
    out["ra.quote_s"] = sum(dur("ra.quote"))
    out["ra.admit_s"] = sum(dur("ra.admit"))
    out["sam.steps"] = len(steps)
    out["sam.busy_s"] = sum(steps)
    if steps:
        out["sam.p50_ms"] = stats.percentile(steps, 50) * 1e3
        out["sam.max_ms"] = max(steps) * 1e3
        out["sam.fast_path_ratio"] = counters.get("sam.fast_path.hits", 0) / len(steps)
    out["sam.adjust_s"] = sum(dur("sam.adjust"))
    out["sam.install_plan_s"] = sum(dur("sam.install_plan"))
    lookups = counters.get("sam.skeleton.hits", 0) + counters.get("sam.skeleton.misses", 0)
    if lookups:
        out["sam.skeleton_hit_ratio"] = counters.get("sam.skeleton.hits", 0) / lookups
    out["pc.updates"] = len(updates)
    out["pc.busy_s"] = sum(updates)
    if updates:
        out["pc.max_ms"] = max(updates) * 1e3
    solves = named.get("lp.solve", ())
    out["lp.solves"] = len(solves)
    out["lp.solve_s"] = sum(shims.durations(solves))
    out["lp.build_s"] = out["sam.adjust_s"] + out["pc.busy_s"] - out["lp.solve_s"]
    if solves:
        out["lp.vars_max"] = max(span[5]["vars"] for span in solves)
        out["lp.rows_max"] = max(span[5]["rows"] for span in solves)
    out["lp.warm_starts"] = counters.get("lp.session.warm_starts", 0)
    out["lp.cold_starts"] = counters.get("lp.session.cold_starts", 0)
    out["lp.retries"] = counters.get("resilience.retries", 0)
    out["sim.apply_s"] = sum(dur("sim.apply"))
    out["sim.settle_s"] = sum(dur("sim.settle"))
    out["sim.summarize_s"] = sum(dur("sim.summarize"))
    return out


def layer_partition(spans) -> dict:
    """Per-layer self seconds over the traced set-up and one traced pass,
    and how far their sum is from the two root spans' wall."""
    own = shims.layer_self_times(spans)
    wall = sum(end - start for _i, parent, _n, start, end, _a in spans
               if parent is None)
    out = {f"{layer}.self_s": seconds for layer, seconds in own.items()}
    out["harness.partition_error"] = abs(sum(own.values()) - wall) / wall
    return out


def setup_layer_metrics(spans) -> dict:
    """traffic / network numbers of one traced scenario build."""
    named = shims.by_name(spans)

    def total(name):
        return sum(shims.durations(named.get(name, ())))

    ksp = len(named.get("network.ksp", ()))
    out = {"traffic.synthesize_tm_s": total("traffic.synthesize_tm"),
           "traffic.calibrate_s": total("traffic.calibrate"),
           "traffic.synthesize_requests_s": total("traffic.synthesize_requests"),
           "network.topology_s": total("network.topology"),
           "network.ksp_calls": ksp,
           "network.ksp_s": total("network.ksp")}
    if ksp:
        out["network.graph_builds_per_ksp"] = \
            len(named.get("network.to_networkx", ())) / ksp
    return out


def median_of(records: list[dict]) -> dict:
    """Per-key median over the passes that reported the key."""
    keys = {key for record in records for key in record}
    return {key: median([r[key] for r in records if key in r])
            for key in keys}


# -- batch: repro.run("Pretium", scenario) ---------------------------------------

def _batch_pass(scenario, audited: bool, scratch: Path) -> dict:
    import repro
    options = None
    trace = scratch / "trace.jsonl"
    if audited:
        options = repro.RunOptions(telemetry=trace)
    start = perf_counter()
    report = repro.run("Pretium", scenario, options=options)
    wall = perf_counter() - start
    out = {"wall_s": wall,
           "ra_s": list(report.result.extras["runtimes"].ra),
           "fingerprint": _fingerprint(report.result, report.summary),
           "failures": _run_failures(report.result),
           "n_requests": scenario.workload.n_requests}
    if audited:
        audit = repro.audit(trace, summary=report.summary)
        out.update(unwaived=len(audit.unwaived), events=audit.n_events,
                   trace_mb=trace.stat().st_size / 2 ** 20)
        trace.unlink()
    return out


def _check_batch(checks: Checks, name, seed, smoke, passes) -> tuple[int, int]:
    first = passes[0]["fingerprint"]
    checks.expect("repeats_identical",
                  all(p["fingerprint"] == first for p in passes[1:]),
                  "welfare or chosen volumes differ between passes")
    failures = sum(p["failures"] for p in passes)
    checks.expect("no_engine_failures", failures == 0,
                  f"{failures} engine failures or degraded quotes")
    audits = [p["unwaived"] for p in passes if "unwaived" in p]
    if audits:
        checks.expect("audit_clean", max(audits) == 0,
                      f"{max(audits)} unwaived audit findings")
    check_pins(checks, name, seed, smoke, first)
    return sum(p["n_requests"] for p in passes), failures


def batch_untraced(name, p, seed, seconds, smoke, scratch, checks):
    from . import workloads
    audited = name == "dense16-audited"
    scenario, setups = timed_setups(lambda: workloads.build(seed, **p))
    passes = repeat_for(seconds, lambda: _batch_pass(scenario, audited, scratch))
    attempted, failed = _check_batch(checks, name, seed, smoke, passes)
    metrics = {
        "setup_s": (median(setups), len(setups), ""),
        "run_wall_s": (median([p["wall_s"] for p in passes]), len(passes), ""),
        "op_p50_ms": (median([median(_ms(p["ra_s"])) for p in passes]),
                      len(passes[0]["ra_s"]), "one arrival through RA"),
    }
    return metrics, attempted, failed


def batch_traced(name, p, seed, seconds, smoke, scratch, checks):
    from repro.telemetry import use_registry

    from . import workloads
    audited = name == "dense16-audited"
    recorder = shims.Recorder()
    with shims.installed(recorder), recorder.span("setup", root=True):
        scenario = workloads.build(seed, **p)
    setup_spans = list(recorder.spans)
    layer = setup_layer_metrics(setup_spans)

    plain, bare, traced, traced_layers = [], [], [], []
    begin = perf_counter()
    while not traced or perf_counter() - begin + (
            plain[-1]["wall_s"] + traced[-1]["wall_s"]) <= seconds:
        plain.append(_batch_pass(scenario, audited, scratch))
        if audited:
            bare.append(_batch_pass(scenario, False, scratch))
        mark = len(recorder.spans)
        with use_registry() as registry, shims.installed(recorder), \
                recorder.span("run", root=True):
            traced.append(_batch_pass(scenario, audited, scratch))
        spans = recorder.spans[mark:]
        counters = registry.dump()["counters"]
        numbers = scheme_layer_metrics(spans, counters)
        numbers.update(layer_partition(setup_spans + spans))
        # The root span closes last; its self time is the engine's loop.
        numbers["sim.loop_self_s"] = shims.self_times(spans)[spans[-1][0]]
        offered = traced[-1]["n_requests"]
        numbers["ra.admit_ratio"] = traced[-1]["fingerprint"]["admitted"] / offered
        if audited:
            named = shims.by_name(spans)
            numbers.update({
                "telemetry.events": traced[-1]["events"],
                "telemetry.trace_mb": traced[-1]["trace_mb"],
                "telemetry.read_trace_s": sum(shims.durations(named["telemetry.read_trace"])),
                "telemetry.audit_s": sum(shims.durations(named["telemetry.audit"])),
                "telemetry.findings_unwaived": traced[-1]["unwaived"]})
        traced_layers.append(numbers)
    attempted, failed = _check_batch(checks, name, seed, smoke, plain + bare + traced)
    layer.update(median_of(traced_layers))
    plain_wall = median([p["wall_s"] for p in plain])
    layer["harness.shim_overhead_ratio"] = \
        median([p["wall_s"] for p in traced]) / plain_wall
    if audited:
        layer["telemetry.overhead_ratio"] = \
            plain_wall / median([p["wall_s"] for p in bare])
    recorder.write(scratch.parent / f"{name}.spans.jsonl",
                   setup_spans + spans, run=f"{name}:{seed}")
    return layer, attempted, failed


# -- service: repro.serve + the open-loop generator --------------------------------

def _customers(name, scenario) -> list:
    """Each customer's operations, in the order the generator sends them."""
    from . import workloads
    if name == "service-browse":
        n_steps = scenario.workload.n_steps
        return [[("quote", variant)
                 for variant in workloads.browse_variants(request, n_steps)]
                + [("admit", request)]
                for request in scenario.workload.requests]
    return [[("admit", request)] for request in scenario.workload.requests]


def _service_pass(customers, scenario, rate: float) -> dict:
    import repro
    start = perf_counter()
    with repro.serve("Pretium", scenario) as handle:
        phase = loadgen.replay(handle, customers, rate)
    summary = handle.summary()
    return {"wall_s": perf_counter() - start, "phase": phase,
            "fingerprint": _fingerprint(handle.result, summary),
            "failures": _run_failures(handle.result)}


def _batch_reference(scenario) -> dict:
    """``simulate()`` on the same stream: the decisions a replay must match."""
    import repro
    start = perf_counter()
    report = repro.run("Pretium", scenario)
    return {"wall_s": perf_counter() - start,
            "fingerprint": _fingerprint(report.result, report.summary)}


def _check_service(checks, name, seed, smoke, passes, reference):
    want = reference["fingerprint"]
    checks.expect("decisions_equal_batch",
                  all(p["fingerprint"] == want for p in passes),
                  "a replay's welfare or chosen volumes differ from simulate()")
    failed = sum(p["phase"].failed + p["phase"].degraded + p["failures"]
                 for p in passes)
    checks.expect("all_answered", failed == 0,
                  f"{failed} operations failed, were refused or degraded")
    check_pins(checks, name, seed, smoke, want)
    return sum(p["phase"].operations for p in passes), failed


def _within_limit(phase, limit_ms: float) -> float:
    """Share of the customers *sent* whose admission met the limit."""
    return sum(1 for ms in phase.admit_ms if ms <= limit_ms) / phase.customers


def service_untraced(name, p, seed, seconds, smoke, scratch, checks):
    from . import workloads
    rate = p["rates"][E2E_RATE]
    scenario, setups = timed_setups(lambda: workloads.build(seed, **p))
    reference = _batch_reference(scenario)
    customers = _customers(name, scenario)
    paced, unpaced = [], []
    begin = perf_counter()
    while not paced or perf_counter() - begin + round_s <= seconds:
        round_begin = perf_counter()
        paced.append(_service_pass(customers, scenario, rate))
        # The unpaced replay is a second or two: three of them, so that
        # run_wall_s is a median and not one draw.
        unpaced.extend(_service_pass(customers, scenario, 0.0) for _ in range(3))
        round_s = perf_counter() - round_begin
    attempted, failed = _check_service(checks, name, seed, smoke,
                                       paced + unpaced, reference)
    metrics = {
        "setup_s": (median(setups), len(setups), ""),
        "run_wall_s": (median([q["wall_s"] for q in unpaced]), len(unpaced),
                       "unpaced replay"),
        "op_p50_ms": (median([median(q["phase"].admit_ms) for q in paced]),
                      len(paced[0]["phase"].admit_ms),
                      f"submit from due time at {rate:g}/s"),
    }
    return metrics, attempted, failed


def _registry_numbers(registry) -> dict:
    """The service's own histograms and counters for one pass."""
    snapshot = registry.snapshot()

    def hist(name, key):
        return snapshot.get(name, {}).get(key, 0.0)

    hits = snapshot.get("service.menu_cache.hits", 0)
    misses = snapshot.get("service.menu_cache.misses", 0)
    batches = snapshot.get("service.batch_size", {})
    return {
        "service.queue_p50_ms": hist("service.queue_ms", "p50"),
        "service.queue_p99_ms": hist("service.queue_ms", "p99"),
        "service.service_p50_ms": hist("service.service_ms", "p50"),
        "service.service_p99_ms": hist("service.service_ms", "p99"),
        "service.batch_mean": (batches["sum"] / batches["count"]
                               if batches.get("count") else 0.0),
        "service.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.cache_invalidations": snapshot.get("service.menu_cache.invalidations", 0),
        "service.overloaded": snapshot.get("service.overloaded", 0),
        "service.degraded": snapshot.get("service.degraded", 0),
    }


def service_traced(name, p, seed, seconds, smoke, scratch, checks):
    from repro.telemetry import use_registry

    from . import workloads
    recorder = shims.Recorder()
    with shims.installed(recorder), recorder.span("setup", root=True):
        scenario = workloads.build(seed, **p)
    setup_spans = list(recorder.spans)
    layer = setup_layer_metrics(setup_spans)
    reference = _batch_reference(scenario)
    customers = _customers(name, scenario)
    plain = _service_pass(customers, scenario, 0.0)

    passes, max_ok = {}, 0.0
    for label, rate in zip((*RATE_LABELS, "unpaced"), (*p["rates"], 0.0)):
        mark = len(recorder.spans)
        with use_registry() as registry, shims.installed(recorder), \
                recorder.span("service.pass", root=True):
            passes[label] = _service_pass(customers, scenario, rate)
        phase = passes[label]["phase"]
        if rate:
            share = _within_limit(phase, workloads.LIMIT_MS)
            layer[f"service.{label}.tail_ms"] = stats.tail(phase.admit_ms)[0]
            layer[f"service.{label}.within_limit_share"] = share
            if share >= workloads.OK_SHARE and \
                    not phase.backlog_grew(workloads.LIMIT_MS / 1e3):
                max_ok = max(max_ok, rate)
        if label == RATE_LABELS[E2E_RATE]:
            spans = recorder.spans[mark:]
            layer.update(scheme_layer_metrics(spans, registry.dump()["counters"]))
            layer.update(layer_partition(setup_spans + spans))
            layer.update(_registry_numbers(registry))
            named = shims.by_name(spans)
            layer["service.tick_block_s"] = sum(shims.durations(
                list(named.get("scheme.step", ())) + list(named.get("scheme.window_start", ()))))
            layer["service.queue_depth_max"] = phase.depth_max
            layer["service.backlog_end"] = phase.depth_end
            layer["service.generator_late_p99_ms"] = stats.percentile(phase.late_ms, 99)
            if phase.quote_ms:
                layer["service.quote_p50_ms"] = median(phase.quote_ms)
            layer["ra.admit_ratio"] = \
                passes[label]["fingerprint"]["admitted"] / phase.customers
            split_spans = spans
    unpaced = passes["unpaced"]
    layer["service.max_ok_rps"] = max_ok
    layer["service.saturation_rps"] = unpaced["phase"].customers / unpaced["wall_s"]
    layer["service.vs_batch_ratio"] = plain["wall_s"] / reference["wall_s"]
    layer["harness.shim_overhead_ratio"] = unpaced["wall_s"] / plain["wall_s"]
    attempted, failed = _check_service(checks, name, seed, smoke,
                                       [plain, *passes.values()], reference)
    recorder.write(scratch.parent / f"{name}.spans.jsonl",
                   setup_spans + split_spans, run=f"{name}:{seed}")
    return layer, attempted, failed


# -- sweep: repro.sweep over the Figure 6 grid ---------------------------------------

def _grid(p, seed):
    import repro

    from . import workloads
    workloads.register_sweep_scenario()
    return {"schemes": list(workloads.SWEEP_SCHEMES),
            "scenarios": [repro.ScenarioSpec.of(workloads.SWEEP_SCENARIO,
                                                load_factor=lf, size=p["size"])
                          for lf in p["load_factors"]],
            "seeds": [seed]}


def _sweep_pass(grid) -> dict:
    import repro
    start = perf_counter()
    result = repro.sweep(grid, options=repro.RunOptions(workers=WORKERS))
    return {"wall_s": perf_counter() - start, "result": result,
            "welfare": [cell.summary["welfare"] if cell.ok else None
                        for cell in result.cells]}


def _check_sweep(checks, name, seed, smoke, passes) -> tuple[int, int]:
    cells = [cell for p in passes for cell in p["result"].cells]
    bad = [cell.label for cell in cells if not cell.ok or cell.n_failures]
    checks.expect("all_cells_ok", not bad, f"failed cells: {bad[:3]}")
    checks.expect("repeats_identical",
                  all(p["welfare"] == passes[0]["welfare"] for p in passes[1:]),
                  "cell welfare differs between passes")
    first = passes[0]["result"]
    if not bad:
        pretium = [c for c in first.cells if c.scheme == "Pretium"]
        check_pins(checks, name, seed, smoke, {
            "welfare": sum(c.summary["welfare"] for c in pretium),
            "admitted": sum(len(c.chosen) for c in pretium),
            "rejected": sum(c.summary["n_requests"] - len(c.chosen) for c in pretium)})
    return len(cells), len(bad)


def _sweep_setup(p, seed):
    from . import workloads
    return [workloads.sweep_scenario(seed, load_factor=lf, size=p["size"])
            for lf in p["load_factors"]]


def sweep_untraced(name, p, seed, seconds, smoke, scratch, checks):
    _, setups = timed_setups(lambda: _sweep_setup(p, seed))
    grid = _grid(p, seed)
    passes = repeat_for(seconds, lambda: _sweep_pass(grid))
    attempted, failed = _check_sweep(checks, name, seed, smoke, passes)
    cell_ms = [[cell.duration * 1e3 for cell in p["result"].cells] for p in passes]
    metrics = {
        "setup_s": (median(setups), len(setups),
                    "the grid's scenarios, built once here; cells rebuild them"),
        "run_wall_s": (median([p["wall_s"] for p in passes]), len(passes),
                       f"{WORKERS} workers"),
        "op_p50_ms": (median([median(ms) for ms in cell_ms]),
                      len(cell_ms[0]), "one cell"),
    }
    return metrics, attempted, failed


def sweep_traced(name, p, seed, seconds, smoke, scratch, checks):
    recorder = shims.Recorder()
    with shims.installed(recorder), recorder.span("setup", root=True):
        _sweep_setup(p, seed)
    layer = setup_layer_metrics(list(recorder.spans))
    grid = _grid(p, seed)
    # No shim crosses a process boundary: the sweep's numbers come from
    # what each CellResult carries home.
    def traced_pass():
        with recorder.span("sweep", root=True):
            return _sweep_pass(grid)

    passes = repeat_for(seconds, traced_pass, min_runs=1)
    attempted, failed = _check_sweep(checks, name, seed, smoke, passes)
    records = []
    for one in passes:
        result = one["result"]
        durations = [cell.duration for cell in result.cells]
        fleet = result.fleet_metrics().snapshot()
        hits = fleet.get("sweep.scenario_cache.hits", 0)
        misses = fleet.get("sweep.scenario_cache.misses", 0)
        record = {
            "sweep.cells": len(result.cells),
            "sweep.failed_cells": len(result.failures),
            "sweep.sum_cell_s": sum(durations),
            "sweep.pool_efficiency": sum(durations) / (result.n_workers * one["wall_s"]),
            "sweep.slowest_cell_s": max(durations),
            "sweep.scenario_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "lp.cold_starts": fleet.get("lp.session.cold_starts", 0),
            "lp.warm_starts": fleet.get("lp.session.warm_starts", 0),
            "sweep.wall_s": one["wall_s"],
        }
        for scheme in grid["schemes"]:
            record[f"baselines.{scheme}_s"] = sum(
                cell.duration for cell in result.cells if cell.scheme == scheme)
        records.append(record)
    layer.update(median_of(records))
    layer["harness.shim_overhead_ratio"] = 1.0
    recorder.write(scratch.parent / f"{name}.spans.jsonl", run=f"{name}:{seed}")
    return layer, attempted, failed


# -- entry ---------------------------------------------------------------------------

MEASURE = {("batch", False): batch_untraced, ("batch", True): batch_traced,
           ("service", False): service_untraced, ("service", True): service_traced,
           ("sweep", False): sweep_untraced, ("sweep", True): sweep_traced}


def run_child(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
              out_dir: Path) -> dict:
    """Measure ``name`` here and now; the record :mod:`.cli` prints."""
    begin = perf_counter()
    from . import workloads
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}.", dir=out_dir))
    checks = Checks()
    kind = KIND[name]
    measure = MEASURE[kind, bool(trace)]
    try:
        # One toy pass of the same kind first, so lazy imports (scipy's
        # HiGHS, asyncio, the trace writer) and the pool's fork server
        # are not billed to the first timed pass.
        toy = workloads.params(name, smoke=True)
        if kind == "batch":
            _batch_pass(workloads.build(seed, **toy), name == "dense16-audited", scratch)
        elif kind == "service":
            toy_scenario = workloads.build(seed, **toy)
            _service_pass(_customers(name, toy_scenario), toy_scenario, 0.0)
        else:
            _sweep_pass(_grid(toy, seed))
        import_s = perf_counter() - begin
        numbers, attempted, failed = measure(name, workloads.params(name, smoke),
                                             seed, seconds, smoke, scratch, checks)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    if trace:
        numbers["harness.import_s"] = import_s
        unknown = sorted(set(numbers) - {m["name"] for m in wanted})
        if unknown:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        metrics = {m["name"]: {"value": float(numbers.get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in wanted}
    else:
        numbers["peak_rss_mb"] = (peak_rss_mb(), 1, "")
        metrics = {}
        for m in wanted:
            value, n, note = numbers[m["name"]]
            metrics[m["name"]] = {"value": float(value), "unit": m["unit"], "n": n}
            if note:
                metrics[m["name"]]["note"] = note
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "smoke": smoke,
            "correct": checks.ok, "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics,
            "checks": checks.items, "fingerprint": checks.fingerprint, "header": header(seed),
            "elapsed_s": perf_counter() - begin}
