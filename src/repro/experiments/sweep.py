"""Process-parallel sweeps over the scheme × scenario × seed grid.

The paper's evaluation (§6) is a grid: ~10 schemes, several scenarios,
multiple seeds.  Serial execution pays the full sum of wall-clock; this
module shards the grid across a pool of **persistent worker processes**
while keeping results bit-identical to the serial reference path:

- **cells travel as specs** — a :class:`SweepCell` carries a picklable
  :class:`~repro.experiments.runner.SchemeSpec` and
  :class:`~repro.experiments.scenarios.ScenarioSpec` plus a seed; the
  worker rebuilds scenario and scheme deterministically, so a 4-worker
  sweep is bit-identical to the serial path (both run :func:`run_cell`);
- **workers are persistent and warm** — the pool is created once per
  sweep with a forkserver (where the platform offers it) that preloads
  this module, so workers fork with numpy/scipy/repro already imported
  instead of paying a cold interpreter start per task; run options and
  the trace base ship **once** through the pool initializer, so a task
  pickles only its cells;
- **scenarios build once per worker** — :func:`cached_scenario` keys a
  small per-process LRU on ``(ScenarioSpec, seed)``; the first cell of
  a (scenario, seed) column pays the build, every later cell on the
  same worker reuses it.  Reuse is safe because runs never mutate the
  scenario (schemes construct a fresh ``NetworkState`` in ``begin()``),
  a property the persistent-sweep differential suite and a hypothesis
  equivalence test pin down;
- **per-cell telemetry shards** — with ``options.telemetry`` set each
  cell writes its own JSONL shard, every event stamped with the cell id
  and worker pid (:class:`~repro.telemetry.TagSink`); shards are merged
  in cell order into one trace whose request ledger still balances
  (``telemetry audit`` partitions it by the ``cell`` tag).  With **no**
  sink configured, no shard path is derived and the per-cell
  ``run_context`` short-circuits past the tracer machinery entirely;
- **structured failure capture** — an exception inside a cell yields a
  :class:`CellResult` with ``ok=False`` and the error recorded; a
  **worker process death** breaks the whole pool (every in-flight and
  queued future raises), so the cells of broken tasks are retried one
  cell at a time in fresh single-worker pools: innocent cells complete
  normally and only the cell that actually kills its worker is marked
  failed — one dying chunk never takes its chunk-mates (or the rest of
  the grid) down with it;
- **live progress** — a ``progress(done, total, result)`` callback
  fires exactly once per *cell* (never per chunk, never twice through
  the death-recovery path) as results become final;
- **chunked submission** — cells are shipped to workers in contiguous
  chunks (one pool task runs :func:`run_cell` over each cell in turn),
  so on grids of small cells the per-task pickle/IPC round-trip is paid
  once per chunk instead of once per cell.  ``options.chunk_size``
  forces the size; the default sizes chunks adaptively from the grid
  and worker count.  Chunking changes scheduling only: every cell still
  runs through :func:`run_cell` with the same arguments, so a chunked
  sweep is bit-identical to serial.

Determinism note: cells are *submitted* in grid order and *collected*
as they finish, but results are reassembled by cell index, and each
cell's RNG state derives only from its own specs — nothing observable
depends on scheduling.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from ..options import RunOptions
from ..sim import summarize
from ..telemetry import get_registry, merge_traces, use_registry
from ..telemetry.fleet import fleet_registry_from_cells
from .runner import SchemeSpec, run_scheme, scheme_spec
from .scenarios import Scenario, ScenarioSpec


@dataclass(frozen=True)
class SweepCell:
    """One (scheme, scenario, seed[, routing]) grid point, picklable
    end-to-end.  ``routing=None`` means "whatever the run options say"
    — the pre-routing grids pickle and label exactly as before."""

    index: int
    scheme: SchemeSpec
    scenario: ScenarioSpec
    seed: int
    routing: str | None = None

    @property
    def label(self) -> str:
        base = f"{self.scheme.name}/{self.scenario.label}/seed={self.seed}"
        if self.routing is not None:
            base += f"/routing={self.routing}"
        return base


class SweepGrid:
    """The cartesian grid of an evaluation sweep.

    ``schemes`` accepts registry names or :class:`SchemeSpec` objects;
    ``scenarios`` accepts builder names or :class:`ScenarioSpec`
    objects.  Built :class:`~repro.experiments.scenarios.Scenario`
    instances are deliberately rejected — cells must be cheap to pickle
    into worker processes, and a spec rebuilt from its seed is exactly
    as deterministic.  ``routings`` adds an optional routing-policy axis
    (names from :data:`repro.network.ROUTING_POLICIES`); the default
    single ``None`` entry leaves routing to the run options, so grids
    that don't ask for the axis are unchanged.
    """

    def __init__(self, schemes: Iterable, scenarios: Iterable = ("standard",),
                 seeds: Iterable[int] = (0,),
                 routings: Iterable = (None,)) -> None:
        from ..network import ROUTING_POLICIES
        self.schemes = tuple(scheme_spec(s) for s in schemes)
        self.scenarios = tuple(self._as_scenario_spec(s) for s in scenarios)
        self.seeds = tuple(int(s) for s in seeds)
        self.routings = tuple(routings)
        if not self.schemes:
            raise ValueError("a sweep needs at least one scheme")
        if not self.scenarios:
            raise ValueError("a sweep needs at least one scenario")
        if not self.seeds:
            raise ValueError("a sweep needs at least one seed")
        if not self.routings:
            raise ValueError("a sweep needs at least one routing entry "
                             "(None = defer to the run options)")
        for routing in self.routings:
            if routing is not None and routing not in ROUTING_POLICIES:
                raise ValueError(f"unknown routing policy {routing!r}; "
                                 f"expected one of {list(ROUTING_POLICIES)} "
                                 "or None")

    @staticmethod
    def _as_scenario_spec(scenario) -> ScenarioSpec:
        if isinstance(scenario, ScenarioSpec):
            return scenario
        if isinstance(scenario, str):
            return ScenarioSpec.of(scenario)
        raise TypeError(
            f"scenarios must be names or ScenarioSpec objects, not "
            f"{type(scenario).__name__}: sweep cells are shipped to "
            "worker processes as picklable specs, not built scenarios")

    def cells(self) -> list[SweepCell]:
        """Grid cells in deterministic order (scenario, seed, routing,
        scheme)."""
        out = []
        for scenario in self.scenarios:
            for seed in self.seeds:
                for routing in self.routings:
                    for scheme in self.schemes:
                        out.append(SweepCell(index=len(out), scheme=scheme,
                                             scenario=scenario, seed=seed,
                                             routing=routing))
        return out

    def __len__(self) -> int:
        return (len(self.schemes) * len(self.scenarios) * len(self.seeds)
                * len(self.routings))


@dataclass
class CellResult:
    """Outcome of one grid cell — a completed run or a captured failure.

    A successful cell carries everything the determinism suite and the
    figures need (summary record, per-request delivered/payments/chosen,
    the realised load grid) without shipping the workload back from the
    worker.  A failed cell (``ok=False``) records the exception type,
    message and traceback instead — one crashed cell never kills the
    sweep.  ``cache_hit`` says whether the cell reused its worker's
    cached scenario build (observability for the persistent-worker perf
    story; it never affects results).
    """

    index: int
    scheme: str
    scenario: str
    seed: int
    ok: bool
    summary: dict | None = None
    delivered: dict[int, float] = field(default_factory=dict)
    payments: dict[int, float] = field(default_factory=dict)
    chosen: dict[int, float] = field(default_factory=dict)
    loads: np.ndarray | None = None
    n_failures: int = 0
    error: str | None = None
    detail: str | None = None
    traceback: str | None = None
    worker: int = 0
    duration: float = 0.0
    trace_path: str | None = None
    cache_hit: bool = False
    metrics: dict = field(default_factory=dict)
    routing: str | None = None

    @property
    def label(self) -> str:
        base = f"{self.scheme}/{self.scenario}/seed={self.seed}"
        if self.routing is not None:
            base += f"/routing={self.routing}"
        return base


@dataclass
class SweepResult:
    """Every cell outcome of one sweep, in grid order."""

    cells: list[CellResult]
    trace_path: str | None = None
    wall_s: float = 0.0
    n_workers: int = 1

    @property
    def failures(self) -> list[CellResult]:
        return [cell for cell in self.cells if not cell.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def fleet_metrics(self):
        """The fleet-wide metrics registry merged from every cell.

        Each cell carries its worker's registry dump
        (``CellResult.metrics``); this merges them — counters sum,
        histograms merge by bucket, gauges stay per-worker — into one
        fresh :class:`~repro.telemetry.MetricsRegistry` covering the
        whole pool, regardless of how cells were scheduled.
        """
        return fleet_registry_from_cells(self.cells)

    def summaries(self) -> list[dict]:
        """JSON-friendly per-cell records (summary + cell identity)."""
        out = []
        for cell in self.cells:
            record = {"cell": cell.index, "scheme": cell.scheme,
                      "scenario": cell.scenario, "seed": cell.seed,
                      "ok": cell.ok, "duration_s": cell.duration}
            if cell.routing is not None:
                record["routing"] = cell.routing
            if cell.ok:
                record.update(cell.summary or {})
            else:
                record.update({"error": cell.error, "detail": cell.detail})
            out.append(record)
        return out

    def summary_for(self, scheme: str, scenario: str | None = None,
                    seed: int | None = None) -> dict:
        """The summary record of the first matching successful cell."""
        for cell in self.cells:
            if cell.scheme != scheme or not cell.ok:
                continue
            if scenario is not None and cell.scenario != scenario:
                continue
            if seed is not None and cell.seed != seed:
                continue
            return cell.summary
        raise KeyError(f"no successful cell for scheme={scheme!r}, "
                       f"scenario={scenario!r}, seed={seed!r}")


# -- per-worker scenario cache ------------------------------------------------

#: Distinct (ScenarioSpec, seed) builds kept alive per process.  A grid
#: column shares one entry across all its schemes; the bound exists so a
#: long campaign over many scenarios cannot grow worker memory without
#: limit (paper-scale scenarios hold tens of MB of workload arrays).
SCENARIO_CACHE_CAPACITY = 4

_scenario_cache: OrderedDict[tuple[ScenarioSpec, int], Scenario] = \
    OrderedDict()
_scenario_cache_stats = {"hits": 0, "misses": 0}


def cached_scenario(spec: ScenarioSpec, seed: int) -> tuple[Scenario, bool]:
    """Build ``spec`` at ``seed``, reusing this process's cached build.

    Returns ``(scenario, cache_hit)``.  The cache is keyed on the exact
    ``(spec, seed)`` pair and bounded by :data:`SCENARIO_CACHE_CAPACITY`
    (LRU).  Correctness rests on runs never mutating the scenario they
    are handed — schemes build fresh per-run state (``NetworkState``
    etc.) in ``begin()`` — which the persistent-sweep differential
    suite and the hypothesis cache-equivalence test enforce.
    """
    key = (spec, int(seed))
    cached = _scenario_cache.get(key)
    if cached is not None:
        _scenario_cache.move_to_end(key)
        _scenario_cache_stats["hits"] += 1
        return cached, True
    scenario = spec.build(seed=seed)
    _scenario_cache[key] = scenario
    _scenario_cache_stats["misses"] += 1
    while len(_scenario_cache) > SCENARIO_CACHE_CAPACITY:
        _scenario_cache.popitem(last=False)
    return scenario, False


def scenario_cache_stats() -> dict:
    """Hit/miss counters and current size of this process's cache."""
    return {**_scenario_cache_stats, "size": len(_scenario_cache)}


def clear_scenario_cache() -> None:
    """Drop every cached build and zero the counters (test isolation)."""
    _scenario_cache.clear()
    _scenario_cache_stats.update(hits=0, misses=0)
    _scenario_cache_reported.update(hits=0, misses=0)


# -- the unit of work ---------------------------------------------------------

def _cell_trace_path(base: str | Path, index: int) -> Path:
    """Unique shard path for a cell: ``trace.jsonl`` → ``trace.cell-0003.jsonl``."""
    base = Path(base)
    return base.with_name(f"{base.stem}.cell-{index:04d}{base.suffix or '.jsonl'}")


def run_cell(cell: SweepCell, options: RunOptions | None = None,
             trace_base: str | Path | None = None) -> CellResult:
    """Execute one grid cell; never raises.

    This is the shared unit of both the serial and the parallel sweep
    paths (so they are bit-identical by construction), and the function
    a worker process runs.  The cell's scenario comes from this
    process's :func:`cached_scenario` (rebuilt from its spec with the
    cell seed on a miss); with ``trace_base`` set, telemetry lands in
    the cell's own shard, tagged with the cell id and this process's
    pid.

    The cell executes under a scoped registry whose mergeable dump is
    attached to the result (``CellResult.metrics``): run metrics roll up
    into it (``run_context`` merges its scoped registry outward on
    exit), plus the sweep's own ``sweep.*`` counters and this worker's
    gauges — scenario-cache hit rate, peak RSS — so the parent can
    aggregate a fleet-wide view.
    """
    begin = time.perf_counter()
    pid = os.getpid()
    trace_path = None
    cell_options = options or RunOptions()
    if cell.routing is not None:
        cell_options = cell_options.replace(routing=cell.routing)
    if trace_base is not None:
        trace_path = _cell_trace_path(trace_base, cell.index)
        cell_options = cell_options.replace(
            telemetry=trace_path, workers=1,
            trace_tags=(("cell", cell.index), ("worker", pid)))
    else:
        # No sink configured: no shard path is derived and no shard file
        # is ever created — the cell runs with telemetry off and
        # run_context() short-circuits past the tracer machinery.
        cell_options = cell_options.replace(telemetry=None, workers=1,
                                            trace_tags=())
    with use_registry() as registry:
        try:
            scenario, cache_hit = cached_scenario(cell.scenario, cell.seed)
            result = run_scheme(cell.scheme, scenario, options=cell_options)
            summary = summarize(result, scenario.cost_model)
            registry.counter("sweep.cells").inc()
            _record_worker_stats(registry)
            return CellResult(
                index=cell.index, scheme=cell.scheme.name,
                scenario=cell.scenario.label, seed=cell.seed,
                routing=cell.routing, ok=True,
                summary=summary, delivered=dict(result.delivered),
                payments=dict(result.payments), chosen=dict(result.chosen),
                loads=result.loads,
                n_failures=len(result.extras.get("failures", ())),
                worker=pid, duration=time.perf_counter() - begin,
                trace_path=None if trace_path is None else str(trace_path),
                cache_hit=cache_hit, metrics=registry.dump())
        except Exception as exc:  # noqa: BLE001 — structured capture is the point
            registry.counter("sweep.cells").inc()
            registry.counter("sweep.cell_failures").inc()
            _record_worker_stats(registry)
            return CellResult(
                index=cell.index, scheme=cell.scheme.name,
                scenario=cell.scenario.label, seed=cell.seed,
                routing=cell.routing, ok=False,
                error=type(exc).__name__, detail=str(exc),
                traceback=traceback.format_exc(), worker=pid,
                duration=time.perf_counter() - begin,
                trace_path=None if trace_path is None else str(trace_path),
                metrics=registry.dump())


def _record_worker_stats(registry) -> None:
    """This worker's cache hit/miss deltas and peak RSS into ``registry``.

    Cache hits/misses are recorded as the *change* since the worker's
    cumulative stats were last sampled, so summing the per-cell counters
    across the fleet gives the true pool-wide totals (sampling the
    cumulative value per cell would double-count).
    """
    stats = scenario_cache_stats()
    last = _scenario_cache_reported
    registry.counter("sweep.scenario_cache.hits").inc(
        stats["hits"] - last["hits"])
    registry.counter("sweep.scenario_cache.misses").inc(
        stats["misses"] - last["misses"])
    last.update(hits=stats["hits"], misses=stats["misses"])
    lookups = stats["hits"] + stats["misses"]
    if lookups:
        registry.gauge("sweep.scenario_cache.hit_rate").set(
            stats["hits"] / lookups)
    try:
        import resource
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        registry.gauge("worker.peak_rss_mb").set(rss_kb / 1024.0)
    except (ImportError, ValueError):  # platforms without getrusage
        pass


#: Cumulative cache stats already attributed to earlier cells of this
#: process (so per-cell counter deltas sum correctly across the fleet).
_scenario_cache_reported = {"hits": 0, "misses": 0}


def run_chunk(chunk: list[SweepCell], options: RunOptions | None = None,
              trace_base: str | Path | None = None) -> list[CellResult]:
    """Run a chunk of cells in order inside one worker; never raises.

    Purely a batching wrapper over :func:`run_cell` — each cell runs
    with exactly the arguments the unchunked path would pass, so chunk
    boundaries are unobservable in the results.
    """
    return [run_cell(cell, options, trace_base) for cell in chunk]


# -- the persistent worker pool -----------------------------------------------

#: Run options and trace base for this worker process, installed once by
#: the pool initializer so tasks pickle only their cells.
_worker_options: RunOptions | None = None
_worker_trace_base: str | None = None


def _init_worker(options: RunOptions | None,
                 trace_base: str | None) -> None:
    """Pool initializer: receive the sweep's shared arguments one time."""
    global _worker_options, _worker_trace_base
    _worker_options = options
    _worker_trace_base = trace_base


def _worker_chunk(chunk: list[SweepCell]) -> list[CellResult]:
    """Pool task: run a chunk against the worker's installed arguments."""
    return run_chunk(chunk, _worker_options, _worker_trace_base)


def _worker_cell(cell: SweepCell) -> CellResult:
    """Pool task for the death-recovery path: one cell, same arguments."""
    return run_cell(cell, _worker_options, _worker_trace_base)


#: Upper bound on adaptively-sized chunks: below it each worker gets one
#: contiguous chunk (one IPC round-trip per worker — what makes sweeps
#: of sub-second cells faster parallel than serial); past it the grid
#: splits into more tasks so stragglers can rebalance across workers.
_MAX_CHUNK = 8


def _chunk_cells(cells: list[SweepCell], workers: int,
                 chunk_size: int | None = None) -> list[list[SweepCell]]:
    """Contiguous grid-order chunks sized to amortise per-task overhead."""
    if chunk_size is None:
        chunk_size = max(1, min(-(-len(cells) // workers), _MAX_CHUNK))
    return [cells[i:i + chunk_size]
            for i in range(0, len(cells), chunk_size)]


def _pool_context():
    """The multiprocessing context the worker pool starts from.

    **forkserver** where the platform offers it: the server imports
    this module (and with it numpy, scipy and the repro package)
    exactly once, then every worker forks from that warm image — the
    per-worker cost drops from a cold interpreter start plus full
    import chain to a bare ``fork()``.  Elsewhere
    (Windows, macOS builds without forkserver) the pool falls back to
    spawn, which is slower to start but equally isolated.  Neither
    start method inherits run state: tracers, registries and injectors
    are installed per cell by ``run_context``, never at import time.
    """
    method = ("forkserver"
              if "forkserver" in multiprocessing.get_all_start_methods()
              else "spawn")
    context = get_context(method)
    if method == "forkserver":
        # Idempotent; ignored once the server is already running (the
        # first sweep of the process wins, which preloads the same
        # module either way).
        context.set_forkserver_preload(["repro.experiments.sweep"])
    return context


def _death_result(cell: SweepCell, exc: BaseException) -> CellResult:
    """Structured failure for a cell whose worker process died."""
    return CellResult(
        index=cell.index, scheme=cell.scheme.name,
        scenario=cell.scenario.label, seed=cell.seed,
        routing=cell.routing, ok=False,
        error=type(exc).__name__,
        detail=f"worker process died while running this cell: {exc}")


def _run_cells_isolated(cells: list[SweepCell], options: RunOptions,
                        trace_base: str | None, context,
                        collect: Callable[[CellResult], None]) -> None:
    """Death-recovery path: re-run ``cells`` one at a time, isolated.

    A worker death breaks its entire ``ProcessPoolExecutor`` — every
    in-flight and queued future raises — so the broken pool cannot say
    *which* cell killed it.  This pass re-runs each affected cell as its
    own task in a fresh single-worker pool: cells that run clean
    complete normally (their first attempt's results were simply lost
    with the pool), and a cell that kills its worker again is the
    culprit — it gets a structured failure and the pool is rebuilt for
    the cells after it.  Each outer iteration finalises at least one
    cell, so this terminates even if every cell is a killer.
    """
    index = 0
    while index < len(cells):
        with ProcessPoolExecutor(max_workers=1, mp_context=context,
                                 initializer=_init_worker,
                                 initargs=(options, trace_base)) as pool:
            while index < len(cells):
                cell = cells[index]
                try:
                    outcome = pool.submit(_worker_cell, cell).result()
                except Exception as exc:  # noqa: BLE001 — worker died again
                    collect(_death_result(cell, exc))
                    index += 1
                    break  # this pool is broken; open a fresh one
                collect(outcome)
                index += 1


def run_sweep(grid: SweepGrid, options: RunOptions | None = None,
              progress: Callable[[int, int, CellResult], None] | None = None
              ) -> SweepResult:
    """Run every cell of ``grid``, serially or across worker processes.

    ``options.workers`` selects the degree of process parallelism
    (1 = in-process serial execution, the reference path).  Parallel
    sweeps run on a pool of persistent workers (forkserver with this
    module preloaded where available, spawn elsewhere); run options
    ship once through the pool initializer, scenarios build once per
    worker per (scenario, seed) column, and cells travel in contiguous
    chunks (``options.chunk_size``, adaptive by default).

    With ``options.telemetry`` set, per-cell shards are merged (in cell
    order) into that path when the sweep completes and the shards are
    removed; the merged trace carries every worker's spans and ledger
    events, tagged, so ``telemetry audit`` and ``telemetry report``
    work on it directly.

    ``progress`` is invoked exactly once per finished cell with
    ``(done, total, result)``.
    """
    opts = options or RunOptions()
    cells = grid.cells()
    total = len(cells)
    trace_base = opts.telemetry
    workers = min(max(1, opts.workers), total)
    begin = time.perf_counter()
    results: list[CellResult | None] = [None] * total
    done = 0

    parent_registry = get_registry()

    def _collect(result: CellResult) -> None:
        nonlocal done
        done += 1
        results[result.index] = result
        if result.metrics:
            # Live aggregation: the sweeping process's registry (and any
            # /metrics endpoint serving it) reflects the fleet as cells
            # finish, not only after the sweep returns.
            parent_registry.merge_dump(result.metrics, worker=result.worker)
        if progress is not None:
            progress(done, total, result)

    if workers == 1:
        for cell in cells:
            _collect(run_cell(cell, opts, trace_base))
    else:
        chunks = _chunk_cells(cells, workers, opts.chunk_size)
        context = _pool_context()
        shared = (opts, None if trace_base is None else str(trace_base))
        #: chunks whose futures raised: a worker death breaks the whole
        #: pool, so these cannot be attributed yet — they go through the
        #: isolation pass below, and their progress fires only there.
        broken: list[SweepCell] = []
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks)),
                                 mp_context=context,
                                 initializer=_init_worker,
                                 initargs=shared) as pool:
            futures = {pool.submit(_worker_chunk, chunk): chunk
                       for chunk in chunks}
            for future in as_completed(futures):
                chunk = futures[future]
                try:
                    outcomes = future.result()
                except Exception:  # noqa: BLE001 — pool broke; retry below
                    broken.extend(chunk)
                    continue
                for result in outcomes:
                    _collect(result)
        if broken:
            broken.sort(key=lambda cell: cell.index)
            _run_cells_isolated(broken, *shared, context, _collect)

    merged_path = None
    if trace_base is not None:
        shards = [Path(cell.trace_path) for cell in results
                  if cell is not None and cell.trace_path is not None
                  and Path(cell.trace_path).exists()]
        merge_traces(shards, trace_base)
        for shard in shards:
            shard.unlink()
        # A killed worker can leave a torn shard behind for a cell that
        # never produced a result path; drop it rather than strand a
        # half-written file next to the merged trace.
        for cell in results:
            if cell is not None and cell.trace_path is None:
                stray = _cell_trace_path(trace_base, cell.index)
                if stray.exists():
                    stray.unlink()
        merged_path = str(trace_base)

    return SweepResult(cells=list(results), trace_path=merged_path,
                       wall_s=time.perf_counter() - begin,
                       n_workers=workers)
