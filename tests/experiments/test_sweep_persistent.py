"""Tests for the persistent-worker sweep engine.

Four properties the persistent pool must preserve, each with its own
section below:

1. **Differential determinism** — a persistent-worker sweep is
   bit-identical to the serial reference for every scheme, with
   chunking forced to 1, 3 and 8 cells per task, under both start
   methods, and under an injected fault schedule.  Chunk boundaries
   and worker scheduling must be unobservable in the results.
2. **Cache equivalence** — the per-worker scenario cache returns
   builds equivalent to a fresh construction for arbitrary
   (scenario, load, seed) keys, and reusing a cached scenario across
   cells leaks no per-run state between them (hypothesis-driven).
3. **Worker death** — a worker dying mid-chunk fails *only* the cell
   that killed it, as a structured :class:`CellResult`; its chunk-mates
   recover, and the merged trace keeps correct cell ordering.
4. **Progress** — callbacks fire exactly once per cell (never per
   chunk), and the CLI per-cell table matches the cell count.
5. **Warm workers** — the fork server has numpy and HiGHS imported
   even when ``repro`` is importable only through ``sys.path``.
"""

import json
import multiprocessing
import os
import site
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.experiments import sweep as sweep_module
from repro.experiments.runner import SCHEME_SPECS, SchemeSpec, run_scheme
from repro.experiments.scenarios import ScenarioSpec
from repro.experiments.sweep import (SCENARIO_CACHE_CAPACITY, SweepGrid,
                                     _pool_context, cached_scenario,
                                     run_sweep, scenario_cache_stats)
from repro.options import RunOptions
from repro.sim import summarize
from repro.telemetry import read_trace

from .test_sweep import assert_cells_identical, comparable


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts and ends with an empty in-process cache."""
    clear_scenario_cache()
    yield
    clear_scenario_cache()


def clear_scenario_cache():
    """Drop every cached build and zero the counters."""
    sweep_module._scenario_cache.clear()
    sweep_module._scenario_cache_stats.update(hits=0, misses=0)
    sweep_module._scenario_cache_reported.update(hits=0, misses=0)


def force_chunks(monkeypatch, size):
    """Pin the pool's cells per task (chunking happens in the parent)."""
    monkeypatch.setattr(
        sweep_module, "_chunk_cells",
        lambda cells, workers: [cells[i:i + size]
                                for i in range(0, len(cells), size)])


# -- differential determinism -------------------------------------------------

def test_persistent_sweep_bit_identical_for_all_schemes_and_chunkings(
        monkeypatch):
    """All 10 schemes, serial vs persistent pool at chunk sizes 1/3/8."""
    grid = SweepGrid(schemes=sorted(SCHEME_SPECS), scenarios=["tiny"],
                     seeds=[0])
    serial = run_sweep(grid, options=RunOptions(workers=1))
    for chunk_size in (1, 3, 8):
        force_chunks(monkeypatch, chunk_size)
        parallel = run_sweep(grid, options=RunOptions(workers=2))
        assert parallel.n_workers == 2
        assert_cells_identical(serial.cells, parallel.cells)


def test_persistent_sweep_bit_identical_under_faults_and_chunking(
        monkeypatch):
    faulty = RunOptions(faults="sam:solver@2x1,ra:timeout@3x1",
                        fault_seed=7)
    grid = SweepGrid(schemes=["Pretium", "Pretium-NoMenu", "NoPrices"],
                     scenarios=["tiny"], seeds=[0, 1])
    serial = run_sweep(grid, options=faulty.replace(workers=1))
    for chunk_size in (1, 3):
        force_chunks(monkeypatch, chunk_size)
        parallel = run_sweep(grid, options=faulty.replace(workers=2))
        assert_cells_identical(serial.cells, parallel.cells)


def test_explicit_start_methods_agree_with_serial(monkeypatch):
    """Both branches of ``_pool_context``: the platform's own choice
    (forkserver where offered), then spawn, forced by hiding forkserver
    from the lookup the function makes."""
    grid = SweepGrid(schemes=["Pretium", "NoPrices"], scenarios=["tiny"],
                     seeds=[0])
    serial = run_sweep(grid, options=RunOptions(workers=1))
    parallel = run_sweep(grid, options=RunOptions(workers=2))
    assert_cells_identical(serial.cells, parallel.cells)

    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    assert _pool_context().get_start_method() == "spawn"
    parallel = run_sweep(grid, options=RunOptions(workers=2))
    assert_cells_identical(serial.cells, parallel.cells)


def test_cache_reuse_is_flagged_but_unobservable_in_results(monkeypatch):
    """Within one worker, later cells of a scenario column hit the cache
    (``cache_hit=True``) yet produce results identical to the serial
    path, which also reuses its in-process build."""
    grid = SweepGrid(schemes=["Pretium", "NoPrices", "OPT"],
                     scenarios=["tiny"], seeds=[0])
    # Chunks of 3 put the whole column in one worker: 1 miss + 2 hits.
    force_chunks(monkeypatch, 3)
    result = run_sweep(grid, options=RunOptions(workers=2))
    assert result.ok
    hits = [cell.cache_hit for cell in result.cells]
    assert hits == [False, True, True]
    serial = run_sweep(grid, options=RunOptions(workers=1))
    assert_cells_identical(serial.cells, result.cells)


# -- scenario cache equivalence (hypothesis) ----------------------------------

@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(["tiny", "quick"]),
       load=st.sampled_from([0.5, 1.0, 2.0]),
       seed=st.integers(min_value=0, max_value=5))
def test_cached_scenario_equivalent_to_fresh_build(name, load, seed):
    spec = ScenarioSpec.of(name, load_factor=load)
    cached, _ = cached_scenario(spec, seed)
    again, hit = cached_scenario(spec, seed)
    assert again is cached and hit
    fresh = spec.build(seed=seed)
    assert fresh.workload.n_requests == cached.workload.n_requests
    assert fresh.workload.n_steps == cached.workload.n_steps
    assert ([(r.rid, r.src, r.dst, r.demand, r.value, r.arrival,
              r.deadline) for r in fresh.workload.requests] ==
            [(r.rid, r.src, r.dst, r.demand, r.value, r.arrival,
              r.deadline) for r in cached.workload.requests])
    assert ([(link.src, link.dst, link.capacity, link.metered)
             for link in fresh.topology.links] ==
            [(link.src, link.dst, link.capacity, link.metered)
             for link in cached.topology.links])


@settings(max_examples=6, deadline=None)
@given(scheme=st.sampled_from(["Pretium", "NoPrices", "VCGLike"]),
       seed=st.integers(min_value=0, max_value=3))
def test_cache_reuse_leaks_no_state_between_cells(scheme, seed):
    """Running a scheme twice against the *same cached build* must give
    identical results — any NetworkState (or other per-run mutation)
    leaking through the shared scenario would desynchronise the runs."""
    spec = ScenarioSpec.of("tiny", load_factor=2.0)
    scenario, _ = cached_scenario(spec, seed)
    first = run_scheme(scheme, scenario)
    second = run_scheme(scheme, scenario)
    assert dict(first.delivered) == dict(second.delivered)
    assert dict(first.payments) == dict(second.payments)
    assert np.array_equal(first.loads, second.loads)
    assert (comparable(summarize(first, scenario.cost_model)) ==
            comparable(summarize(second, scenario.cost_model)))
    # ... and the build handed out later is still the pristine one.
    fresh = spec.build(seed=seed)
    rerun = run_scheme(scheme, fresh)
    assert dict(rerun.delivered) == dict(first.delivered)


def test_cache_is_lru_bounded():
    for seed in range(SCENARIO_CACHE_CAPACITY + 2):
        cached_scenario(ScenarioSpec.of("tiny"), seed)
    stats = scenario_cache_stats()
    assert stats["size"] == SCENARIO_CACHE_CAPACITY
    assert stats["misses"] == SCENARIO_CACHE_CAPACITY + 2
    # seed 0 was evicted: re-requesting it is a miss, newest is a hit.
    _, hit = cached_scenario(ScenarioSpec.of("tiny"), 0)
    assert not hit
    _, hit = cached_scenario(ScenarioSpec.of("tiny"),
                             SCENARIO_CACHE_CAPACITY + 1)
    assert hit


# -- worker death -------------------------------------------------------------

class Kamikaze:
    """A scheme whose run kills its whole worker process.

    ``os._exit`` bypasses exception handling entirely — exactly what a
    segfault or OOM-kill looks like to the pool.  Module-level so it
    pickles by reference into spawn/forkserver workers.
    """

    name = "Kamikaze"

    def run(self, workload):
        os._exit(17)


KAMIKAZE = SchemeSpec("Kamikaze", Kamikaze)


def test_worker_death_fails_only_the_killer_cell(monkeypatch):
    """6 cells in chunks of 3 across 2 workers; the killer is cell 1.
    Its chunk-mates (cells 0 and 2) and the other chunk must all
    recover; only cell 1 gets a structured death failure."""
    grid = SweepGrid(
        schemes=["NoPrices", KAMIKAZE, "OPT"],
        scenarios=["tiny"], seeds=[0, 1])
    seen = []
    force_chunks(monkeypatch, 3)
    result = run_sweep(
        grid, options=RunOptions(workers=2),
        progress=lambda done, total, cell: seen.append((done, cell.index)))
    assert [cell.ok for cell in result.cells] == [True, False, True,
                                                  True, False, True]
    for failed in result.failures:
        assert failed.scheme == "Kamikaze"
        assert failed.error == "BrokenProcessPool"
        assert "worker process died" in failed.detail
    # recovered chunk-mates match a clean serial run
    clean = run_sweep(SweepGrid(schemes=["NoPrices", "OPT"],
                                scenarios=["tiny"], seeds=[0, 1]),
                      options=RunOptions(workers=1))
    survivors = [cell for cell in result.cells if cell.ok]
    assert_cells_identical(clean.cells, survivors)
    # progress fired exactly once per cell, killer cells included
    assert sorted(done for done, _ in seen) == [1, 2, 3, 4, 5, 6]
    assert sorted(index for _, index in seen) == [0, 1, 2, 3, 4, 5]


def test_worker_death_keeps_merged_trace_order(tmp_path, monkeypatch):
    trace = tmp_path / "sweep.jsonl"
    grid = SweepGrid(schemes=["NoPrices", KAMIKAZE, "Pretium"],
                     scenarios=["tiny"], seeds=[0])
    force_chunks(monkeypatch, 2)
    result = run_sweep(grid, options=RunOptions(workers=2, telemetry=trace))
    assert [cell.ok for cell in result.cells] == [True, False, True]
    # no shard files remain — including any torn shard of the dead cell
    assert list(tmp_path.glob("sweep.cell-*.jsonl")) == []
    events = read_trace(trace)
    cell_ids = [event["cell"] for event in events]
    assert cell_ids == sorted(cell_ids)
    assert set(cell_ids) == {0, 2}  # the killed cell contributed nothing


def test_every_cell_killing_its_worker_still_terminates(monkeypatch):
    grid = SweepGrid(schemes=[KAMIKAZE], scenarios=["tiny"], seeds=[0, 1])
    force_chunks(monkeypatch, 1)
    result = run_sweep(grid, options=RunOptions(workers=2))
    assert [cell.ok for cell in result.cells] == [False, False]
    assert all("worker process died" in cell.detail
               for cell in result.cells)


# -- progress accounting ------------------------------------------------------

def test_progress_fires_exactly_once_per_cell_under_chunking(monkeypatch):
    grid = SweepGrid(schemes=["Pretium", "NoPrices", "OPT"],
                     scenarios=["tiny"], seeds=[0, 1])
    for chunk_size in (1, 3, 8):
        calls = []
        force_chunks(monkeypatch, chunk_size)
        result = run_sweep(
            grid, options=RunOptions(workers=2),
            progress=lambda done, total, cell:
            calls.append((done, total, cell.index)))
        assert result.ok
        assert [done for done, _, _ in calls] == [1, 2, 3, 4, 5, 6]
        assert all(total == 6 for _, total, _ in calls)
        assert sorted(index for _, _, index in calls) == [0, 1, 2, 3, 4, 5]


def test_cli_per_cell_table_counts_match(capsys, monkeypatch):
    from repro.cli import main
    force_chunks(monkeypatch, 1)
    code = main(["sweep", "--schemes", "Pretium,NoPrices", "--scenario",
                 "tiny", "--seeds", "0,1", "--workers", "2"])
    assert code == 0
    out = capsys.readouterr().out
    table_rows = [line for line in out.splitlines()
                  if line.split()[:1] and line.split()[0].isdigit()
                  and "cell(s)" not in line]
    assert len(table_rows) == 4
    assert "4 cell(s), 0 failed, 2 worker(s)" in out


# -- warm workers -------------------------------------------------------------

#: A 2-worker sweep from a bare checkout, as ``benchmarks/e2e/run.py``
#: runs one; prints which extension modules the fork server has mapped.
_BARE_SWEEP = textwrap.dedent("""
    import json, sys
    sys.path.insert(0, {src!r})
    from multiprocessing import forkserver
    from repro.experiments.sweep import SweepGrid, run_sweep
    from repro.options import RunOptions
    result = run_sweep(SweepGrid(["NoPrices"], ["tiny"], [0, 1]),
                       RunOptions(workers=2))
    pid = forkserver._forkserver._forkserver_pid
    with open(f"/proc/{{pid}}/maps") as maps:
        mapped = maps.read()
    print(json.dumps({{"ok": result.ok, "numpy": "_multiarray_umath" in mapped,
                      "highs": "_highspy" in mapped,
                      "sparse": "/scipy/sparse/" in mapped,
                      "linalg": "/scipy/linalg/" in mapped}}))
""")


def test_workers_fork_warm_from_a_bare_checkout(tmp_path):
    """The fork server ignores the parent's ``sys.path``; unless it is
    launched able to import ``repro``, its preload fails silently and
    every worker re-imports numpy, scipy and repro before its first
    cell."""
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/<pid>/maps")
    if "forkserver" not in multiprocessing.get_all_start_methods():
        pytest.skip("no forkserver start method here")
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    installed = subprocess.run([sys.executable, "-c", "import repro"],
                               env=env, cwd=tmp_path, capture_output=True)
    if installed.returncode == 0:
        pytest.skip("repro is installed: a bare interpreter imports it")
    src = str(Path(repro.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _BARE_SWEEP.format(src=src)], env=env,
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    # Warm with what a cell runs, and nothing it does not: the HiGHS
    # extension is loaded without scipy.optimize's init.
    assert json.loads(run.stdout) == {"ok": True, "numpy": True,
                                      "highs": True, "sparse": False,
                                      "linalg": False}


@pytest.mark.parametrize("installed", [False, True])
def test_fork_server_path_skips_site_directories(monkeypatch, installed):
    """The server's launch sees ``repro``'s directory ahead of the
    caller's ``PYTHONPATH`` unless that directory is a site directory
    (an installed package, found there anyway); the caller's variable is
    restored either way."""
    if "forkserver" not in multiprocessing.get_all_start_methods():
        pytest.skip("no forkserver start method here")
    from multiprocessing import forkserver  # POSIX only

    src = Path(repro.__file__).resolve().parents[1]
    monkeypatch.setattr(site, "getsitepackages",
                        lambda: [str(src)] if installed else [])
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    seen = []
    monkeypatch.setattr(forkserver, "ensure_running",
                        lambda: seen.append(os.environ["PYTHONPATH"]))
    _pool_context()
    expected = "elsewhere" if installed else os.pathsep.join(
        (str(src), "elsewhere"))
    assert seen == [expected]
    assert os.environ["PYTHONPATH"] == "elsewhere"
