"""Tests for the process-parallel sweep subsystem.

The load-bearing property is *bit-identical determinism*: a multi-worker
sweep must produce exactly the same allocations, payments and summaries
as the serial reference path, for every scheme, with and without an
injected fault schedule.  Measured module runtimes are the one summary
entry excluded from comparisons — wall-clock is not deterministic.
"""

import pickle

import numpy as np
import pytest

from repro.experiments.runner import SCHEME_SPECS, scheme_spec
from repro.experiments.scenarios import ScenarioSpec
from repro.experiments.sweep import (CellResult, SweepCell, SweepGrid,
                                     SweepResult, run_cell, run_sweep)
from repro.options import RunOptions
from repro.sim import summarize
from repro.telemetry import audit_events, read_trace, unwaived
from repro.experiments import runner


def comparable(summary):
    return {k: v for k, v in summary.items() if k != "runtimes"}


def assert_cells_identical(ref_cells, par_cells):
    assert len(ref_cells) == len(par_cells)
    for ref, par in zip(ref_cells, par_cells):
        assert ref.label == par.label
        assert ref.ok and par.ok, (ref.detail, par.detail)
        assert comparable(ref.summary) == comparable(par.summary), ref.label
        assert ref.delivered == par.delivered, ref.label
        assert ref.payments == par.payments, ref.label
        assert ref.chosen == par.chosen, ref.label
        assert np.array_equal(ref.loads, par.loads), ref.label


# -- grid construction --------------------------------------------------------

def test_grid_normalizes_names_to_specs():
    grid = SweepGrid(schemes=["Pretium", scheme_spec("NoPrices")],
                     scenarios=["tiny", ScenarioSpec.of("quick")],
                     seeds=[0, 1])
    assert [s.name for s in grid.schemes] == ["Pretium", "NoPrices"]
    assert [s.name for s in grid.scenarios] == ["tiny", "quick"]
    assert grid.seeds == (0, 1)
    assert len(grid) == 8


def test_grid_cell_order_is_scenario_seed_scheme():
    grid = SweepGrid(schemes=["Pretium", "OPT"], scenarios=["tiny"],
                     seeds=[0, 1])
    labels = [cell.label for cell in grid.cells()]
    assert labels == ["Pretium/tiny/seed=0", "OPT/tiny/seed=0",
                      "Pretium/tiny/seed=1", "OPT/tiny/seed=1"]
    assert [cell.index for cell in grid.cells()] == [0, 1, 2, 3]


def test_grid_rejects_built_scenarios_and_empty_axes():
    from repro.experiments.scenarios import tiny_scenario
    with pytest.raises(TypeError, match="picklable"):
        SweepGrid(schemes=["Pretium"], scenarios=[tiny_scenario()])
    with pytest.raises(KeyError, match="unknown scheme"):
        SweepGrid(schemes=["Gurobi"])
    with pytest.raises(ValueError, match="at least one scheme"):
        SweepGrid(schemes=[])
    with pytest.raises(ValueError, match="at least one seed"):
        SweepGrid(schemes=["Pretium"], seeds=[])


def test_cells_are_picklable():
    for cell in SweepGrid(schemes=sorted(SCHEME_SPECS),
                          scenarios=["tiny"]).cells():
        clone = pickle.loads(pickle.dumps(cell))
        assert clone == cell


# -- the serial reference path ------------------------------------------------

def test_run_cell_matches_direct_run_scheme():
    cell = SweepCell(index=0, scheme=scheme_spec("NoPrices"),
                     scenario=ScenarioSpec.of("tiny"), seed=3)
    out = run_cell(cell)
    scenario = ScenarioSpec.of("tiny").build(seed=3)
    direct = runner.run_scheme("NoPrices", scenario)
    expect = summarize(direct, scenario.cost_model)
    assert out.ok
    assert comparable(out.summary) == comparable(expect)
    assert out.delivered == dict(direct.delivered)
    assert out.payments == dict(direct.payments)
    assert np.array_equal(out.loads, direct.loads)


def test_serial_sweep_collects_every_cell_and_reports_progress():
    grid = SweepGrid(schemes=["Pretium", "NoPrices"], scenarios=["tiny"],
                     seeds=[0, 1])
    seen = []
    result = run_sweep(grid, options=RunOptions(workers=1),
                       progress=lambda done, total, cell:
                       seen.append((done, total, cell.label)))
    assert isinstance(result, SweepResult)
    assert result.ok and result.n_workers == 1
    assert [cell.index for cell in result.cells] == [0, 1, 2, 3]
    assert [done for done, _, _ in seen] == [1, 2, 3, 4]
    assert all(total == 4 for _, total, _ in seen)
    assert result.summary_for("Pretium", seed=1)["scheme"] == "Pretium"
    with pytest.raises(KeyError):
        result.summary_for("Pretium", seed=7)


def test_structured_failure_capture():
    # An unknown kwarg crashes the scheme constructor inside the cell.
    bad = SCHEME_SPECS["NoPrices"].with_kwargs(bogus_knob=1)
    grid = SweepGrid(schemes=[bad, "OPT"], scenarios=["tiny"])
    result = run_sweep(grid)
    assert not result.ok
    assert len(result.failures) == 1
    failed = result.failures[0]
    assert isinstance(failed, CellResult)
    assert failed.error == "TypeError"
    assert "bogus_knob" in failed.detail
    assert "bogus_knob" in failed.traceback
    # the healthy cell still completed
    assert result.cells[1].ok
    records = result.summaries()
    assert records[0]["ok"] is False and "error" in records[0]
    assert records[1]["ok"] is True and "welfare" in records[1]


# -- parallel determinism (the acceptance criterion) --------------------------

def test_four_worker_sweep_bit_identical_for_every_scheme():
    grid = SweepGrid(schemes=sorted(SCHEME_SPECS), scenarios=["tiny"],
                     seeds=[0])
    serial = run_sweep(grid, options=RunOptions(workers=1))
    parallel = run_sweep(grid, options=RunOptions(workers=4))
    assert parallel.n_workers == 4
    assert_cells_identical(serial.cells, parallel.cells)


def test_four_worker_sweep_bit_identical_under_faults():
    faulty = RunOptions(faults="sam:solver@2x1,ra:timeout@3x1",
                        fault_seed=7)
    grid = SweepGrid(schemes=["Pretium", "Pretium-NoMenu", "NoPrices"],
                     scenarios=["tiny"], seeds=[0, 1])
    serial = run_sweep(grid, options=faulty.replace(workers=1))
    parallel = run_sweep(grid, options=faulty.replace(workers=4))
    assert_cells_identical(serial.cells, parallel.cells)


def test_fleet_merged_metrics_match_serial_run_bit_for_bit():
    """Fleet aggregation must be lossless: the counters a 4-worker
    sweep merges back equal the serial run's, value for value.  Only
    scheduling-dependent metrics are excluded — the per-worker scenario
    cache (a shared in-process cache hits where isolated worker caches
    miss) and per-worker gauges (RSS) — everything the engines count is
    deterministic and must survive the shard/merge round trip exactly."""
    from repro.telemetry import use_registry

    grid = SweepGrid(schemes=["Pretium", "NoPrices"], scenarios=["tiny"],
                     seeds=[0, 1])

    def fleet_counters(options):
        with use_registry():
            result = run_sweep(grid, options=options)
        assert result.ok
        fleet = result.fleet_metrics()
        kinds = fleet.kinds()
        return {name: value for name, value in fleet.snapshot().items()
                if kinds[name] == "counter"
                and not name.startswith("sweep.scenario_cache")}

    serial = fleet_counters(RunOptions(workers=1))
    parallel = fleet_counters(RunOptions(workers=4))
    assert serial == parallel  # bit-for-bit, not approximately
    assert serial["sweep.cells"] == 4
    assert serial.get("pretium.admitted", 0) > 0


def test_cell_metrics_ride_along_and_parent_registry_aggregates():
    """Each CellResult carries its registry dump, and run_sweep merges
    them into the caller's registry as cells complete."""
    from repro.telemetry import get_registry, use_registry

    grid = SweepGrid(schemes=["Pretium"], scenarios=["tiny"],
                     seeds=[0, 1])
    with use_registry():
        result = run_sweep(grid, options=RunOptions(workers=2))
        live = get_registry()
        assert live.counter("sweep.cells").value == 2
    for cell in result.cells:
        assert cell.metrics["counters"]["sweep.cells"] == 1
        assert "pretium.admitted" in cell.metrics["counters"]
    merged = result.fleet_metrics().snapshot()
    assert merged["sweep.cells"] == 2
    assert merged["pretium.admitted"] == \
        live.counter("pretium.admitted").value


def test_worker_count_is_capped_by_grid_size():
    grid = SweepGrid(schemes=["NoPrices"], scenarios=["tiny"])
    result = run_sweep(grid, options=RunOptions(workers=8))
    assert result.n_workers == 1  # one cell -> serial path


# -- merged telemetry ---------------------------------------------------------

def test_parallel_sweep_merges_shards_into_audit_clean_trace(tmp_path):
    trace = tmp_path / "sweep.jsonl"
    grid = SweepGrid(schemes=["Pretium", "NoPrices"], scenarios=["tiny"],
                     seeds=[0, 1])
    result = run_sweep(grid, options=RunOptions(workers=2,
                                                telemetry=trace))
    assert result.ok
    assert result.trace_path == str(trace)
    # shards are merged and removed
    assert trace.exists()
    assert list(tmp_path.glob("sweep.cell-*.jsonl")) == []

    events = read_trace(trace)
    cells = {event.get("cell") for event in events}
    assert cells == {0, 1, 2, 3}
    assert all("worker" in event for event in events)
    # events stay grouped in cell order after the merge
    order = [event["cell"] for event in events]
    assert order == sorted(order)

    findings = audit_events(events)
    assert unwaived(findings) == []


def test_sweep_without_sink_writes_no_shard_files(tmp_path, monkeypatch):
    """With no telemetry sink configured, no per-cell shard may ever be
    created — not merged-and-removed, never written at all."""
    monkeypatch.chdir(tmp_path)     # any stray shard would land here
    grid = SweepGrid(schemes=["Pretium", "NoPrices"], scenarios=["tiny"],
                     seeds=[0])
    result = run_sweep(grid, options=RunOptions(workers=2))
    assert result.ok
    assert result.trace_path is None
    assert all(cell.trace_path is None for cell in result.cells)
    assert list(tmp_path.rglob("*.jsonl")) == []


def test_flat_kwargs_are_a_type_error():
    grid = SweepGrid(schemes=["NoPrices"], scenarios=["tiny"])
    with pytest.raises(TypeError, match="workers"):
        run_sweep(grid, workers=1)
