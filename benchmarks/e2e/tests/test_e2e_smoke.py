"""``run --smoke``: all six workloads at toy size, end to end."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    began = time.perf_counter()
    done = subprocess.run([*RUN, "run", "--smoke", "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - began
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text()), done.stdout, elapsed, out.parent


def _layer(results, workload, metric):
    (run,) = [r for r in results["runs"]
              if r["workload"] == workload and r["trace"] == 1]
    return run["metrics"][metric]["value"]


def test_smoke_drives_all_six_workloads_in_under_a_minute(smoke):
    results, _stdout, elapsed, _out = smoke
    assert elapsed < 60.0
    assert results["correct"] is True
    assert [(r["workload"], r["trace"]) for r in results["runs"]] == [
        (w["name"], trace) for w in SPEC["workloads"] for trace in (0, 1)]
    assert all(r["attempted"] >= 1 and r["failed"] == 0 for r in results["runs"])
    for key in ("nproc", "python", "numpy", "scipy", "highspy_available",
                "solver_backend", "seed", "commit"):
        assert key in results["header"]


def test_every_run_reports_exactly_the_metrics_benchmark_json_names(smoke):
    results, stdout, _elapsed, _out = smoke
    wanted = {0: [m["name"] for m in SPEC["end_to_end"]],
              1: [m["name"] for m in SPEC["per_layer"]]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for run in results["runs"]:
        assert list(run["metrics"]) == wanted[run["trace"]]
        for name, metric in run["metrics"].items():
            assert metric["unit"] == units[name]
            assert name in stdout                       # printed by name
        if not run["trace"]:
            assert all(m["value"] > 0 and m["n"] >= 1 for m in run["metrics"].values())


def test_layer_self_times_partition_the_traced_wall(smoke):
    results = smoke[0]
    for run in results["runs"]:
        if run["trace"] and run["workload"] != "fig6-sweep":
            assert run["metrics"]["harness.partition_error"]["value"] <= 0.02


def test_bypass_predictions_hold(smoke):
    results = smoke[0]
    assert _layer(results, "wan106-busy", "sam.fast_path_ratio") == 0.0
    assert _layer(results, "dense16-bursty", "sam.fast_path_ratio") >= 0.7
    assert _layer(results, "service-admit", "service.cache_hit_ratio") == 0.0
    assert _layer(results, "service-browse", "service.cache_hit_ratio") > 0.0
    for workload in SPEC["workloads"]:
        events = _layer(results, workload["name"], "telemetry.events")
        assert (events > 0) == (workload["name"] == "dense16-audited")


def test_span_files_are_written_and_scratch_is_removed(smoke):
    out = smoke[3]
    for workload in SPEC["workloads"]:
        lines = (out / f"{workload['name']}.spans.jsonl").read_text().splitlines()
        assert lines and {"run", "id", "parent", "name", "start", "end"} <= set(
            json.loads(lines[0]))
    assert [p for p in out.iterdir() if p.is_dir()] == []


def test_the_drivers_form_prints_one_json_object_last():
    done = subprocess.run(
        [*RUN, "--workload", "dense16-bursty", "--seed", "3", "--seconds", "1",
         "--trace", "0", "--smoke"], cwd=ROOT, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


def test_one_failed_expectation_makes_the_run_incorrect():
    from benchmarks.e2e.measure import Checks
    checks = Checks()
    checks.expect("fine", True, "never shown")
    assert checks.ok and checks.items[-1]["detail"] == ""
    checks.expect("pinned.welfare", False, "got 1, expected 2")
    assert not checks.ok and checks.items[-1]["detail"] == "got 1, expected 2"
