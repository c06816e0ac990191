"""BENCHMARK.json against the limits its reader enforces before a run."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_exactly_the_contract_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_command_and_paths_stay_inside_the_benchmark():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert len(SPEC["command"]) <= 32
    for word in SPEC["command"]:
        assert len(word) <= 200 and not word.startswith("/") and ".." not in word
    assert SPEC["command"][1].startswith("benchmarks/e2e/")
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_workloads_and_metrics_are_well_formed():
    from benchmarks.e2e import cli, measure, workloads
    names = [w["name"] for w in SPEC["workloads"]]
    assert tuple(names) == cli.NAMES == workloads.NAMES == tuple(measure.KIND)
    assert 2 <= len(names) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    everything = names + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(everything) == len(set(everything))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")


def test_setup_time_is_an_end_to_end_metric_with_the_largest_bound():
    by_name = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
