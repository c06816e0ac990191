"""Tests for run-summary serialisation."""

import json

import numpy as np
import pytest

from repro.core import ByteRequest
from repro.costs import LinkCostModel
from repro.network import Topology
from repro.sim import ModuleRuntimes, RunResult, save_summary, summarize
from repro.traffic import Workload


def make_result():
    topo = Topology()
    topo.add_link("a", "b", 10.0, metered=True, cost_per_unit=1.0)
    requests = [ByteRequest(0, "a", "b", 4.0, 0, 0, 3, 2.0)]
    wl = Workload(topo, requests, n_steps=4, steps_per_day=4,
                  load_factor=2.0, description="unit")
    loads = np.zeros((4, 1))
    loads[0, 0] = 4.0
    runtimes = ModuleRuntimes(ra=[0.1, 0.2], sam=[0.3], pc=[1.0])
    return RunResult(wl, "test", loads, {0: 4.0}, {0: 2.0}, {0: 4.0},
                     extras={"runtimes": runtimes}), \
        LinkCostModel(topo, billing_window=4)


def test_summarize_fields():
    result, cm = make_result()
    record = summarize(result, cm)
    assert record["scheme"] == "test"
    assert record["workload"] == "unit"
    assert record["n_requests"] == 1
    assert record["load_factor"] == 2.0
    assert record["total_value"] == pytest.approx(8.0)
    assert record["welfare"] == pytest.approx(8.0 - record["true_cost"])
    assert record["profit"] + record["user_surplus"] == \
        pytest.approx(record["welfare"])
    assert record["completion_demand"] == 1.0
    assert record["runtimes"]["RA"]["count"] == 2


def test_save_and_load_roundtrip(tmp_path):
    result, cm = make_result()
    record = summarize(result, cm)
    path = tmp_path / "summary.json"
    save_summary(record, path)
    loaded = json.loads(path.read_text())
    assert loaded["welfare"] == pytest.approx(record["welfare"])
    assert loaded["scheme"] == "test"


def test_save_coerces_numpy_types(tmp_path):
    path = tmp_path / "np.json"
    save_summary({"a": np.float64(1.5), "b": np.int64(2),
                  "c": np.array([1.0, 2.0])}, path)
    loaded = json.loads(path.read_text())
    assert loaded == {"a": 1.5, "b": 2, "c": [1.0, 2.0]}


def test_save_rejects_unserialisable(tmp_path):
    """Regression: an unknown type must raise, never serialise as null."""
    path = tmp_path / "bad.json"
    with pytest.raises(TypeError, match="cannot serialise object"):
        save_summary({"bad": object()}, path)
    # in particular, no file with a silent null in it was produced
    assert not path.exists() or "null" not in path.read_text()


def test_save_rejects_nested_unserialisable(tmp_path):
    class Opaque:
        pass

    with pytest.raises(TypeError, match="Opaque"):
        save_summary({"runtimes": {"RA": Opaque()}}, tmp_path / "bad.json")


def test_save_coerces_numpy_bool(tmp_path):
    path = tmp_path / "b.json"
    save_summary({"flag": np.bool_(True)}, path)
    assert json.loads(path.read_text()) == {"flag": True}
