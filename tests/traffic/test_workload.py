"""Tests for the calibrated workload builder."""

import numpy as np
import pytest

from repro.core.request import ByteRequest
from repro.experiments.scenarios import quick_scenario
from repro.traffic import (TrafficMatrixSeries, Workload, build_workload,
                           calibrate_tm, route_series_on_shortest_paths)
from tests.builders import FixedValues, line_network, small_wan


def test_workload_basic_shape():
    topo = small_wan(seed=0)
    wl = build_workload(topo, n_days=2, steps_per_day=24, seed=0)
    assert wl.n_steps == 48
    assert wl.n_requests > 50
    assert sum(r.demand for r in wl.requests) > 0
    assert all(r.deadline < wl.n_steps for r in wl.requests)


def test_workload_determinism():
    topo = small_wan(seed=0)
    a = build_workload(topo, n_days=1, seed=4)
    b = build_workload(topo, n_days=1, seed=4)
    assert [(r.rid, r.demand) for r in a.requests] == \
        [(r.rid, r.demand) for r in b.requests]


def test_load_factor_scales_demand():
    topo = small_wan(seed=0)
    light = build_workload(topo, n_days=1, load_factor=0.5, seed=1)
    heavy = build_workload(topo, n_days=1, load_factor=4.0, seed=1)
    assert sum(r.demand for r in heavy.requests) > \
        4.0 * sum(r.demand for r in light.requests)


def test_calibration_hits_target():
    topo = small_wan(seed=0)
    from repro.traffic import synthesize_tm_series
    series = synthesize_tm_series(topo, 48, 24, seed=0)
    calibrated = calibrate_tm(topo, series, target_mean_utilization=0.3)
    loads = route_series_on_shortest_paths(topo, calibrated)
    caps = np.array([l.capacity for l in topo.links])
    util = loads / caps[None, :]
    carried = util[:, util.max(axis=0) > 0]
    assert carried.mean() == pytest.approx(0.3, rel=0.01)


def test_calibration_validation():
    topo = small_wan(seed=0)
    from repro.traffic import synthesize_tm_series
    series = synthesize_tm_series(topo, 12, 12, seed=0)
    with pytest.raises(ValueError):
        calibrate_tm(topo, series, target_mean_utilization=0.0)


def test_workload_validation():
    topo = line_network(3)
    good = ByteRequest(0, "n0", "n2", 5.0, 0, 0, 3, 1.0)
    with pytest.raises(ValueError):
        Workload(topo, [good], n_steps=0, steps_per_day=24)
    beyond = ByteRequest(1, "n0", "n2", 5.0, 0, 0, 10, 1.0)
    with pytest.raises(ValueError):
        Workload(topo, [beyond], n_steps=5, steps_per_day=24)


def test_workload_rejects_a_repeated_rid():
    # Booked by rid, the two would merge: Pretium used to credit rid 15
    # with both transfers' deliveries against one request's demand.
    workload = quick_scenario().workload
    copy = next(r for r in workload.requests if r.rid == 15)
    requests = sorted(workload.requests + [copy],
                      key=lambda r: (r.arrival, r.rid))
    with pytest.raises(ValueError,
                       match="request 15: rid appears more than once"):
        Workload(workload.topology, requests, workload.n_steps,
                 workload.steps_per_day, classes=workload.classes)


def test_build_workload_validation():
    topo = small_wan(seed=0)
    with pytest.raises(ValueError):
        build_workload(topo, n_days=0)
    with pytest.raises(ValueError):
        build_workload(topo, load_factor=0.0)


def test_arrivals_at():
    topo = line_network(3)
    reqs = [ByteRequest(0, "n0", "n2", 5.0, 0, 0, 3, 1.0),
            ByteRequest(1, "n0", "n1", 5.0, 2, 2, 3, 1.0)]
    wl = Workload(topo, reqs, n_steps=5, steps_per_day=5)
    assert [r.rid for r in wl.arrivals_at(0)] == [0]
    assert [r.rid for r in wl.arrivals_at(2)] == [1]
    assert wl.arrivals_at(1) == []


def test_description_mentions_load_and_values():
    topo = small_wan(seed=0)
    wl = build_workload(topo, n_days=1, load_factor=2.0,
                        values=FixedValues(1.0), seed=0)
    assert "2" in wl.description
    assert "fixed" in wl.description
