"""Tests for workload/trace persistence round-trips."""

import json

import numpy as np
import pytest

from repro.traffic import (build_workload, load_workload, save_workload,
                           topology_from_dict, topology_to_dict,
                           workload_from_dict, workload_to_dict)
from tests.builders import small_wan


def test_topology_roundtrip():
    topo = small_wan(seed=3)
    clone = topology_from_dict(topology_to_dict(topo))
    assert clone.nodes == topo.nodes
    assert [l.key for l in clone.links] == [l.key for l in topo.links]
    assert [l.capacity for l in clone.links] == \
        [l.capacity for l in topo.links]
    assert [l.metered for l in clone.links] == \
        [l.metered for l in topo.links]
    assert clone.regions() == topo.regions()
    assert clone.name == topo.name


def test_workload_roundtrip(tmp_path):
    topo = small_wan(seed=1)
    workload = build_workload(topo, n_days=1, steps_per_day=6,
                              load_factor=2.0, max_requests_per_pair=4,
                              seed=1)
    path = tmp_path / "workload.json"
    save_workload(workload, path)
    clone = load_workload(path)
    assert clone.n_steps == workload.n_steps
    assert clone.steps_per_day == workload.steps_per_day
    assert clone.load_factor == workload.load_factor
    assert clone.description == workload.description
    assert clone.n_requests == workload.n_requests
    for a, b in zip(clone.requests, workload.requests):
        assert (a.rid, a.src, a.dst, a.demand, a.arrival, a.start,
                a.deadline, a.value, a.scavenger) == \
            (b.rid, b.src, b.dst, b.demand, b.arrival, b.start,
             b.deadline, b.value, b.scavenger)


def test_workload_reruns_identically(tmp_path):
    """A reloaded workload produces an identical simulation."""
    from repro.core import PretiumController, PretiumConfig
    from repro.sim import simulate

    topo = small_wan(seed=2)
    workload = build_workload(topo, n_days=1, steps_per_day=6,
                              load_factor=1.0, max_requests_per_pair=3,
                              seed=2)
    path = tmp_path / "wl.json"
    save_workload(workload, path)
    clone = load_workload(path)
    config = PretiumConfig(window=6, lookback=6)
    first = simulate(PretiumController(config), workload)
    second = simulate(PretiumController(config), clone)
    assert first.delivered == pytest.approx(second.delivered)
    assert np.allclose(first.loads, second.loads)


def test_version_checks():
    topo = small_wan(seed=0)
    payload = topology_to_dict(topo)
    payload["version"] = 99
    with pytest.raises(ValueError):
        topology_from_dict(payload)
    payload = topology_to_dict(topo)
    with pytest.raises(ValueError):
        workload_from_dict(payload)  # wrong kind
