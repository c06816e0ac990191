"""Tests for the scheme runner, scenarios and report formatting."""

import numpy as np
import pytest

from repro.experiments import (format_series, format_table,
                               make_scheme, quick_scenario, run_scheme,
                               run_schemes, standard_scenario,
                               standard_topology, summaries)
from repro.registry import SCHEMES
from repro.sim import metrics


def test_all_factories_instantiable():
    for name in SCHEMES.names():
        scheme = make_scheme(name)
        assert scheme is not None


def test_make_scheme_unknown():
    with pytest.raises(KeyError):
        make_scheme("Gurobi")


def test_quick_scenario_shape():
    scenario = quick_scenario(seed=1)
    assert scenario.workload.n_requests > 10
    assert scenario.workload.topology.metered_links()
    assert "load=2" in scenario.description


def test_standard_topology_cost_factor():
    base = standard_topology(seed=0)
    doubled = standard_topology(seed=0, cost_factor=2.0)
    for link, scaled in zip(base.links, doubled.links):
        assert scaled.cost_per_unit == pytest.approx(2 * link.cost_per_unit)


def test_standard_scenario_load_scaling():
    light = standard_scenario(load_factor=0.5, n_days=1, seed=0)
    heavy = standard_scenario(load_factor=2.0, n_days=1, seed=0)
    assert heavy.workload.total_demand() > 2 * light.workload.total_demand()


def test_run_scheme_accepts_names_and_instances():
    scenario = quick_scenario(seed=0)
    by_name = run_scheme("NoPrices", scenario)
    assert by_name.scheme_name == "NoPrices"
    from repro.baselines import NoPrices
    by_instance = run_scheme(NoPrices(), scenario)
    assert by_instance.delivered == pytest.approx(by_name.delivered)


def test_run_schemes_and_summaries():
    scenario = quick_scenario(seed=0)
    results = run_schemes(("OPT", "Pretium"), scenario)
    assert set(results) == {"OPT", "Pretium"}
    records = summaries(results, scenario)
    assert records["OPT"]["welfare"] >= records["Pretium"]["welfare"] - 1e-6
    assert records["Pretium"]["scheme"] == "Pretium"


def test_opt_dominates_pretium_on_quick_scenario():
    scenario = quick_scenario(seed=2)
    results = run_schemes(("OPT", "Pretium"), scenario)
    opt = metrics.welfare(results["OPT"], scenario.cost_model)
    pretium = metrics.welfare(results["Pretium"], scenario.cost_model)
    assert pretium <= opt + 1e-6
    assert pretium > 0


def test_format_table_alignment():
    table = format_table(["a", "bb"], [[1, 2.5], ["xx", 12345.6]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert "12346" in lines[3]


def test_format_series():
    out = format_series("demo", [1, 2], {"s1": [0.1, 0.2], "s2": [3, 4]},
                        x_label="load")
    assert out.startswith("== demo ==")
    assert "load" in out and "s1" in out
    assert "0.200" in out


def test_format_handles_nan():
    out = format_table(["x"], [[float("nan")]])
    assert "nan" in out


def test_make_scheme_accepts_kwargs():
    scheme = make_scheme("RegionOracle", grid_points=3)
    assert scheme.grid_points == 3
    default = make_scheme("RegionOracle")
    assert default.grid_points == 5


def test_scheme_specs_are_picklable():
    import pickle
    from repro.experiments import SCHEME_SPECS
    for name, spec in SCHEME_SPECS.items():
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.name == name
        assert clone.build() is not None
