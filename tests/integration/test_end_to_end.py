"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro.baselines import OfflineOptimal, RegionOracle
from repro.core import PretiumController, PretiumConfig
from repro.experiments import quick_scenario, run_schemes, standard_scenario
from repro.sim import metrics, simulate


def test_quick_scenario_full_stack():
    """All major schemes on one small scenario; the accounting holds."""
    scenario = quick_scenario(load_factor=2.0, seed=0)
    results = run_schemes(("OPT", "NoPrices", "RegionOracle", "Pretium"),
                          scenario)
    opt_welfare = metrics.welfare(results["OPT"], scenario.cost_model)
    assert opt_welfare > 0
    for name, result in results.items():
        welfare = metrics.welfare(result, scenario.cost_model)
        assert welfare <= opt_welfare + 1e-6, name
        # loads fit capacity for every scheme
        caps = np.array([l.capacity for l in scenario.topology.links])
        assert np.all(result.loads <= caps[None, :] * (1 + 1e-6) + 1e-6)


def test_pretium_beats_noprices_on_welfare():
    scenario = quick_scenario(load_factor=2.0, seed=1)
    results = run_schemes(("NoPrices", "Pretium"), scenario)
    pretium = metrics.welfare(results["Pretium"], scenario.cost_model)
    noprices = metrics.welfare(results["NoPrices"], scenario.cost_model)
    assert pretium > noprices


def test_determinism_of_full_runs():
    scenario = quick_scenario(load_factor=2.0, seed=5)
    first = simulate(PretiumController(), scenario.workload)
    second = simulate(PretiumController(), scenario.workload)
    assert first.delivered == pytest.approx(second.delivered)
    assert first.payments == pytest.approx(second.payments)
    assert np.allclose(first.loads, second.loads)


def test_highpri_headroom_respected_end_to_end():
    scenario = quick_scenario(load_factor=4.0, seed=2)
    config = PretiumConfig(window=8, lookback=8, highpri_fraction=0.3)
    controller = PretiumController(config)
    result = simulate(controller, scenario.workload)
    caps = np.array([l.capacity for l in scenario.topology.links])
    assert np.all(result.loads <= caps[None, :] * 0.7 * (1 + 1e-6) + 1e-6)


@pytest.mark.slow
def test_production_scale_smoke():
    """The paper-scale preset (106 nodes / ~226 edges) runs end to end."""
    from repro.experiments import production_scenario
    scenario = production_scenario(load_factor=1.0)
    assert scenario.topology.num_nodes == 106
    result = simulate(PretiumController(), scenario.workload)
    welfare = metrics.welfare(result, scenario.cost_model)
    assert welfare > 0
    assert metrics.completion_fraction(result, "chosen") > 0.8
