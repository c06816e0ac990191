"""Smoke tests for the cheap figure generators.

The generators that run in seconds (Figures 1, 2, 4 and 5) and the §5
deviation machinery are covered here.  Figures 7, 10 and 12-14 run only
in the benchmarks; Figures 6, 8, 9 and 11 come from the ``figures``
campaign preset, whose checks and ``figure`` dispatch are tested in
``tests/experiments/test_campaign.py`` and ``tests/test_cli.py``.
"""

import numpy as np
import pytest

from repro.core import ByteRequest
from repro.experiments import deviation_study, quick_scenario
from repro.experiments.figures import figure1, figure2, figure4, figure5
from repro.experiments.incentives import (DeviationOutcome, DeviationReport,
                                          _deviant_workload, utility_in_run)
from repro.network import parallel_paths_network
from repro.traffic import Workload


def test_figure1_shape():
    data = figure1(seed=0, n_nodes=16, days=3)
    assert len(data["ratios"]) == len(data["cdf"])
    assert 0 <= data["fraction_above_5x"] <= 1
    assert 0 <= data["fraction_below_2x"] <= 1
    assert np.all(np.diff(data["cdf"]) >= 0)


def test_figure2_welfare():
    data = figure2()
    assert data["welfare"]["pretium"] == pytest.approx(34.0)
    assert data["welfare"]["no-price"] == pytest.approx(23.0)


def test_figure4_deadline_monotonicity():
    data = figure4(seed=0)
    assert data["loose"]["x_bar"] >= data["tight"]["x_bar"] - 1e-9
    if data["tight"]["breakpoints"] and data["loose"]["breakpoints"]:
        # first marginal price: loose deadline is no more expensive
        assert data["loose"]["breakpoints"][0][1] <= \
            data["tight"]["breakpoints"][0][1] + 1e-9


def test_figure5_correlations():
    data = figure5(seed=0)
    assert set(data) == {"normal", "exponential", "pareto"}
    for stats in data.values():
        assert stats["r"] > 0.85
        assert stats["slope"] > 0
        assert len(stats["points"]) == 60


# -- §5 deviation machinery ----------------------------------------------

def deviation_workload():
    topo = parallel_paths_network(10.0, 10.0)
    reqs = [ByteRequest(0, "S", "T", 8.0, 0, 0, 2, 2.0),
            ByteRequest(1, "S", "T", 5.0, 1, 1, 3, 1.5)]
    return Workload(topo, reqs, n_steps=4, steps_per_day=4)


def test_deviant_workload_later_deadline():
    wl = deviation_workload()
    deviant, rids = _deviant_workload(wl, wl.requests[0], "later-deadline",
                                      stretch=2)
    assert rids == (0,)
    altered = [r for r in deviant.requests if r.rid == 0][0]
    assert altered.deadline == 3  # clamped to horizon
    assert deviant.n_requests == 2


def test_deviant_workload_split():
    wl = deviation_workload()
    deviant, rids = _deviant_workload(wl, wl.requests[0], "split", 1)
    assert len(rids) == 2
    halves = [r for r in deviant.requests if r.rid in rids]
    assert sum(r.demand for r in halves) == pytest.approx(8.0)
    assert deviant.n_requests == 3


def test_deviant_workload_inflate():
    wl = deviation_workload()
    deviant, rids = _deviant_workload(wl, wl.requests[0], "inflate-demand", 1)
    altered = [r for r in deviant.requests if r.rid == 0][0]
    assert altered.demand == pytest.approx(12.0)


def test_deviant_workload_earlier_skips_one_step_windows():
    topo = parallel_paths_network()
    reqs = [ByteRequest(0, "S", "T", 2.0, 0, 0, 0, 1.0)]
    wl = Workload(topo, reqs, n_steps=2, steps_per_day=2)
    _, rids = _deviant_workload(wl, reqs[0], "earlier-deadline", 1)
    assert rids == ()


def test_deviant_workload_unknown():
    wl = deviation_workload()
    with pytest.raises(ValueError):
        _deviant_workload(wl, wl.requests[0], "bribe", 1)


def test_deviation_report_aggregates():
    outcomes = [
        DeviationOutcome(1, "split", 10.0, 12.0),       # +20%
        DeviationOutcome(1, "later-deadline", 10.0, 9.0),
        DeviationOutcome(2, "split", 5.0, 5.0),
    ]
    report = DeviationReport(outcomes)
    assert report.n_requests == 2
    assert report.fraction_benefiting == pytest.approx(0.5)
    assert report.mean_relative_gain == pytest.approx(0.2)


def test_deviation_report_empty():
    report = DeviationReport([])
    assert report.fraction_benefiting == 0.0
    assert report.mean_relative_gain == 0.0


def test_deviation_study_runs_end_to_end():
    report = deviation_study(quick_scenario(seed=3).workload, n_samples=3,
                             deviations=("later-deadline", "split"), seed=0)
    assert report.outcomes
    assert 0.0 <= report.fraction_benefiting <= 1.0


def test_truthfulness_on_uncontended_network():
    """With ample capacity and flat prices, deviations cannot help."""
    wl = deviation_workload()
    report = deviation_study(wl, n_samples=2, seed=0)
    for outcome in report.outcomes:
        assert outcome.gain <= 1e-6
