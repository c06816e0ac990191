"""Tests for the link cost model (true vs proxy billing)."""

import numpy as np
import pytest

from repro.costs import LinkCostModel
from repro.network import Topology
from tests.builders import line_network


def metered_line() -> Topology:
    t = Topology()
    t.add_link("a", "b", 10.0, metered=True, cost_per_unit=2.0)
    t.add_link("b", "c", 10.0)  # owned, free
    return t


def test_true_cost_single_window():
    topo = metered_line()
    model = LinkCostModel(topo, billing_window=10)
    loads = np.zeros((10, 2))
    loads[:, 0] = np.arange(10.0)
    loads[:, 1] = 100.0  # owned link: must not matter
    expected = 2.0 * np.percentile(np.arange(10.0), 95)
    assert model.true_cost(loads) == pytest.approx(expected)


def test_multiple_billing_windows_summed():
    topo = metered_line()
    model = LinkCostModel(topo, billing_window=5)
    loads = np.zeros((10, 2))
    loads[:5, 0] = 4.0
    loads[5:, 0] = 8.0
    assert model.true_cost(loads) == pytest.approx(2.0 * (4.0 + 8.0))


def test_partial_final_window():
    topo = metered_line()
    model = LinkCostModel(topo, billing_window=8)
    loads = np.ones((10, 2)) * 3.0
    # windows [0:8] and [8:10], both constant 3 -> percentile 3 each
    assert model.true_cost(loads) == pytest.approx(2.0 * 3.0 * 2)


def test_no_metered_links_zero_cost():
    topo = line_network(3)
    model = LinkCostModel(topo, billing_window=5)
    loads = np.ones((10, topo.num_links)) * 7.0
    assert model.true_cost(loads) == 0.0


def test_validation():
    topo = metered_line()
    with pytest.raises(ValueError):
        LinkCostModel(topo, billing_window=0)
    with pytest.raises(ValueError):
        LinkCostModel(topo, billing_window=5, percentile=150)
    model = LinkCostModel(topo, billing_window=5)
    with pytest.raises(ValueError):
        model.true_cost(np.zeros((10, 5)))
    with pytest.raises(ValueError):
        model.true_cost(np.zeros(10))


def test_repr():
    model = LinkCostModel(metered_line(), billing_window=5)
    assert "metered" in repr(model)
