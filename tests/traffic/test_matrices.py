"""Tests for traffic-matrix synthesis and routing characterisation."""

import numpy as np
import pytest

from repro.network import (PathCache, line_network, small_wan,
                           wan_topology)
from repro.traffic import (TrafficMatrixSeries, gravity_weights,
                           route_series_on_shortest_paths,
                           synthesize_tm_series,
                           utilization_percentile_ratios)


def make_series(**kwargs):
    topo = small_wan(seed=0)
    defaults = dict(n_steps=48, steps_per_day=24, seed=0)
    defaults.update(kwargs)
    return topo, synthesize_tm_series(topo, **defaults)


def test_series_shape_and_nonneg():
    topo, series = make_series()
    assert series.demand.shape == (48, 20, 20)
    assert np.all(series.demand >= 0)
    assert np.all(np.diagonal(series.demand, axis1=1, axis2=2) == 0)


def test_series_determinism():
    _, a = make_series(seed=5)
    _, b = make_series(seed=5)
    assert np.array_equal(a.demand, b.demand)
    _, c = make_series(seed=6)
    assert not np.array_equal(a.demand, c.demand)


def test_scaled():
    _, series = make_series()
    doubled = series.scaled(2.0)
    assert doubled.total() == pytest.approx(2.0 * series.total())
    with pytest.raises(ValueError):
        series.scaled(-1.0)
    for factor in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            series.scaled(factor)


def test_gravity_concentration():
    """Heavier gravity sigma concentrates volume on fewer pairs."""
    topo = small_wan(seed=0)
    flat = synthesize_tm_series(topo, 24, 24, gravity_sigma=0.1,
                                noise_sigma=0.0, flash_crowd_rate=0.0, seed=1)
    skewed = synthesize_tm_series(topo, 24, 24, gravity_sigma=2.0,
                                  noise_sigma=0.0, flash_crowd_rate=0.0,
                                  seed=1)

    def top10_share(series):
        totals = np.sort(series.demand.sum(axis=0), axis=None)[::-1]
        return totals[:10].sum() / totals.sum()

    assert top10_share(skewed) > top10_share(flat)


def test_diurnal_modulation_visible():
    topo = small_wan(seed=0)
    series = synthesize_tm_series(topo, 48, 24, diurnal_amplitude=0.7,
                                  noise_sigma=0.0, flash_crowd_rate=0.0,
                                  seed=2)
    totals = series.demand.sum(axis=(1, 2))
    assert totals.max() / totals.min() > 1.3


def test_flash_crowds_create_spikes():
    topo = small_wan(seed=0)
    calm = synthesize_tm_series(topo, 96, 24, flash_crowd_rate=0.0,
                                noise_sigma=0.0, seed=3)
    spiky = synthesize_tm_series(topo, 96, 24, flash_crowd_rate=0.1,
                                 flash_magnitude=10.0, noise_sigma=0.0,
                                 seed=3)
    assert spiky.total() > calm.total()


def test_constructor_validation():
    with pytest.raises(ValueError):
        TrafficMatrixSeries(["a", "b"], np.zeros((4, 3, 3)))
    with pytest.raises(ValueError):
        TrafficMatrixSeries(["a", "b"], -np.ones((4, 2, 2)))
    with pytest.raises(ValueError):
        synthesize_tm_series(small_wan(), 0, 24)


@pytest.mark.parametrize("cell", [np.nan, np.inf])
def test_non_finite_demand_is_rejected_at_construction(cell):
    # ``demand < 0`` is False on NaN: one NaN cell used to drop every
    # link its pair crosses from calibration's mean without a word.
    demand = np.ones((4, 2, 2))
    demand[2, 0, 1] = cell
    with pytest.raises(ValueError, match="non-finite"):
        TrafficMatrixSeries(["a", "b"], demand)


def test_gravity_weights_normalised():
    w = gravity_weights(10, np.random.default_rng(0))
    assert w.sum() == pytest.approx(1.0)
    assert np.all(w > 0)


def test_routing_on_line_network():
    topo = line_network(3, capacity=10.0)
    nodes = topo.nodes
    demand = np.zeros((2, 3, 3))
    demand[:, 0, 2] = 4.0  # n0 -> n2 both steps
    series = TrafficMatrixSeries(nodes, demand)
    loads = route_series_on_shortest_paths(topo, series)
    assert loads.shape == (2, 2)
    assert np.allclose(loads, 4.0)


def test_routing_equals_the_per_link_accumulation_bit_for_bit():
    """One ``np.add.at`` per source == the old loop over each pair's
    links, pair by pair."""
    topo = wan_topology(n_nodes=12, n_regions=3, seed=2)
    series = synthesize_tm_series(topo, 30, 10, flash_crowd_rate=0.1, seed=2)
    series.demand[:, 0, 1] = 0.0                    # a zero-demand pair
    cache = PathCache(topo, k=1)
    expected = np.zeros((series.n_steps, topo.num_links))
    for i, src in enumerate(series.nodes):
        for j, dst in enumerate(series.nodes):
            if i != j and series.demand[:, i, j].sum() > 0:
                for index in cache.routes(src, dst)[0].link_indices():
                    expected[:, index] += series.demand[:, i, j]
    loads = route_series_on_shortest_paths(topo, series)
    assert np.array_equal(loads, expected)


def test_utilization_ratio_excludes_idle_links():
    loads = np.zeros((10, 3))
    loads[:, 0] = np.linspace(1, 10, 10)  # varying
    # link 1 idle; link 2 constant
    loads[:, 2] = 5.0
    ratios = utilization_percentile_ratios(loads)
    assert len(ratios) == 2
    assert ratios[1] == pytest.approx(1.0)
    assert ratios[0] > 1.0
    with pytest.raises(ValueError):
        utilization_percentile_ratios(np.zeros(5))


def test_figure1_shape_on_synthetic_trace():
    """The synthetic trace reproduces Figure 1's qualitative shape:
    most links have small 90/10 ratios, a tail has large ones."""
    topo = wan_topology(n_nodes=24, n_regions=4, seed=4)
    series = synthesize_tm_series(topo, 7 * 24, 24, noise_sigma=0.4,
                                  flash_crowd_rate=0.05, seed=4)
    loads = route_series_on_shortest_paths(topo, series)
    ratios = utilization_percentile_ratios(loads)
    assert len(ratios) > 10
    assert np.median(ratios) < 5.0
    assert ratios.max() > np.median(ratios)
