"""Tests for the shared network state."""

import numpy as np
import pytest

from repro.core import NetworkState, PretiumConfig
from repro.network import Path, parallel_paths_network


def make_state(n_steps=10, **config_kwargs):
    topo = parallel_paths_network(10.0, 10.0)
    defaults = dict(window=5, lookback=5, initial_price=1.0)
    defaults.update(config_kwargs)
    return topo, NetworkState(topo, n_steps, PretiumConfig(**defaults))


def test_initial_prices_and_capacity():
    topo, state = make_state()
    assert state.prices.shape == (10, 4)
    assert np.allclose(state.prices, 1.0)
    assert np.allclose(state.capacity, 10.0)
    assert state.n_steps == 10


def test_metered_links_start_with_cost_gradient():
    from repro.network import Topology
    topo = Topology()
    topo.add_link("a", "b", 10.0, metered=True, cost_per_unit=2.0)
    topo.add_link("b", "c", 10.0)
    config = PretiumConfig(window=10, lookback=10, initial_price=1.0,
                           topk_fraction=0.1)
    state = NetworkState(topo, 10, config)
    # levelled-schedule gradient C_e / W = 2/10 on the metered link
    assert np.allclose(state.prices[:, 0], 1.2)
    assert np.allclose(state.prices[:, 1], 1.0)


def test_highpri_headroom_reduces_capacity():
    _, state = make_state(highpri_fraction=0.2)
    assert np.allclose(state.capacity, 8.0)


def test_reserve_and_residual():
    topo, state = make_state()
    path = Path((topo.link_between("S", "M1"), topo.link_between("M1", "T")))
    state.reserve(1, path, 3, 4.0)
    residual = state.residual(3)
    assert residual[path.link_indices()[0]] == 6.0
    assert residual[path.link_indices()[1]] == 6.0
    assert state.residual_on_path(path, 3) == 6.0
    assert sum(state.plan.get(1, {}).values()) == 4.0


def test_reserve_accepts_raw_indices():
    topo, state = make_state()
    state.reserve(2, (0, 1), 0, 3.0)
    assert state.reserved[0, 0] == 3.0
    assert state.reserved[0, 1] == 3.0
    assert state.planned_at(2, 0) == [((0, 1), 3.0)]


def test_reserve_zero_is_noop():
    _, state = make_state()
    state.reserve(1, (0,), 0, 0.0)
    assert sum(state.plan.get(1, {}).values()) == 0.0
    assert 1 not in state.plan


def test_release_future():
    topo, state = make_state()
    state.reserve(1, (0,), 2, 2.0)
    state.reserve(1, (0,), 5, 3.0)
    state.reserve(1, (1,), 7, 1.0)
    state.release_future(1, from_step=5)
    assert state.reserved[2, 0] == 2.0
    assert state.reserved[5, 0] == 0.0
    assert state.reserved[7, 1] == 0.0
    assert sum(state.plan.get(1, {}).values()) == 2.0


def test_release_future_removes_empty_plans():
    _, state = make_state()
    state.reserve(1, (0,), 2, 2.0)
    state.release_future(1, from_step=0)
    assert 1 not in state.plan
    # releasing an unknown rid is a no-op
    state.release_future(99, from_step=0)


def test_fail_link():
    topo, state = make_state()
    state.fail_link("S", "M1", start=4, end=6)
    index = topo.link_between("S", "M1").index
    assert state.capacity[3, index] == 10.0
    assert state.capacity[4, index] < 1e-6
    assert state.capacity[5, index] < 1e-6
    assert state.capacity[6, index] == 10.0


def test_fail_link_default_end():
    topo, state = make_state()
    state.fail_link("S", "M1", start=4)
    index = topo.link_between("S", "M1").index
    assert np.all(state.capacity[4:, index] < 1e-6)


def test_set_highpri_usage():
    topo, state = make_state()
    index = topo.link_between("S", "M1").index
    state.set_highpri_usage(2, index, 7.5)
    assert state.capacity[2, index] == pytest.approx(2.5)
    state.set_highpri_usage(2, index, 50.0)
    assert state.capacity[2, index] == 0.0


@pytest.mark.parametrize("volume", [-5.0, np.nan, np.inf])
def test_set_highpri_usage_rejects_a_bad_volume(volume):
    topo, state = make_state()
    index = topo.link_between("S", "M1").index
    before = state.capacity.copy(), state.capacity_version
    with pytest.raises(ValueError, match="volume"):
        state.set_highpri_usage(2, index, volume)
    assert np.array_equal(state.capacity, before[0])
    assert state.capacity_version == before[1]


def test_price_segments_split_at_threshold():
    _, state = make_state(congestion_threshold=0.8,
                          congestion_multiplier=2.0)
    segments = state.price_segments(0, 0)
    assert len(segments) == 2
    assert segments[0] == pytest.approx((8.0, 1.0))
    assert segments[1] == pytest.approx((2.0, 2.0))


def test_price_segments_after_reservation():
    _, state = make_state()
    state.reserve(1, (0,), 0, 9.0)  # into the congested zone
    segments = state.price_segments(0, 0)
    assert len(segments) == 1
    assert segments[0][0] == pytest.approx(1.0)
    assert segments[0][1] == pytest.approx(2.0)


def test_price_segments_full_link():
    _, state = make_state()
    state.reserve(1, (0,), 0, 10.0)
    assert state.price_segments(0, 0) == []


def test_price_segments_without_adjustment():
    _, state = make_state(short_term_adjustment=False)
    segments = state.price_segments(0, 0)
    assert segments == [(10.0, 1.0)]


def test_price_segments_reserved_override():
    _, state = make_state()
    segments = state.price_segments(0, 0, reserved_override=9.5)
    assert len(segments) == 1
    assert segments[0][0] == pytest.approx(0.5)


def test_set_prices_tiles_forward():
    _, state = make_state(n_steps=10)
    new = np.full((5, 4), 7.0)
    new[2, :] = 9.0
    state.set_prices(5, new)
    assert np.allclose(state.prices[:5], 1.0)      # past untouched
    assert np.allclose(state.prices[5], 7.0)
    assert np.allclose(state.prices[7], 9.0)       # offset 2 in window
    assert state.n_steps == 10


def test_set_prices_applies_floor():
    _, state = make_state(price_floor=0.5)
    state.set_prices(0, np.zeros((5, 4)))
    assert np.allclose(state.prices, 0.5)


def test_set_prices_validation():
    _, state = make_state()
    with pytest.raises(ValueError):
        state.set_prices(0, np.zeros((5, 3)))
    for bad in (np.zeros((0, 4)), np.full((5, 4), np.nan),
                np.full((5, 4), np.inf)):
        with pytest.raises(ValueError, match="prices"):
            state.set_prices(0, bad)
    assert np.allclose(state.prices, 1.0)       # nothing was installed
    with pytest.raises(ValueError):
        NetworkState(parallel_paths_network(), 0,
                     PretiumConfig(window=5, lookback=5))
