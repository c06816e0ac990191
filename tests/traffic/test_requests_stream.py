"""Stream identity: the de-overheaded ``synthesize_requests`` draws the
same RNG stream, in the same order, as the loop it replaced.

Every request population — and so the benchmark's seed-0 pins and all
the bit-identity suites — depends on this, so equality is field for
field on the dataclass, floats included, never approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import production_wan
from repro.traffic import (NormalValues, ParetoValues, RequestParameters,
                           synthesize_requests, synthesize_tm_series)
from repro.traffic.matrices import TrafficMatrixSeries
from repro.traffic.values import ValueDistribution
from tests.builders import FixedValues, small_wan
from tests.reference.requests import synthesize_requests as reference

DISTRIBUTIONS = [NormalValues(1.0, 0.5), NormalValues(1.0, 3.0),
                 ParetoValues(1.0, 2.5), FixedValues(2.0)]


@pytest.fixture(scope="module")
def series():
    return synthesize_tm_series(small_wan(seed=0), 48, 24, seed=1)


@pytest.mark.parametrize("classes", [None, "default", "qos3"])
@pytest.mark.parametrize("values", DISTRIBUTIONS, ids=lambda d: d.name)
def test_population_equals_the_reference_loop(series, values, classes):
    for seed in (0, 1, 7, 2**31):
        got = synthesize_requests(series, values, seed=seed, classes=classes)
        assert got and got == reference(series, values, seed=seed,
                                        classes=classes)


def test_the_106_node_population_equals_the_reference_loop():
    # The benchmark's world: 105 pairs per source block (small_wan has
    # 19), sized as build_workload sizes requests, five at most a pair.
    wan = production_wan(seed=0)
    series = synthesize_tm_series(wan, 6, 6, seed=1)
    per_pair = series.total() / (wan.num_nodes * (wan.num_nodes - 1))
    shape = RequestParameters(mean_size=per_pair / 8.0,
                              min_size=per_pair / 200.0)
    kwargs = dict(params=shape, max_requests_per_pair=5, seed=3)
    got = synthesize_requests(series, NormalValues(1.0, 0.5), **kwargs)
    assert len(got) > 40_000
    assert got == reference(series, NormalValues(1.0, 0.5), **kwargs)


def test_shape_parameters_and_caps_equal_the_reference_loop(series):
    shape = RequestParameters(mean_size=3.0, size_sigma=1.4,
                              mean_duration=9.0, duration_sigma=0.2,
                              min_size=0.3)
    kwargs = dict(params=shape, max_requests_per_pair=4, seed=5,
                  first_rid=1000, classes="qos3")
    assert synthesize_requests(series, ParetoValues(), **kwargs) == \
        reference(series, ParetoValues(), **kwargs)


@pytest.mark.parametrize("values", DISTRIBUTIONS, ids=lambda d: d.name)
def test_scalar_sample_one_consumes_what_a_size_one_sample_does(values):
    fast, slow = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(200):
        one = values.sample_one(fast)
        assert type(one) is float
        assert one == float(values.sample(slow, 1)[0])
    assert fast.random() == slow.random()          # streams still aligned


def test_a_custom_distribution_falls_back_to_the_array_draw(series):
    class Halves(ValueDistribution):
        def sample(self, rng, size):
            return 0.5 + 0.5 * rng.random(size)

    assert synthesize_requests(series, Halves(), seed=2) == \
        reference(series, Halves(), seed=2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_pmfs_with_zeros_equal_the_reference_loop(data):
    n_steps = data.draw(st.integers(2, 12))
    # Zeros inside, at the head and at the tail of a pair's profile are
    # where a hand-rolled inverse CDF would first disagree with
    # Generator.choice (flat CDF stretches, searchsorted side).
    cell = st.one_of(st.just(0.0), st.floats(1e-6, 50.0))
    demand = np.zeros((n_steps, 3, 3))
    for i, j in ((0, 1), (1, 0), (1, 2), (2, 0)):
        demand[:, i, j] = data.draw(
            st.lists(cell, min_size=n_steps, max_size=n_steps))
    series = TrafficMatrixSeries(["a", "b", "c"], demand)
    seed = data.draw(st.integers(0, 2**32 - 1))
    classes = data.draw(st.sampled_from([None, "qos3"]))
    shape = RequestParameters(mean_size=5.0, min_size=0.05)
    assert synthesize_requests(series, NormalValues(1.0, 0.5), params=shape,
                               seed=seed, classes=classes) == \
        reference(series, NormalValues(1.0, 0.5), params=shape, seed=seed,
                  classes=classes)


def test_a_corrupt_profile_is_rejected_once_per_pair():
    # TrafficMatrixSeries refuses negative demand at construction; a
    # series mutated afterwards must still fail as Generator.choice did.
    demand = np.ones((4, 2, 2))
    series = TrafficMatrixSeries(["a", "b"], demand)
    demand[1, 0, 1] = -0.5
    with pytest.raises(ValueError, match="non-negative"):
        synthesize_requests(series, FixedValues(1.0))
    with pytest.raises(ValueError, match="non-negative"):
        reference(series, FixedValues(1.0))
    # A NaN total never entered the old draw loop, so that pair was
    # dropped silently; the once-per-pair check reports it instead.
    demand[1, 0, 1] = np.nan
    assert [r for r in reference(series, FixedValues(1.0))
            if (r.src, r.dst) == ("a", "b")] == []
    with pytest.raises(ValueError):
        synthesize_requests(series, FixedValues(1.0))
