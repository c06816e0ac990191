"""Tests for request value distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic import (NormalValues, ParetoValues, normal_with_ratio,
                           pareto_with_ratio)

RNG = np.random.default_rng(42)


@pytest.mark.parametrize("dist", [
    NormalValues(1.0, 0.5),
    ParetoValues(1.0, 2.5),
])
def test_samples_positive(dist):
    samples = dist.sample(np.random.default_rng(0), 2000)
    assert samples.shape == (2000,)
    assert np.all(samples > 0)


@pytest.mark.parametrize("dist,mean", [
    (NormalValues(2.0, 0.4), 2.0),
    (ParetoValues(2.0, 3.0), 2.0),
])
def test_sample_mean_close_to_target(dist, mean):
    samples = dist.sample(np.random.default_rng(7), 60000)
    assert samples.mean() == pytest.approx(mean, rel=0.08)


def test_pareto_heavy_tail_vs_normal():
    rng = np.random.default_rng(11)
    pareto = ParetoValues(1.0, 2.2).sample(rng, 50000)
    normal = NormalValues(1.0, 0.5).sample(rng, 50000)
    assert np.percentile(pareto, 99.9) > np.percentile(normal, 99.9)


def test_names_describe_distribution():
    assert "normal" in NormalValues(1, 0.5).name
    assert "pareto" in ParetoValues(1, 2).name


def test_validation():
    with pytest.raises(ValueError):
        NormalValues(0.0, 0.5)
    with pytest.raises(ValueError):
        NormalValues(1.0, -0.1)
    with pytest.raises(ValueError):
        ParetoValues(1.0, 1.0)
    with pytest.raises(ValueError):
        ParetoValues(-1.0, 2.0)
    with pytest.raises(ValueError):
        normal_with_ratio(0.0)
    with pytest.raises(ValueError):
        pareto_with_ratio(-1.0)


@settings(max_examples=20, deadline=None)
@given(ratio=st.floats(min_value=0.5, max_value=8.0))
def test_normal_ratio_property(ratio):
    dist = normal_with_ratio(ratio, mean=2.0)
    assert dist.mean / dist.sigma == pytest.approx(ratio)


@settings(max_examples=10, deadline=None)
@given(ratio=st.floats(min_value=1.5, max_value=6.0))
def test_pareto_ratio_property(ratio):
    """Empirical mean/std of the constructed Pareto matches the ratio."""
    dist = pareto_with_ratio(ratio, mean=1.0)
    samples = dist.sample(np.random.default_rng(3), 400000)
    got = samples.mean() / samples.std()
    assert got == pytest.approx(ratio, rel=0.25)


def test_pareto_ratio_mean_preserved():
    samples = pareto_with_ratio(3.0, mean=2.5).sample(
        np.random.default_rng(5), 200000)
    assert samples.mean() == pytest.approx(2.5, rel=0.05)


@pytest.mark.parametrize("build, says", [
    (lambda: NormalValues(float("nan")), "NormalValues: mean must be finite"),
    (lambda: NormalValues(1, float("inf")),
     "NormalValues: sigma must be finite"),
    (lambda: ParetoValues(float("inf")), "ParetoValues: mean must be finite"),
    (lambda: ParetoValues(1, float("inf")),
     "ParetoValues: alpha must be finite"),
], ids=["normal-nan-mean", "normal-inf-sigma", "pareto-inf-mean",
        "pareto-inf-alpha"])
def test_non_finite_parameters_are_rejected_by_name(build, says):
    with pytest.raises(ValueError, match=says):
        build()
