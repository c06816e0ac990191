"""Tests for PretiumConfig validation."""

import math

import pytest

from repro.core import PretiumConfig


def test_defaults_match_paper():
    c = PretiumConfig()
    assert c.congestion_threshold == 0.8    # last 20% congested
    assert c.congestion_multiplier == 2.0   # doubled
    assert c.topk_fraction == 0.1           # top 10%
    assert c.percentile == 95.0
    assert c.topk_encoding == "cvar"
    assert c.sam_enabled and c.menu_enabled


@pytest.mark.parametrize("kwargs", [
    {"route_count": 0},
    {"window": 0},
    {"window": 24, "lookback": 12},
    {"initial_price": -1.0},
    {"price_floor": -0.5},
    {"congestion_threshold": 0.0},
    {"congestion_threshold": 1.5},
    {"congestion_multiplier": 0.5},
    {"topk_fraction": 0.0},
    {"topk_fraction": 1.5},
    {"topk_encoding": "bogus"},
    {"percentile": 0.0},
    {"percentile": 101.0},
    {"highpri_fraction": 1.0},
    {"highpri_fraction": -0.1},
    {"initial_price": math.nan},
    {"initial_price": math.inf},
    {"price_floor": math.nan},
    {"price_floor": math.inf},
    {"congestion_multiplier": math.nan},
    {"congestion_multiplier": math.inf},
    {"solver_time_limit": math.nan},
    {"route_count": 2.5},
    {"route_count": True},
])
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        PretiumConfig(**kwargs)


def test_infinite_solver_time_limit_means_no_limit():
    assert PretiumConfig(solver_time_limit=math.inf).solver_time_limit \
        == math.inf


def test_sorting_encoding_accepted():
    assert PretiumConfig(topk_encoding="sorting").topk_encoding == "sorting"


def test_threshold_one_means_no_congested_segment():
    c = PretiumConfig(congestion_threshold=1.0)
    assert c.congestion_threshold == 1.0
