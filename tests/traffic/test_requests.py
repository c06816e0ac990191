"""Tests for request synthesis and the request types."""

import numpy as np
import pytest

from repro.core.request import ByteRequest, RateRequest
from repro.network import small_wan
from repro.traffic import (FixedValues, NormalValues, RequestParameters,
                           synthesize_requests, synthesize_tm_series,
                           total_demand)


def make_requests(seed=0, **params):
    topo = small_wan(seed=0)
    series = synthesize_tm_series(topo, 48, 24, seed=seed)
    return series, synthesize_requests(
        series, NormalValues(1.0, 0.4),
        params=RequestParameters(**params) if params else None, seed=seed)


# -- ByteRequest / RateRequest types ------------------------------------

def test_byte_request_window():
    r = ByteRequest(1, "a", "b", 10.0, arrival=2, start=2, deadline=5,
                    value=1.0)
    assert list(r.window) == [2, 3, 4, 5]
    assert r.window_length == 4
    assert r.total_value == 10.0


def test_byte_request_validation():
    with pytest.raises(ValueError):
        ByteRequest(1, "a", "a", 10, 0, 0, 1, 1.0)
    with pytest.raises(ValueError):
        ByteRequest(1, "a", "b", 0, 0, 0, 1, 1.0)
    with pytest.raises(ValueError):
        ByteRequest(1, "a", "b", 10, 0, 0, 1, -1.0)
    with pytest.raises(ValueError):
        ByteRequest(1, "a", "b", 10, 0, 2, 1, 1.0)  # deadline < start
    with pytest.raises(ValueError):
        ByteRequest(1, "a", "b", 10, 3, 2, 5, 1.0)  # start < arrival


def test_byte_request_with_window_and_demand():
    r = ByteRequest(1, "a", "b", 10.0, 0, 0, 5, 1.0)
    r2 = r.with_window(1, 3)
    assert (r2.start, r2.deadline) == (1, 3)
    assert r2.rid == r.rid
    r3 = r.with_demand(4.0)
    assert r3.demand == 4.0


def test_rate_request_expansion():
    rr = RateRequest(9, "a", "b", rate=5.0, arrival=0, start=2, end=4,
                     value=2.0)
    subs = rr.to_byte_requests(id_offset=100)
    assert len(subs) == 3
    assert [s.rid for s in subs] == [100, 101, 102]
    assert all(s.demand == 5.0 for s in subs)
    assert all(s.start == s.deadline for s in subs)
    assert [s.start for s in subs] == [2, 3, 4]
    assert all(s.value == 2.0 for s in subs)


def test_rate_request_validation():
    with pytest.raises(ValueError):
        RateRequest(1, "a", "b", 0.0, 0, 0, 3, 1.0)
    with pytest.raises(ValueError):
        RateRequest(1, "a", "b", 1.0, 0, 3, 2, 1.0)
    with pytest.raises(ValueError):
        RateRequest(1, "a", "a", 1.0, 0, 0, 2, 1.0)
    with pytest.raises(ValueError):
        RateRequest(1, "a", "b", 1.0, 2, 0, 3, 1.0)
    with pytest.raises(ValueError):
        RateRequest(1, "a", "b", 1.0, 0, 0, 3, -1.0)


# -- synthesis -----------------------------------------------------------

@pytest.mark.parametrize("field, bad", [
    ("mean_size", -1.0), ("mean_size", 0.0), ("mean_size", float("nan")),
    ("mean_duration", 0.0), ("size_sigma", -0.1),
    ("duration_sigma", -0.1), ("min_size", -0.5),
])
def test_request_parameters_reject_shapes_that_draw_garbage(field, bad):
    # mean_size=-1 made every lognormal draw NaN, and each request came
    # out exactly min_size; mean_duration=0 made every window one step.
    with pytest.raises(ValueError, match=field):
        RequestParameters(**{field: bad})


def test_request_parameters_accept_the_boundaries():
    RequestParameters(size_sigma=0.0, duration_sigma=0.0, min_size=0.0)


def test_requests_cover_tm_volume():
    series, requests = make_requests()
    assert total_demand(requests) == pytest.approx(series.total(), rel=0.02)


def test_requests_sorted_by_arrival():
    _, requests = make_requests()
    arrivals = [r.arrival for r in requests]
    assert arrivals == sorted(arrivals)


def test_request_ids_unique():
    _, requests = make_requests()
    rids = [r.rid for r in requests]
    assert len(set(rids)) == len(rids)


def test_windows_within_horizon():
    series, requests = make_requests()
    for r in requests:
        assert 0 <= r.arrival == r.start <= r.deadline < series.n_steps


def test_determinism():
    _, a = make_requests(seed=3)
    _, b = make_requests(seed=3)
    assert [(r.rid, r.src, r.dst, r.demand, r.arrival, r.deadline, r.value)
            for r in a] == \
           [(r.rid, r.src, r.dst, r.demand, r.arrival, r.deadline, r.value)
            for r in b]


def test_arrivals_track_demand_profile():
    """Arrival counts should correlate with the TM temporal profile."""
    topo = small_wan(seed=0)
    series = synthesize_tm_series(topo, 48, 24, diurnal_amplitude=0.7,
                                  noise_sigma=0.0, flash_crowd_rate=0.0,
                                  seed=1)
    requests = synthesize_requests(series, FixedValues(1.0), seed=1)
    totals = series.demand.sum(axis=(1, 2))
    counts = np.zeros(48)
    for r in requests:
        counts[r.arrival] += r.demand
    corr = np.corrcoef(totals, counts)[0, 1]
    assert corr > 0.3


def test_max_requests_per_pair_respected():
    topo = small_wan(seed=0)
    series = synthesize_tm_series(topo, 48, 24, seed=0)
    requests = synthesize_requests(
        series, FixedValues(1.0),
        params=RequestParameters(mean_size=0.01, min_size=0.001),
        max_requests_per_pair=5, seed=0)
    from collections import Counter
    per_pair = Counter((r.src, r.dst) for r in requests)
    assert max(per_pair.values()) <= 5


def test_values_drawn_from_distribution():
    _, requests = make_requests()
    values = np.array([r.value for r in requests])
    assert values.mean() == pytest.approx(1.0, abs=0.15)
    assert values.std() > 0.1
