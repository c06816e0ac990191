"""Tests for the :class:`repro.options.ServiceOptions` bundle.

Mirrors the :class:`RunOptions` contract: eager validation at
construction, frozen + picklable, ``replace()`` for variants, and the
knobs reachable end-to-end through :func:`repro.serve` and the CLI.
"""

import dataclasses
import pickle

import pytest

import repro
from repro.options import ServiceOptions


def test_defaults_are_live_service_shaped():
    options = ServiceOptions()
    assert options.batch_window == 0.0
    assert options.batch_max >= 1
    assert options.cache_size > 0          # warm cache on by default
    assert options.quote_deadline is None  # no budget unless asked
    assert options.max_pending >= 1


@pytest.mark.parametrize("kwargs", [
    dict(batch_window=-0.1),
    dict(batch_window=float("inf")),
    dict(batch_window=float("nan")),
    dict(batch_max=0),
    dict(cache_size=-1),
    dict(quote_deadline=0.0),
    dict(quote_deadline=-1.0),
    dict(quote_deadline=float("inf")),
    dict(quote_deadline=float("nan")),
    dict(max_pending=0),
    dict(metrics_port=-1),
    dict(metrics_port=65536),
])
def test_invalid_values_rejected_eagerly(kwargs):
    with pytest.raises(ValueError):
        ServiceOptions(**kwargs)


def test_boundary_values_accepted():
    options = ServiceOptions(batch_window=0.0, batch_max=1, cache_size=0,
                             quote_deadline=1e-9, max_pending=1)
    assert options.cache_size == 0


def test_frozen_replace_and_pickle_roundtrip():
    options = ServiceOptions(batch_window=0.01, cache_size=64)
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.cache_size = 0
    variant = options.replace(cache_size=0)
    assert variant.cache_size == 0
    assert variant.batch_window == options.batch_window
    assert options.cache_size == 64        # original untouched
    clone = pickle.loads(pickle.dumps(options))
    assert clone == options


def test_service_options_exported_from_api():
    assert repro.ServiceOptions is ServiceOptions


def test_serve_threads_options_through_to_engine_and_service():
    service_options = ServiceOptions(cache_size=7, batch_max=3,
                                     max_pending=5)
    with repro.serve("Pretium", "tiny",
                     service_options=service_options) as svc:
        assert svc.service.options is service_options
        assert svc.engine.options is service_options
        cache = svc.engine.scheme.menu_cache
        assert cache is not None and cache.max_entries == 7
        svc.close()


def test_serve_with_cache_disabled_builds_no_cache():
    with repro.serve(
            "Pretium", "tiny",
            service_options=ServiceOptions(cache_size=0)) as svc:
        assert svc.engine.scheme.menu_cache is None
        assert svc.engine.scheme.admission.cache is None
        svc.close()


def test_metrics_port_default_runs_no_server():
    with repro.serve("Pretium", "tiny") as svc:
        assert svc.service.metrics_server is None
        svc.close()


def test_metrics_bind_conflict_fails_start_and_stops_loop():
    """A taken metrics port must not leave a half-started service: the
    loop thread is torn down and the failure surfaces to the caller."""
    from repro.telemetry import MetricsRegistry
    from repro.telemetry.live import LiveMetricsServer

    squatter = LiveMetricsServer(MetricsRegistry(), port=0,
                                 snapshot_period=0).start()
    try:
        with pytest.raises(OSError):
            repro.serve("Pretium", "tiny",
                        service_options=ServiceOptions(
                            metrics_port=squatter.port))
    finally:
        squatter.stop()
