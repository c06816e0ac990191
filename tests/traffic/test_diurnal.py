"""Tests for diurnal load profiles."""

import numpy as np
import pytest

from repro.traffic import DiurnalProfile, region_profiles


def test_mean_intensity_is_one():
    p = DiurnalProfile(steps_per_day=24, peak_step=9, amplitude=0.6)
    series = p.series(24)
    assert series.mean() == pytest.approx(1.0)


def test_peak_is_at_peak_step():
    p = DiurnalProfile(steps_per_day=24, peak_step=9, amplitude=0.6)
    series = p.series(24)
    assert int(np.argmax(series)) == 9


def test_flat_profile_constant():
    p = DiurnalProfile(12, amplitude=0.0)
    assert np.allclose(p.series(30), 1.0)


def test_periodicity():
    p = DiurnalProfile(steps_per_day=10, peak_step=3, amplitude=0.4)
    series = p.series(30)
    assert np.allclose(series[:10], series[10:20])
    assert series[3] == series[13]


def test_sharpness_concentrates_peak():
    soft = DiurnalProfile(24, peak_step=0, amplitude=0.5, sharpness=1.0)
    sharp = DiurnalProfile(24, peak_step=0, amplitude=0.5, sharpness=3.0)
    # A sharper profile has a higher peak-to-mean ratio.
    assert sharp.series(24).max() > soft.series(24).max() - 1e-9


def test_validation():
    with pytest.raises(ValueError):
        DiurnalProfile(0)
    with pytest.raises(ValueError):
        DiurnalProfile(24, amplitude=1.0)
    with pytest.raises(ValueError):
        DiurnalProfile(24, amplitude=-0.1)
    with pytest.raises(ValueError):
        DiurnalProfile(24, sharpness=0.5)


def test_region_profiles_offset_peaks():
    profiles = region_profiles(24, ["us", "eu", "asia"], amplitude=0.5)
    peaks = {name: int(np.argmax(p.series(24)))
             for name, p in profiles.items()}
    assert len(set(peaks.values())) == 3


def test_region_profiles_empty_rejected():
    with pytest.raises(ValueError):
        region_profiles(24, [])
