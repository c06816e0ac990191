"""Tests for config derivations added during calibration."""

from repro.core import PretiumConfig


def test_initial_leveling_default_is_window():
    config = PretiumConfig(window=12, lookback=12)
    assert config.initial_metered_leveling == 12


def test_ablation_flags_independent():
    nosam = PretiumConfig(sam_enabled=False)
    assert nosam.menu_enabled
    nomenu = PretiumConfig(menu_enabled=False)
    assert nomenu.sam_enabled
