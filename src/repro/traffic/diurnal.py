"""Diurnal load profiles.

The paper's trace shows strong daily periodicity with significant
short-term variation (§2, Figure 1).  A :class:`DiurnalProfile` gives the
relative traffic intensity at each timestep of a day; regions are assigned
phase offsets so that their peaks fall at different UTC times, which is
what creates the spatial price differentiation Pretium exploits.
"""

from __future__ import annotations

import math

import numpy as np


class DiurnalProfile:
    """A smooth day-periodic intensity curve.

    ``intensity(t)`` is ``1 + amplitude * cos(...)`` shaped so that the
    mean over a full day is 1.0 — scaling a base demand by the profile
    preserves daily totals.

    Parameters
    ----------
    steps_per_day:
        Timesteps per 24h (the paper uses 5-minute steps, i.e. 288; the
        default benchmark scale uses 24).
    peak_step:
        Timestep of the daily maximum.
    amplitude:
        Peak-to-mean excess in [0, 1); 0 gives a flat profile.
    sharpness:
        Exponent (>=1) applied to the positive half-wave; larger values
        concentrate the peak (more "business hours"-like).
    """

    def __init__(self, steps_per_day: int, peak_step: float = 0.0,
                 amplitude: float = 0.5, sharpness: float = 1.0) -> None:
        if steps_per_day <= 0:
            raise ValueError("steps_per_day must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if sharpness < 1.0:
            raise ValueError("sharpness must be >= 1")
        self.steps_per_day = steps_per_day
        self.peak_step = float(peak_step)
        self.amplitude = amplitude
        self.sharpness = sharpness
        self._shape = self._build_shape()

    def _build_shape(self) -> np.ndarray:
        steps = np.arange(self.steps_per_day, dtype=float)
        phase = 2.0 * math.pi * (steps - self.peak_step) / self.steps_per_day
        wave = np.cos(phase)
        if self.sharpness != 1.0:
            wave = np.sign(wave) * np.abs(wave) ** self.sharpness
        shape = 1.0 + self.amplitude * wave
        # Renormalise so a day's mean intensity is exactly 1.
        return shape / shape.mean()

    def intensity(self, t: int) -> float:
        """Relative intensity at (absolute) timestep ``t``."""
        return float(self._shape[t % self.steps_per_day])

    def series(self, n_steps: int) -> np.ndarray:
        """Intensity for timesteps ``0..n_steps-1``."""
        reps = -(-n_steps // self.steps_per_day)
        return np.tile(self._shape, reps)[:n_steps]


def flat_profile(steps_per_day: int) -> DiurnalProfile:
    """A profile with no daily variation."""
    return DiurnalProfile(steps_per_day, amplitude=0.0)


def region_profiles(steps_per_day: int, region_names, amplitude: float = 0.5,
                    sharpness: float = 1.5) -> dict[str, DiurnalProfile]:
    """One profile per region, peaks spread evenly around the clock.

    Models timezone-shifted business hours: each region's peak is offset by
    ``steps_per_day / n_regions`` from the previous one.
    """
    names = list(region_names)
    if not names:
        raise ValueError("need at least one region")
    offset = steps_per_day / len(names)
    return {
        name: DiurnalProfile(steps_per_day, peak_step=i * offset,
                             amplitude=amplitude, sharpness=sharpness)
        for i, name in enumerate(names)
    }
