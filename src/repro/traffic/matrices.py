"""Traffic-matrix time series.

The paper converts a month of sampled NetFlow data into a time series of
inter-datacenter traffic matrices and synthesizes requests from it (§6.1).
We reproduce the generative structure that the paper's own analysis (§2)
attributes to the trace:

- strong daily periodicity, with regions peaking at offset times;
- a gravity-model spatial structure (a few heavy pairs dominate — "fewer
  transfers contribute substantial portions of the overall traffic");
- significant short-term variation: multiplicative noise plus occasional
  flash crowds (and, optionally, link-failure shocks handled by rerouting
  in the simulator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network import Topology
from .diurnal import DiurnalProfile, region_profiles


@dataclass
class FlashCrowd:
    """A transient demand spike on one datacenter pair."""

    src_index: int
    dst_index: int
    start: int
    duration: int
    magnitude: float


class TrafficMatrixSeries:
    """Demand between node pairs per timestep.

    ``demand[t, i, j]`` is the volume originating at node ``i`` destined to
    node ``j`` during timestep ``t`` (diagonal is zero).
    """

    def __init__(self, nodes: list[str], demand: np.ndarray) -> None:
        n = len(nodes)
        if demand.ndim != 3 or demand.shape[1:] != (n, n):
            raise ValueError(f"demand must be (T, {n}, {n}); "
                             f"got {demand.shape}")
        # A NaN cell passes ``demand < 0`` and would silently drop the
        # links its pair crosses from calibration's mean.
        if not np.isfinite(demand).all():
            raise ValueError("non-finite demand")
        if np.any(demand < 0):
            raise ValueError("negative demand")
        self.nodes = list(nodes)
        self.demand = demand

    @property
    def n_steps(self) -> int:
        return self.demand.shape[0]

    def total(self) -> float:
        return float(self.demand.sum())

    def scaled(self, factor: float) -> "TrafficMatrixSeries":
        """Uniformly scaled copy (the paper's load factor, §6.1)."""
        if not 0 <= factor < np.inf:
            raise ValueError(f"load factor must be finite and nonnegative, "
                             f"got {factor}")
        return TrafficMatrixSeries(self.nodes, self.demand * factor)


def gravity_weights(n_nodes: int, rng: np.random.Generator,
                    sigma: float = 1.0) -> np.ndarray:
    """Lognormal node masses for the gravity model.

    Heavier-tailed masses (larger sigma) concentrate traffic on fewer
    pairs, matching the paper's low-multiplexing observation.
    """
    weights = rng.lognormal(mean=0.0, sigma=sigma, size=n_nodes)
    return weights / weights.sum()


def synthesize_tm_series(topology: Topology,
                         n_steps: int,
                         steps_per_day: int,
                         mean_pair_demand: float = 1.0,
                         diurnal_amplitude: float = 0.5,
                         noise_sigma: float = 0.25,
                         bursty_fraction: float = 0.0,
                         bursty_sigma: float = 1.2,
                         flash_crowd_rate: float = 0.02,
                         flash_magnitude: float = 6.0,
                         gravity_sigma: float = 1.0,
                         seed: int = 0) -> TrafficMatrixSeries:
    """Generate a WAN-shaped traffic-matrix time series.

    Parameters
    ----------
    mean_pair_demand:
        Mean volume per (ordered) pair per timestep before modulation.
    diurnal_amplitude:
        Strength of the daily cycle (0 disables it).
    noise_sigma:
        Sigma of per-(pair, step) lognormal noise ("significant short-term
        variations in the volume", §2).
    bursty_fraction:
        Fraction of pairs whose noise sigma is ``bursty_sigma`` instead —
        the volatile tail behind Figure 1's bimodal utilisation-ratio CDF
        (most links steady, >10% varying more than 5x).
    bursty_sigma:
        Noise sigma for the bursty pairs.
    flash_crowd_rate:
        Expected number of flash crowds per timestep across the network.
    flash_magnitude:
        Multiplier applied to the affected pair during a flash crowd.
    gravity_sigma:
        Spread of gravity node masses (bigger = fewer, heavier pairs).
    """
    if n_steps <= 0 or steps_per_day <= 0:
        raise ValueError("n_steps and steps_per_day must be positive")
    nodes = topology.nodes
    n = len(nodes)
    rng = np.random.default_rng(seed)

    masses = gravity_weights(n, rng, sigma=gravity_sigma)
    base = np.outer(masses, masses)
    np.fill_diagonal(base, 0.0)
    if base.sum() > 0:
        base *= (mean_pair_demand * n * (n - 1)) / base.sum()

    # Per-node diurnal intensity, phase-shifted by region.
    region_names = sorted({topology.region_of(v) or "default" for v in nodes})
    profiles = region_profiles(steps_per_day, region_names,
                               amplitude=diurnal_amplitude) \
        if diurnal_amplitude > 0 else None

    node_intensity = np.ones((n_steps, n))
    if profiles is not None:
        for j, node in enumerate(nodes):
            profile = profiles[topology.region_of(node) or "default"]
            node_intensity[:, j] = profile.series(n_steps)

    # Per-pair noise levels: a steady majority and (optionally) a bursty
    # minority.
    pair_sigma = np.full((n, n), float(noise_sigma))
    if bursty_fraction > 0:
        bursty = rng.random((n, n)) < bursty_fraction
        pair_sigma[bursty] = bursty_sigma

    demand = np.empty((n_steps, n, n))
    for t in range(n_steps):
        # Source-side intensity drives the pair (uploads follow the
        # uploader's business hours).
        modulation = np.outer(node_intensity[t], np.ones(n))
        if noise_sigma > 0 or bursty_fraction > 0:
            noise = rng.lognormal(mean=-0.5 * pair_sigma ** 2,
                                  sigma=np.maximum(pair_sigma, 1e-9),
                                  size=(n, n))
        else:
            noise = 1.0
        demand[t] = base * modulation * noise
        np.fill_diagonal(demand[t], 0.0)

    for crowd in _draw_flash_crowds(n, n_steps, flash_crowd_rate,
                                    flash_magnitude, rng):
        end = min(n_steps, crowd.start + crowd.duration)
        demand[crowd.start:end, crowd.src_index, crowd.dst_index] *= \
            crowd.magnitude

    return TrafficMatrixSeries(nodes, demand)


def _draw_flash_crowds(n_nodes: int, n_steps: int, rate: float,
                       magnitude: float,
                       rng: np.random.Generator) -> list[FlashCrowd]:
    """Poisson-arriving transient spikes on random pairs."""
    if rate <= 0 or n_nodes < 2:
        return []
    count = rng.poisson(rate * n_steps)
    crowds = []
    for _ in range(count):
        src, dst = rng.choice(n_nodes, size=2, replace=False)
        crowds.append(FlashCrowd(
            src_index=int(src), dst_index=int(dst),
            start=int(rng.integers(0, n_steps)),
            duration=int(rng.integers(1, 4)),
            magnitude=float(magnitude * rng.uniform(0.5, 1.5))))
    return crowds
