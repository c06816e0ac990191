"""End-to-end workload builder.

Ties the synthetic pieces together: topology -> traffic-matrix series ->
byte requests, with the TM calibrated against network capacity so that the
paper's *load factor* knob (§6.1) has a consistent meaning: load factor 1
produces a moderately utilised network (mean offered shortest-path link
utilisation ~= the calibration target), and the Figure 6 sweep over
{0.5, 1, 2, 4} moves the network from light load into contention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.request import ByteRequest
from ..network import Topology
from .classes import TrafficClass, resolve_classes
from .matrices import TrafficMatrixSeries, synthesize_tm_series
from .requests import RequestParameters, synthesize_requests
from .routing import route_series_on_shortest_paths
from .values import NormalValues, ValueDistribution


@dataclass
class Workload:
    """A complete simulation input.

    Attributes
    ----------
    topology:
        The WAN.
    requests:
        Byte requests sorted by arrival timestep.
    n_steps:
        Horizon length in timesteps.
    steps_per_day:
        Timesteps per day (defines the percentile-billing window and the
        price computer's default time window ``W``).
    load_factor:
        The multiplier that was applied to the calibrated traffic matrix.
    description:
        Free-form label for experiment reports.
    classes:
        Traffic classes the requests were synthesized with (empty for
        the single-class pre-class pipeline).  Schedulers resolve each
        request's ``cls`` name against this table; ``()`` means every
        request is the neutral default class.
    """

    topology: Topology
    requests: list[ByteRequest]
    n_steps: int
    steps_per_day: int
    load_factor: float = 1.0
    description: str = "workload"
    classes: tuple[TrafficClass, ...] = ()

    def __post_init__(self) -> None:
        if self.n_steps <= 0:
            raise ValueError("n_steps must be positive")
        known = {cls.name for cls in self.classes} | {"default"}
        seen = set()
        for req in self.requests:
            # Contracts, deliveries and payments are booked by rid: two
            # requests under one rid would merge into one account.
            if req.rid in seen:
                raise ValueError(f"request {req.rid}: rid appears more "
                                 f"than once")
            seen.add(req.rid)
            if req.deadline >= self.n_steps:
                raise ValueError(f"request {req.rid} deadline beyond horizon")
            if getattr(req, "cls", "default") not in known:
                raise ValueError(f"request {req.rid} has unknown traffic "
                                 f"class {req.cls!r}; workload declares "
                                 f"{sorted(known)}")

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    def arrivals_at(self, t: int) -> list[ByteRequest]:
        """Requests that arrive exactly at timestep ``t``."""
        return [r for r in self.requests if r.arrival == t]


def calibrate_tm(topology: Topology, series: TrafficMatrixSeries,
                 target_mean_utilization: float = 0.3) -> TrafficMatrixSeries:
    """Scale a TM series so shortest-path routing would hit the target.

    The scale is chosen so the *mean* link utilisation (over links that
    carry any traffic, and over time) equals ``target_mean_utilization``
    at load factor 1.
    """
    if not 0 < target_mean_utilization <= 1.5:
        raise ValueError("target utilisation out of range")
    loads = route_series_on_shortest_paths(topology, series)
    caps = np.array([link.capacity for link in topology.links])
    utilization = loads / caps[None, :]
    carried = utilization[:, utilization.max(axis=0) > 0]
    if carried.size == 0:
        return series
    mean_util = float(carried.mean())
    if mean_util <= 0:
        return series
    return series.scaled(target_mean_utilization / mean_util)


def build_workload(topology: Topology,
                   n_days: int = 3,
                   steps_per_day: int = 24,
                   load_factor: float = 1.0,
                   values: ValueDistribution | None = None,
                   request_params: RequestParameters | None = None,
                   target_mean_utilization: float = 0.3,
                   diurnal_amplitude: float = 0.5,
                   noise_sigma: float = 0.25,
                   flash_crowd_rate: float = 0.02,
                   max_requests_per_pair: int = 200,
                   seed: int = 0,
                   description: str | None = None,
                   classes=None) -> Workload:
    """Build a calibrated workload on ``topology``.

    The traffic-matrix series is synthesized, calibrated to the target
    utilisation, scaled by ``load_factor``, and converted to byte requests
    (sizes/durations from ``request_params``, values from ``values``;
    defaults follow the paper's Figure 6 setup of normal values with
    sigma < mean).  ``classes`` (``None``, a mix name like ``"qos3"``, a
    :class:`~repro.traffic.classes.ClassMix`, or an iterable of
    :class:`~repro.traffic.classes.TrafficClass`) turns on multi-class
    synthesis; the resolved classes ride on ``Workload.classes``.
    """
    if n_days <= 0:
        raise ValueError("n_days must be positive")
    if load_factor <= 0:
        raise ValueError("load factor must be positive")
    values = values or NormalValues(mean=1.0, sigma=0.5)
    n_steps = n_days * steps_per_day

    series = synthesize_tm_series(
        topology, n_steps=n_steps, steps_per_day=steps_per_day,
        mean_pair_demand=1.0, diurnal_amplitude=diurnal_amplitude,
        noise_sigma=noise_sigma, flash_crowd_rate=flash_crowd_rate,
        seed=seed)
    series = calibrate_tm(topology, series, target_mean_utilization)
    series = series.scaled(load_factor)

    # Keep request granularity proportional to network size: mean size
    # scales with the average pair volume so the request count stays
    # manageable across scales.
    params = request_params
    if params is None:
        per_pair = series.total() / max(
            1, len(series.nodes) * (len(series.nodes) - 1))
        params = RequestParameters(mean_size=max(0.5, per_pair / 8.0),
                                   min_size=max(0.05, per_pair / 200.0))

    resolved = resolve_classes(classes)
    requests = synthesize_requests(
        series, values, params=params,
        max_requests_per_pair=max_requests_per_pair, seed=seed + 1,
        classes=resolved)

    return Workload(
        topology=topology, requests=requests, n_steps=n_steps,
        steps_per_day=steps_per_day, load_factor=load_factor,
        description=description or
        f"wan load={load_factor:g} values={values.name}",
        classes=resolved or ())
