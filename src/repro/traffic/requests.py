"""Request synthesis from traffic-matrix time series (paper §6.1).

The paper could not recover user requests from sampled NetFlow, so it
generated requests that "closely mimic the observed traffic matrix
time-series" using operator-surveyed parameter distributions for size,
duration and deadline, with configurable distributions for values.  This
module is that generative step:

- per-pair request volume matches the pair's TM total;
- request *arrival times* are distributed proportionally to the pair's
  demand time series (so temporal structure is preserved);
- sizes are heavy-tailed (lognormal), durations lognormal, values drawn
  from a pluggable :class:`~repro.traffic.values.ValueDistribution`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.request import ByteRequest
from .classes import ClassMix, resolve_classes
from .matrices import TrafficMatrixSeries
from .values import ValueDistribution


@dataclass
class RequestParameters:
    """Operator-survey-style request shape parameters.

    Attributes
    ----------
    mean_size:
        Mean request volume; actual sizes are lognormal with this mean and
        ``size_sigma`` log-stddev (heavy tailed, as in the trace where "a
        single large transfer ... could accommodate many smaller ones").
    mean_duration:
        Mean allowed window length in timesteps (deadline - start + 1).
        The survey reports ~60% of transfers have strict deadlines; window
        lengths are lognormal around this mean, min 1.
    duration_sigma:
        Log-stddev of window lengths.
    min_size:
        Sizes are clipped below at this volume.
    """

    mean_size: float = 20.0
    size_sigma: float = 1.0
    mean_duration: float = 6.0
    duration_sigma: float = 0.6
    min_size: float = 0.5


def _lognormal_mu(mean: float, sigma: float) -> float:
    """Log-mean of the lognormal with the requested arithmetic mean."""
    return float(np.log(mean) - 0.5 * sigma ** 2)


def _arrival_cdf(pmf: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(p=pmf)`` inverts, validated as it does.

    ``choice`` re-validates ``p`` and rebuilds this on every call; one
    ``cdf.searchsorted(rng.random(), side="right")`` per draw consumes
    the same uniform and returns the same index.
    """
    cdf = pmf.cumsum()
    # 1.5e-8 ~ sqrt(float64 eps), choice's own tolerance; ``not <=`` so
    # that a NaN anywhere (hence in the running sum) fails too.
    if (pmf < 0).any() or not abs(cdf[-1] - 1.0) <= 1.5e-8:
        raise ValueError("arrival probabilities must be non-negative "
                         "and sum to 1")
    cdf /= cdf[-1]
    return cdf


def synthesize_requests(series: TrafficMatrixSeries,
                        values: ValueDistribution,
                        params: RequestParameters | None = None,
                        max_requests_per_pair: int = 200,
                        seed: int = 0,
                        first_rid: int = 0,
                        classes=None) -> list[ByteRequest]:
    """Generate byte requests that mimic ``series``.

    For every ordered pair, requests are drawn until their cumulative
    demand covers the pair's total TM volume (the final request is trimmed
    to match exactly).  Request arrivals follow the pair's temporal demand
    profile; each request's window starts at its arrival and extends by a
    lognormal duration, truncated at the horizon.

    ``classes`` (``None``, a mix name, a :class:`~repro.traffic.classes.
    ClassMix`, or an iterable of :class:`TrafficClass`) assigns a traffic
    class per request — drawn *after* the base size/arrival/duration/value
    samples, so the underlying stream is shared across mixes.  The class
    then modulates the request: value scales by ``value_multiplier`` and
    the window length by ``deadline_stretch``.  ``None`` and single-class
    mixes consume no extra randomness, so a ``(DEFAULT_CLASS,)`` workload
    is bit-identical to a class-free one.

    Returns requests sorted by (arrival, rid).
    """
    params = params or RequestParameters()
    resolved = resolve_classes(classes)
    mix = None if resolved is None else ClassMix(resolved)
    rng = np.random.default_rng(seed)
    horizon = series.n_steps
    size_mu = _lognormal_mu(params.mean_size, params.size_sigma)
    duration_mu = _lognormal_mu(params.mean_duration, params.duration_sigma)
    requests: list[ByteRequest] = []
    rid = first_rid

    for i, src in enumerate(series.nodes):
        for j, dst in enumerate(series.nodes):
            if i == j:
                continue
            pair_series = series.demand[:, i, j]
            total = float(pair_series.sum())
            if total <= params.min_size:
                continue
            cdf = _arrival_cdf(pair_series / total)

            remaining = total
            n_drawn = 0
            while remaining > 1e-9 and n_drawn < max_requests_per_pair:
                size = rng.lognormal(size_mu, params.size_sigma)
                size = max(params.min_size, min(size, remaining))
                if remaining - size < params.min_size:
                    size = remaining
                arrival = int(cdf.searchsorted(rng.random(), side="right"))
                duration = max(1, int(round(rng.lognormal(
                    duration_mu, params.duration_sigma))))
                deadline = min(horizon - 1, arrival + duration - 1)
                value = values.sample_one(rng)
                cls_name = "default"
                if mix is not None:
                    cls = mix.assign(rng)
                    cls_name = cls.name
                    value *= cls.value_multiplier
                    if cls.deadline_stretch != 1.0:
                        duration = max(1, int(round(
                            duration * cls.deadline_stretch)))
                        deadline = min(horizon - 1, arrival + duration - 1)
                requests.append(ByteRequest(
                    rid=rid, src=src, dst=dst, demand=size, arrival=arrival,
                    start=arrival, deadline=deadline, value=value,
                    cls=cls_name))
                rid += 1
                n_drawn += 1
                remaining -= size

    requests.sort(key=lambda r: (r.arrival, r.rid))
    return requests


def total_demand(requests: list[ByteRequest]) -> float:
    """Aggregate demand across requests."""
    return sum(r.demand for r in requests)
