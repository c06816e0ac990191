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

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter

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

    def __post_init__(self) -> None:
        # ``not >`` so that NaN fails too: a NaN or non-positive mean
        # makes every lognormal draw NaN, which the size clip and the
        # window rounding would turn silently into min_size / one step.
        for name in ("mean_size", "mean_duration"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, "
                                 f"got {getattr(self, name)}")
        for name in ("size_sigma", "duration_sigma", "min_size"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, "
                                 f"got {getattr(self, name)}")


def _lognormal_mu(mean: float, sigma: float) -> float:
    """Log-mean of the lognormal with the requested arithmetic mean."""
    return float(np.log(mean) - 0.5 * sigma ** 2)


def _arrival_cdfs(pmfs: np.ndarray) -> np.ndarray:
    """Per row of ``pmfs``, the CDF ``Generator.choice(p=row)`` inverts,
    validated as it does.

    ``choice`` re-validates ``p`` and rebuilds this on every call; one
    ``bisect_right(cdf, rng.random())`` per draw consumes the same
    uniform and returns the same index.  Rows are cumulated one by one,
    so each equals its pair's own ``cumsum``.
    """
    cdfs = pmfs.cumsum(axis=1)
    # 1.5e-8 ~ sqrt(float64 eps), choice's own tolerance; ``not <=`` so
    # that a NaN anywhere (hence in the running sum) fails too.
    if (pmfs < 0).any() or not (abs(cdfs[:, -1] - 1.0) <= 1.5e-8).all():
        raise ValueError("arrival probabilities must be non-negative "
                         "and sum to 1")
    cdfs /= cdfs[:, -1:]
    return cdfs


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
    # Bound once: the draw loop below runs once per request.
    lognormal, uniform, sample_value = (rng.lognormal, rng.random,
                                        values.sample_one)
    min_size = params.min_size
    size_sigma, duration_sigma = params.size_sigma, params.duration_sigma
    size_mu = _lognormal_mu(params.mean_size, size_sigma)
    duration_mu = _lognormal_mu(params.mean_duration, duration_sigma)
    last = series.n_steps - 1
    nodes = series.nodes
    requests: list[ByteRequest] = []
    rid = first_rid

    for i, src in enumerate(nodes):
        # One row per destination, contiguous, so each row sums exactly
        # as the pair's own series does.
        profiles = np.ascontiguousarray(series.demand[:, i, :].T)
        totals = profiles.sum(axis=1)
        # ``not <=`` keeps a NaN total, which the CDF check then rejects.
        drawn = [j for j in range(len(nodes))
                 if j != i and not totals[j] <= min_size]
        if not drawn:
            continue
        cdfs = _arrival_cdfs(profiles[drawn] / totals[drawn, None])
        for j, pair_cdf in zip(drawn, cdfs):
            dst = nodes[j]
            cdf = pair_cdf.tolist()
            remaining = float(totals[j])
            n_drawn = 0
            while remaining > 1e-9 and n_drawn < max_requests_per_pair:
                # Plain comparisons pick what max(min_size, min(size,
                # remaining)) did, a NaN draw included.
                size = lognormal(size_mu, size_sigma)
                if remaining < size:
                    size = remaining
                if not size > min_size:
                    size = min_size
                if remaining - size < min_size:
                    size = remaining
                arrival = bisect_right(cdf, uniform())
                # round() of a float is already an int.
                duration = round(lognormal(duration_mu, duration_sigma))
                if duration < 1:
                    duration = 1
                deadline = arrival + duration - 1
                if deadline > last:
                    deadline = last
                value = sample_value(rng)
                cls_name = "default"
                if mix is not None:
                    cls = mix.assign(rng)
                    cls_name = cls.name
                    value *= cls.value_multiplier
                    if cls.deadline_stretch != 1.0:
                        duration = max(1, round(
                            duration * cls.deadline_stretch))
                        deadline = min(last, arrival + duration - 1)
                requests.append(ByteRequest(
                    rid, src, dst, size, arrival, arrival, deadline, value,
                    False, cls_name))
                rid += 1
                n_drawn += 1
                remaining -= size

    # Stable, and rids grow in list order: the same as (arrival, rid).
    requests.sort(key=attrgetter("arrival"))
    return requests
