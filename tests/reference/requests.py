"""``synthesize_requests`` as it was before its per-draw overhead was
removed: one ``Generator.choice(p=)`` and two ``size=1`` arrays per
request.  The stream-identity tests require the fast loop to reproduce
this one field for field."""

import numpy as np

from repro.core.request import ByteRequest
from repro.traffic.classes import ClassMix, resolve_classes
from repro.traffic.requests import RequestParameters


def _lognormal_with_mean(rng, mean, sigma, size):
    mu = np.log(mean) - 0.5 * sigma ** 2
    return rng.lognormal(mean=mu, sigma=sigma, size=size)


def synthesize_requests(series, values, params=None,
                        max_requests_per_pair=200, seed=0, first_rid=0,
                        classes=None):
    params = params or RequestParameters()
    resolved = resolve_classes(classes)
    mix = None if resolved is None else ClassMix(resolved)
    rng = np.random.default_rng(seed)
    horizon = series.n_steps
    requests = []
    rid = first_rid

    for i, src in enumerate(series.nodes):
        for j, dst in enumerate(series.nodes):
            if i == j:
                continue
            pair_series = series.demand[:, i, j]
            total = float(pair_series.sum())
            if total <= params.min_size:
                continue
            pmf = pair_series / total

            remaining = total
            n_drawn = 0
            while remaining > 1e-9 and n_drawn < max_requests_per_pair:
                size = float(_lognormal_with_mean(
                    rng, params.mean_size, params.size_sigma, 1)[0])
                size = max(params.min_size, min(size, remaining))
                if remaining - size < params.min_size:
                    size = remaining
                arrival = int(rng.choice(horizon, p=pmf))
                duration = max(1, int(round(_lognormal_with_mean(
                    rng, params.mean_duration, params.duration_sigma, 1)[0])))
                deadline = min(horizon - 1, arrival + duration - 1)
                # ValueDistribution.sample_one as it was: a size-1 array.
                value = float(values.sample(rng, 1)[0])
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
