"""Shortest-path routing of traffic-matrix series onto links.

Used for trace *characterisation* (Figure 1's utilisation-ratio CDF) and
for workload calibration — not by the schedulers themselves, which solve
multipath LPs instead.
"""

from __future__ import annotations

import numpy as np

from ..network import PathCache, Topology
from .matrices import TrafficMatrixSeries


def route_series_on_shortest_paths(topology: Topology,
                                   series: TrafficMatrixSeries) -> np.ndarray:
    """Accumulate each TM entry onto its (single) shortest path.

    Returns ``loads`` of shape ``(n_steps, n_links)`` in volume units per
    timestep; entries for unreachable pairs are skipped.
    """
    cache = PathCache(topology, k=1)
    n_links = topology.num_links
    loads = np.zeros((series.n_steps, n_links))
    nodes = series.nodes
    totals = series.demand.sum(axis=0)
    for i, src in enumerate(nodes):
        for j, dst in enumerate(nodes):
            if i == j or totals[i, j] <= 0:
                continue
            routes = cache.routes(src, dst)
            if not routes:
                continue
            # Link indices on a simple path are unique, so one
            # fancy-indexed add equals the per-link loop bit for bit.
            loads[:, routes[0].link_indices()] += \
                series.demand[:, i, j][:, None]
    return loads


def utilization_percentile_ratios(loads: np.ndarray, upper: float = 90.0,
                                  lower: float = 10.0) -> np.ndarray:
    """Per-link ratio of the upper to lower utilisation percentile.

    Figure 1 plots the CDF of this ratio across links; the paper reports
    a ratio above 5x for >10% of links and below 2x for ~70%.  Links that
    never carry traffic are excluded.
    """
    if loads.ndim != 2:
        raise ValueError("loads must be (n_steps, n_links)")
    ratios = []
    for link in range(loads.shape[1]):
        column = loads[:, link]
        if column.max() <= 0:
            continue
        high = np.percentile(column, upper)
        low = np.percentile(column, lower)
        ratios.append(high / max(low, 1e-9))
    return np.asarray(ratios)
