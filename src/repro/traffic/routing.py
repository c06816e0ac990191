"""Shortest-path routing of traffic-matrix series onto links.

Used for trace *characterisation* (Figure 1's utilisation-ratio CDF) and
for workload calibration — not by the schedulers themselves, which solve
multipath LPs instead.
"""

from __future__ import annotations

import numpy as np

from ..network import Topology
from ..network.paths import first_route_links
from .matrices import TrafficMatrixSeries


def route_series_on_shortest_paths(topology: Topology,
                                   series: TrafficMatrixSeries) -> np.ndarray:
    """Accumulate each TM entry onto its (single) shortest path.

    Returns ``loads`` of shape ``(n_steps, n_links)`` in volume units per
    timestep; entries for unreachable pairs are skipped.

    Routes are every pair's first route as link indices, computed in
    one pass (:func:`~repro.network.paths.first_route_links`) and
    dropped on return.
    Loads are added one source at a time: ``np.add.at`` adds repeated
    cells in index order, so every cell sums its pairs in the same order
    (and to the same float) as one add per pair, and the operand stays
    one source's routes long.
    """
    routes = first_route_links(topology)
    # Link-major while adding, so each add is one contiguous row.
    loads = np.zeros((topology.num_links, series.n_steps))
    nodes = series.nodes
    idle = (series.demand.sum(axis=0) <= 0).tolist()
    for i, src in enumerate(nodes):
        by_dst = routes[src]
        links, pairs = [], []
        for j, dst in enumerate(nodes):
            if i == j or idle[i][j]:
                continue
            indices = by_dst[dst]
            links += indices
            pairs += [j] * len(indices)
        if links:
            np.add.at(loads, links, series.demand[:, i, pairs].T)
    return np.ascontiguousarray(loads.T)


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
