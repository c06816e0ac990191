"""Small inputs the tests build again and again.

Nothing in ``src/`` needs these: a chain network, the 20-node WAN most
unit tests run on, a degenerate value distribution, and the exact top-k
sum the LP encodings are checked against.
"""

import numpy as np

from repro.network import Topology, wan_topology
from repro.traffic import ValueDistribution


def line_network(n_nodes: int = 3, capacity: float = 10.0,
                 metered: bool = False, cost_per_unit: float = 0.0) -> Topology:
    """``n0 -> n1 -> ...`` chain."""
    topology = Topology(name=f"line{n_nodes}")
    for i in range(n_nodes - 1):
        topology.add_link(f"n{i}", f"n{i+1}", capacity, metered=metered,
                          cost_per_unit=cost_per_unit)
    return topology


def small_wan(seed: int = 0) -> Topology:
    """~20 nodes in 4 regions (see DESIGN.md §5)."""
    return wan_topology(n_nodes=20, n_regions=4, seed=seed, name="small-wan")


class FixedValues(ValueDistribution):
    """Degenerate distribution: every request worth ``value``."""

    def __init__(self, value: float = 1.0) -> None:
        self.value = value
        self.name = f"fixed({value:g})"

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)

    def sample_one(self, rng: np.random.Generator) -> float:
        return float(self.value)


def sum_topk_exact(values, k: int) -> float:
    """Exact sum of the ``k`` largest entries of ``values``."""
    if k <= 0:
        return 0.0
    arr = np.asarray(values, dtype=float)
    k = min(k, arr.size)
    return float(np.sort(arr)[-k:].sum())
